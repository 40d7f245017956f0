//! The pluggable metric seam.
//!
//! Every pruning bound in the engine — `d⁻`/`d⁺` over α-cuts, the Eq. 2
//! approximations, the lazy-probe τ discipline — needs only the metric
//! axioms, not Euclidean geometry. [`Metric`] captures exactly what the
//! query layer consumes:
//!
//! * **point evaluation** — [`Metric::dist`] / [`Metric::dist_sq`]; the
//!   whole engine works in squared distances, so implementations must keep
//!   `dist_sq = dist²` monotone-consistent;
//! * **box bounds** — [`Metric::min_box_dist_sq`] /
//!   [`Metric::max_box_dist_sq`] turn the coordinate rectangles the index
//!   already stores into sound distance bounds. The defaults (`0`, `+∞`)
//!   are always sound and simply disable rectangle pruning; `L2` overrides
//!   them with the exact `MinDist`/`MaxDist` of Eqs. 1 and 3;
//! * **α-distance** — [`Metric::alpha_distance_sq_bounded`] evaluates
//!   Definition 3 under the metric, honoring the kernel's seed contract.
//!   The default is the membership-filtered pair scan; `L2` routes to the
//!   adaptive columnar/kd kernel in [`crate::distance`], which is why the
//!   generic engine stays byte-identical to the specialized one under `L2`;
//! * **distance profiles** — [`Metric::distance_profile`] builds the full
//!   staircase `α ↦ d_α`, and [`Metric::distance_profile_window`] the part
//!   of it an RKNN over `[αs, αe]` reads. The window hook is *provided*: it
//!   defaults to the full profile, which is a valid answer for every
//!   window, so a metric (or an adapter around one) that implements only
//!   `distance_profile` stays correct and merely does the full work. `L2`
//!   overrides it with the windowed sweep of [`crate::profile`].
//!
//! Two implementations ship here: [`L2`] (the paper's setting, every hook
//! delegating to the existing specialized code) and [`GraphMetric`]
//! (shortest-path distance over a [`RoadNetwork`], the kFANN-style road
//! workload where fuzzy objects live on network vertices).

use crate::object::FuzzyObject;
use crate::profile::DistanceProfile;
use crate::threshold::Threshold;
use fuzzy_geom::{Mbr, Point};
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// A metric on `D`-dimensional points, plus the derived hooks the query
/// engine prunes with. Implementations must satisfy the metric axioms
/// (non-negativity, identity of indiscernibles on their point domain,
/// symmetry, triangle inequality) — the `metric_laws` proptest harness in
/// `crates/core/tests` checks sampled instances of all four.
pub trait Metric<const D: usize>: Sync {
    /// Short stable name (`"l2"`, `"graph"`) used in CLI flags, bench
    /// reports and index headers.
    fn name(&self) -> &'static str;

    /// The distance `d(a, b)`.
    fn dist(&self, a: &Point<D>, b: &Point<D>) -> f64;

    /// The squared distance. Must equal `dist(a, b)²` up to the rounding
    /// of that product; the engine only ever *compares* squared values
    /// against each other, so any monotone-consistent squaring works.
    #[inline]
    fn dist_sq(&self, a: &Point<D>, b: &Point<D>) -> f64 {
        let d = self.dist(a, b);
        d * d
    }

    /// Sound squared lower bound on `d(a, b)` over all `a ∈ box_a`,
    /// `b ∈ box_b`. The default `0.0` never prunes and is sound for every
    /// metric; override when the metric can score coordinate rectangles
    /// (L2 uses `MinDist`, Eq. 1).
    #[inline]
    fn min_box_dist_sq(&self, _box_a: &Mbr<D>, _box_b: &Mbr<D>) -> f64 {
        0.0
    }

    /// Sound squared upper bound on `min_{a ∈ box_a} d(a, b)` style
    /// confinement queries: an upper bound on the distance between the
    /// *closest* pair once both point sets are known non-empty inside the
    /// boxes. The default `+∞` never confirms anything early; L2 uses
    /// `MaxDist` (Eq. 3).
    #[inline]
    fn max_box_dist_sq(&self, _box_a: &Mbr<D>, _box_b: &Mbr<D>) -> f64 {
        f64::INFINITY
    }

    /// The squared α-distance `d_α(a, b)²` (Definition 3) under this
    /// metric, pruned by a **squared** seed: `None` when either cut is
    /// empty under `t` or no qualifying pair lies strictly closer than
    /// `upper_bound_sq` (the kernel's documented seed contract). The
    /// default is the membership-filtered pair scan; metrics with faster
    /// exact evaluators override it (L2 routes to the adaptive kernel).
    fn alpha_distance_sq_bounded(
        &self,
        a: &FuzzyObject<D>,
        b: &FuzzyObject<D>,
        t: Threshold,
        upper_bound_sq: f64,
    ) -> Option<f64> {
        generic_alpha_distance_sq_bounded(self, a, b, t, upper_bound_sq)
    }

    /// The full α-distance staircase `α ↦ d_α(a, q)` under this metric
    /// (Definition 7; what the RKNN refinement loops consume). The default
    /// enumerates every pair; L2 overrides with the sweep of [`crate::profile`].
    fn distance_profile(&self, a: &FuzzyObject<D>, q: &FuzzyObject<D>) -> DistanceProfile {
        DistanceProfile::from_pairs(
            a.iter().flat_map(|(p, mu)| q.iter().map(move |(r, nu)| (mu.min(nu), self.dist(p, r)))),
        )
    }

    /// The staircase on the window `[lo, hi]`, under the contract of
    /// [`DistanceProfile::compute_window`]: exact for every threshold in
    /// the window, unspecified outside it. `top_sq` is the squared
    /// α-distance at `hi` when the caller already holds it (as returned by
    /// [`Metric::alpha_distance_sq_bounded`] for the same pair), `None`
    /// otherwise. The default ignores the window and returns
    /// [`Metric::distance_profile`].
    fn distance_profile_window(
        &self,
        a: &FuzzyObject<D>,
        q: &FuzzyObject<D>,
        _lo: f64,
        _hi: f64,
        _top_sq: Option<f64>,
    ) -> DistanceProfile {
        self.distance_profile(a, q)
    }
}

/// Reference α-distance evaluator for any metric: the membership-filtered
/// all-pairs scan in squared space, honoring the strict-`<` seed contract
/// of [`crate::distance::alpha_distance_sq_bounded`]. Public so tests can
/// oracle-check specialized overrides against it.
pub fn generic_alpha_distance_sq_bounded<M: Metric<D> + ?Sized, const D: usize>(
    metric: &M,
    a: &FuzzyObject<D>,
    b: &FuzzyObject<D>,
    t: Threshold,
    upper_bound_sq: f64,
) -> Option<f64> {
    let mut best = upper_bound_sq;
    let mut found = false;
    for (p, mu) in a.iter() {
        if !t.accepts(mu) {
            continue;
        }
        for (r, nu) in b.iter() {
            if !t.accepts(nu) {
                continue;
            }
            let d_sq = metric.dist_sq(p, r);
            if d_sq < best {
                best = d_sq;
                found = true;
            }
        }
    }
    found.then_some(best)
}

/// The Euclidean metric — the paper's setting and the engine's fast path.
/// Every hook delegates to the pre-existing specialized code (exact
/// `MinDist`/`MaxDist` box bounds, the adaptive columnar/kd α-distance
/// kernel, the windowed profile sweep), so query answers and per-query
/// counters through the metric seam are byte-identical to the direct calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct L2;

impl<const D: usize> Metric<D> for L2 {
    #[inline]
    fn name(&self) -> &'static str {
        "l2"
    }

    #[inline]
    fn dist(&self, a: &Point<D>, b: &Point<D>) -> f64 {
        a.dist(b)
    }

    #[inline]
    fn dist_sq(&self, a: &Point<D>, b: &Point<D>) -> f64 {
        a.dist_sq(b)
    }

    #[inline]
    fn min_box_dist_sq(&self, box_a: &Mbr<D>, box_b: &Mbr<D>) -> f64 {
        box_a.min_dist_sq(box_b)
    }

    #[inline]
    fn max_box_dist_sq(&self, box_a: &Mbr<D>, box_b: &Mbr<D>) -> f64 {
        box_a.max_dist_sq(box_b)
    }

    #[inline]
    fn alpha_distance_sq_bounded(
        &self,
        a: &FuzzyObject<D>,
        b: &FuzzyObject<D>,
        t: Threshold,
        upper_bound_sq: f64,
    ) -> Option<f64> {
        crate::distance::alpha_distance_sq_bounded(a, b, t, upper_bound_sq)
    }

    #[inline]
    fn distance_profile(&self, a: &FuzzyObject<D>, q: &FuzzyObject<D>) -> DistanceProfile {
        DistanceProfile::compute(a, q)
    }

    #[inline]
    fn distance_profile_window(
        &self,
        a: &FuzzyObject<D>,
        q: &FuzzyObject<D>,
        lo: f64,
        hi: f64,
        top_sq: Option<f64>,
    ) -> DistanceProfile {
        DistanceProfile::compute_window(a, q, lo, hi, top_sq)
    }
}

/// An undirected weighted road network: vertex coordinates plus a CSR
/// adjacency, with all-pairs shortest paths precomputed at construction
/// (one Dijkstra per vertex). Sized for workload graphs of a few hundred
/// to a few thousand vertices — the APSP table is `V²` doubles.
///
/// Shortest-path distance over an undirected graph with non-negative edge
/// weights is a true metric on the vertex set (on disconnected graphs,
/// with `+∞` between components — the extended-metric convention).
#[derive(Clone, Debug)]
pub struct RoadNetwork<const D: usize> {
    coords: Vec<Point<D>>,
    /// Original undirected edge list `(u, v, w)`, kept for serialization.
    edges: Vec<(u32, u32, f64)>,
    /// CSR offsets, `len = V + 1`.
    offsets: Vec<u32>,
    /// CSR neighbor targets.
    targets: Vec<u32>,
    /// CSR edge weights, parallel to `targets`.
    weights: Vec<f64>,
    /// Row-major `V × V` shortest-path matrix.
    apsp: Vec<f64>,
    /// Exact coordinate → vertex lookup (keyed on IEEE-754 bit patterns).
    lookup: HashMap<[u64; D], u32>,
}

/// Construction failure for [`RoadNetwork`].
#[derive(Clone, Debug, PartialEq)]
pub enum RoadNetworkError {
    /// The vertex set was empty.
    NoVertices,
    /// An edge referenced a vertex index `>= V`.
    EdgeOutOfRange {
        /// The offending vertex index.
        index: u32,
    },
    /// An edge weight was negative, NaN or infinite.
    BadWeight {
        /// The offending weight.
        weight: f64,
    },
    /// A vertex coordinate was NaN or infinite.
    BadCoordinate,
}

impl std::fmt::Display for RoadNetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoVertices => write!(f, "road network has no vertices"),
            Self::EdgeOutOfRange { index } => {
                write!(f, "edge references out-of-range vertex {index}")
            }
            Self::BadWeight { weight } => write!(f, "edge weight {weight} is not finite and >= 0"),
            Self::BadCoordinate => write!(f, "vertex coordinate is not finite"),
        }
    }
}

impl std::error::Error for RoadNetworkError {}

impl<const D: usize> RoadNetwork<D> {
    /// Build a network from vertex coordinates and an undirected edge
    /// list, validating indices and weights and precomputing all-pairs
    /// shortest paths.
    pub fn new(
        coords: Vec<Point<D>>,
        edges: Vec<(u32, u32, f64)>,
    ) -> Result<Self, RoadNetworkError> {
        if coords.is_empty() {
            return Err(RoadNetworkError::NoVertices);
        }
        if coords.iter().any(|p| !p.is_finite()) {
            return Err(RoadNetworkError::BadCoordinate);
        }
        let n = coords.len() as u32;
        for &(u, v, w) in &edges {
            if u >= n {
                return Err(RoadNetworkError::EdgeOutOfRange { index: u });
            }
            if v >= n {
                return Err(RoadNetworkError::EdgeOutOfRange { index: v });
            }
            if !(w.is_finite() && w >= 0.0) {
                return Err(RoadNetworkError::BadWeight { weight: w });
            }
        }

        // CSR over the symmetrized edge list.
        let mut degree = vec![0u32; coords.len()];
        for &(u, v, _) in &edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(coords.len() + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..coords.len()].to_vec();
        let mut targets = vec![0u32; acc as usize];
        let mut weights = vec![0.0f64; acc as usize];
        for &(u, v, w) in &edges {
            for (a, b) in [(u, v), (v, u)] {
                let slot = cursor[a as usize] as usize;
                targets[slot] = b;
                weights[slot] = w;
                cursor[a as usize] += 1;
            }
        }

        let mut lookup = HashMap::with_capacity(coords.len());
        for (i, p) in coords.iter().enumerate() {
            let mut key = [0u64; D];
            for (k, c) in key.iter_mut().zip(p.coords()) {
                *k = c.to_bits();
            }
            // First vertex wins on duplicate coordinates (deterministic).
            lookup.entry(key).or_insert(i as u32);
        }

        let mut net = Self { coords, edges, offsets, targets, weights, apsp: Vec::new(), lookup };
        net.apsp = net.compute_apsp();
        Ok(net)
    }

    /// One Dijkstra per source over the CSR adjacency. Deterministic: the
    /// heap orders by `(dist bits, vertex)` and relaxations use strict
    /// improvement only.
    fn compute_apsp(&self) -> Vec<f64> {
        let n = self.coords.len();
        let mut apsp = vec![f64::INFINITY; n * n];
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = BinaryHeap::new();
        for src in 0..n {
            let dist = &mut apsp[src * n..(src + 1) * n];
            dist[src] = 0.0;
            heap.clear();
            heap.push(std::cmp::Reverse((0, src as u32)));
            while let Some(std::cmp::Reverse((dbits, u))) = heap.pop() {
                let du = f64::from_bits(dbits);
                if du > dist[u as usize] {
                    continue;
                }
                let (lo, hi) =
                    (self.offsets[u as usize] as usize, self.offsets[u as usize + 1] as usize);
                for (&v, &w) in self.targets[lo..hi].iter().zip(&self.weights[lo..hi]) {
                    let nd = du + w;
                    if nd < dist[v as usize] {
                        dist[v as usize] = nd;
                        // Non-negative doubles order identically as their
                        // bit patterns, so the u64 heap key is exact.
                        heap.push(std::cmp::Reverse((nd.to_bits(), v)));
                    }
                }
            }
        }
        // Symmetrize: on an undirected graph row u's entry for v and row
        // v's entry for u are the same shortest path, but Dijkstra sums
        // its edge weights in opposite orders, which can differ in the
        // last ulp. Taking the min makes d(u, v) == d(v, u) **bitwise**
        // — the symmetry axiom the metric-law suite pins — while staying
        // a valid path length (both orientations are achievable sums).
        for u in 0..n {
            for v in (u + 1)..n {
                let m = apsp[u * n + v].min(apsp[v * n + u]);
                apsp[u * n + v] = m;
                apsp[v * n + u] = m;
            }
        }
        apsp
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.coords.len()
    }

    /// Vertex coordinates, indexed by vertex id.
    pub fn coords(&self) -> &[Point<D>] {
        &self.coords
    }

    /// The undirected edge list `(u, v, w)` as constructed.
    pub fn edges(&self) -> &[(u32, u32, f64)] {
        &self.edges
    }

    /// The vertex whose coordinates match `p` bit-for-bit, if any.
    pub fn vertex_at(&self, p: &Point<D>) -> Option<u32> {
        let mut key = [0u64; D];
        for (k, c) in key.iter_mut().zip(p.coords()) {
            *k = c.to_bits();
        }
        self.lookup.get(&key).copied()
    }

    /// The vertex for `p`: the bit-exact match when `p` lies on a vertex,
    /// otherwise the deterministic nearest-vertex snap (smallest squared
    /// Euclidean distance, ties to the lowest vertex id).
    pub fn snap(&self, p: &Point<D>) -> u32 {
        if let Some(v) = self.vertex_at(p) {
            return v;
        }
        let mut best = (f64::INFINITY, 0u32);
        for (i, c) in self.coords.iter().enumerate() {
            let d = p.dist_sq(c);
            if d < best.0 {
                best = (d, i as u32);
            }
        }
        best.1
    }

    /// Shortest-path distance between two vertices (`+∞` when
    /// disconnected).
    pub fn shortest_path(&self, u: u32, v: u32) -> f64 {
        self.apsp[u as usize * self.coords.len() + v as usize]
    }

    /// True when every vertex reaches every other.
    pub fn is_connected(&self) -> bool {
        let n = self.coords.len();
        self.apsp[..n].iter().all(|d| d.is_finite())
    }
}

/// Graph shortest-path metric over a shared [`RoadNetwork`]. Points are
/// mapped to vertices (bit-exact lookup with a deterministic nearest snap
/// for off-network points), so on vertex-resident fuzzy objects — what the
/// `fuzzy-datagen` road workload generates — this is the true network
/// metric.
#[derive(Clone, Debug)]
pub struct GraphMetric<const D: usize> {
    net: Arc<RoadNetwork<D>>,
}

impl<const D: usize> GraphMetric<D> {
    /// Wrap a shared network.
    pub fn new(net: Arc<RoadNetwork<D>>) -> Self {
        Self { net }
    }

    /// The underlying network.
    pub fn network(&self) -> &RoadNetwork<D> {
        &self.net
    }
}

impl<const D: usize> Metric<D> for GraphMetric<D> {
    #[inline]
    fn name(&self) -> &'static str {
        "graph"
    }

    #[inline]
    fn dist(&self, a: &Point<D>, b: &Point<D>) -> f64 {
        self.net.shortest_path(self.net.snap(a), self.net.snap(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::alpha_distance_sq_bounded;
    use crate::object::ObjectId;

    fn blob(seed: u64, n: usize, cx: f64, cy: f64) -> FuzzyObject<2> {
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pts = vec![Point::xy(cx, cy)];
        let mut mus = vec![1.0];
        for _ in 1..n {
            let r = rnd();
            let th = rnd() * std::f64::consts::TAU;
            pts.push(Point::xy(cx + r * th.cos(), cy + r * th.sin()));
            mus.push(((1.0 - r) * 0.9 + 0.05).clamp(0.01, 1.0));
        }
        FuzzyObject::new(ObjectId(seed), pts, mus).unwrap()
    }

    /// A deliberately hook-poor Euclidean metric: `dist`/`dist_sq` only,
    /// so the default box bounds, pair-scan α-distance and pair-enumeration
    /// profile all run as written. `dist_sq` matches the kernel's squared
    /// arithmetic (summed squares, not `dist²`) — bitwise agreement between
    /// generic and specialized paths requires consistent squaring, which is
    /// exactly what the `dist_sq` contract documents.
    struct BareL2;
    impl Metric<2> for BareL2 {
        fn name(&self) -> &'static str {
            "bare-l2"
        }
        fn dist(&self, a: &Point<2>, b: &Point<2>) -> f64 {
            a.dist(b)
        }
        fn dist_sq(&self, a: &Point<2>, b: &Point<2>) -> f64 {
            a.dist_sq(b)
        }
    }

    #[test]
    fn l2_hooks_delegate_bitwise() {
        let a = blob(3, 60, 0.0, 0.0);
        let b = blob(4, 70, 2.0, 1.0);
        let m = L2;
        let pa = *a.point(0);
        let pb = *b.point(0);
        assert_eq!(Metric::<2>::dist(&m, &pa, &pb).to_bits(), pa.dist(&pb).to_bits());
        assert_eq!(Metric::<2>::dist_sq(&m, &pa, &pb).to_bits(), pa.dist_sq(&pb).to_bits());
        let ma = a.support_mbr();
        let mb = b.support_mbr();
        assert_eq!(m.min_box_dist_sq(&ma, &mb).to_bits(), ma.min_dist_sq(&mb).to_bits());
        assert_eq!(m.max_box_dist_sq(&ma, &mb).to_bits(), ma.max_dist_sq(&mb).to_bits());
        for v in [0.2, 0.5, 1.0] {
            let t = Threshold::at(v);
            let via_metric = m.alpha_distance_sq_bounded(&a, &b, t, f64::INFINITY);
            let direct = alpha_distance_sq_bounded(&a, &b, t, f64::INFINITY);
            assert_eq!(via_metric.map(f64::to_bits), direct.map(f64::to_bits));
        }
    }

    #[test]
    fn generic_defaults_match_l2_kernel_bitwise() {
        // The hook-free metric must agree with the adaptive kernel on the
        // same Euclidean geometry: same answers, same seed contract.
        for seed in 1..6u64 {
            let a = blob(seed, 50, 0.0, 0.0);
            let b = blob(seed + 40, 55, 1.5, -0.5);
            for v in [0.1, 0.5, 0.9, 1.0] {
                let t = Threshold::at(v);
                let generic = BareL2.alpha_distance_sq_bounded(&a, &b, t, f64::INFINITY);
                let kernel = alpha_distance_sq_bounded(&a, &b, t, f64::INFINITY);
                assert_eq!(
                    generic.map(f64::to_bits),
                    kernel.map(f64::to_bits),
                    "seed {seed} α {v}"
                );
                if let Some(d_sq) = kernel {
                    // Seed contract: strictly-above preserves, at prunes.
                    assert_eq!(
                        BareL2.alpha_distance_sq_bounded(&a, &b, t, d_sq * (1.0 + 1e-9)),
                        Some(d_sq)
                    );
                    assert_eq!(BareL2.alpha_distance_sq_bounded(&a, &b, t, d_sq), None);
                }
            }
        }
        // Profiles agree too (within float tolerance of the two orders).
        let a = blob(9, 40, 0.0, 0.0);
        let q = blob(10, 40, 2.0, 0.0);
        let generic = BareL2.distance_profile(&a, &q);
        let sweep = Metric::<2>::distance_profile(&L2, &a, &q);
        assert_eq!(generic.segments().len(), sweep.segments().len());
        for (g, s) in generic.segments().iter().zip(sweep.segments()) {
            assert!((g.level - s.level).abs() < 1e-12);
            assert!((g.dist - s.dist).abs() < 1e-12);
        }
    }

    fn grid_network() -> RoadNetwork<2> {
        // 3×3 grid, unit edges.
        let mut coords = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                coords.push(Point::xy(x as f64, y as f64));
            }
        }
        let mut edges = Vec::new();
        for y in 0..3u32 {
            for x in 0..3u32 {
                let v = y * 3 + x;
                if x + 1 < 3 {
                    edges.push((v, v + 1, 1.0));
                }
                if y + 1 < 3 {
                    edges.push((v, v + 3, 1.0));
                }
            }
        }
        RoadNetwork::new(coords, edges).unwrap()
    }

    #[test]
    fn grid_shortest_paths_are_manhattan() {
        let net = grid_network();
        assert!(net.is_connected());
        assert_eq!(net.shortest_path(0, 8), 4.0); // (0,0) → (2,2)
        assert_eq!(net.shortest_path(0, 2), 2.0);
        assert_eq!(net.shortest_path(4, 4), 0.0);
        // Symmetry over every pair.
        for u in 0..9u32 {
            for v in 0..9u32 {
                assert_eq!(net.shortest_path(u, v).to_bits(), net.shortest_path(v, u).to_bits());
            }
        }
    }

    #[test]
    fn graph_metric_evaluates_on_vertices_and_snaps_off_network() {
        let net = Arc::new(grid_network());
        let m = GraphMetric::new(net.clone());
        let a = Point::xy(0.0, 0.0);
        let b = Point::xy(2.0, 2.0);
        assert_eq!(m.dist(&a, &b), 4.0);
        assert_eq!(m.dist_sq(&a, &b), 16.0);
        // An off-network point snaps to its nearest vertex.
        let c = Point::xy(1.9, 2.1);
        assert_eq!(net.snap(&c), 8);
        assert_eq!(m.dist(&a, &c), 4.0);
    }

    #[test]
    fn graph_alpha_distance_uses_cut_semantics() {
        let net = Arc::new(grid_network());
        let m = GraphMetric::new(net);
        // A: kernel on vertex (0,0), a µ=0.4 point on (2,0).
        let a = FuzzyObject::new(
            ObjectId(1),
            vec![Point::xy(0.0, 0.0), Point::xy(2.0, 0.0)],
            vec![1.0, 0.4],
        )
        .unwrap();
        // B: kernel on (2,2), a µ=0.6 point on (2,1).
        let b = FuzzyObject::new(
            ObjectId(2),
            vec![Point::xy(2.0, 2.0), Point::xy(2.0, 1.0)],
            vec![1.0, 0.6],
        )
        .unwrap();
        // α ≤ 0.4: closest pair (2,0)–(2,1), network distance 1.
        let d = m.alpha_distance_sq_bounded(&a, &b, Threshold::at(0.4), f64::INFINITY);
        assert_eq!(d, Some(1.0));
        // 0.4 < α ≤ 0.6: (0,0)–(2,1), distance 3.
        let d = m.alpha_distance_sq_bounded(&a, &b, Threshold::at(0.6), f64::INFINITY);
        assert_eq!(d, Some(9.0));
        // Kernel level: (0,0)–(2,2), distance 4.
        let d = m.alpha_distance_sq_bounded(&a, &b, Threshold::kernel(), f64::INFINITY);
        assert_eq!(d, Some(16.0));
    }

    #[test]
    fn road_network_rejects_bad_input() {
        assert!(matches!(RoadNetwork::<2>::new(vec![], vec![]), Err(RoadNetworkError::NoVertices)));
        let coords = vec![Point::xy(0.0, 0.0), Point::xy(1.0, 0.0)];
        assert!(matches!(
            RoadNetwork::new(coords.clone(), vec![(0, 5, 1.0)]),
            Err(RoadNetworkError::EdgeOutOfRange { index: 5 })
        ));
        assert!(matches!(
            RoadNetwork::new(coords.clone(), vec![(0, 1, -1.0)]),
            Err(RoadNetworkError::BadWeight { .. })
        ));
        assert!(matches!(
            RoadNetwork::new(vec![Point::xy(f64::NAN, 0.0)], vec![]),
            Err(RoadNetworkError::BadCoordinate)
        ));
        // Disconnected networks are allowed; distances are +∞.
        let net = RoadNetwork::new(coords, vec![]).unwrap();
        assert!(!net.is_connected());
        assert_eq!(net.shortest_path(0, 1), f64::INFINITY);
    }
}
