//! AKNN search (Section 3): best-first traversal with configurable
//! optimizations.
//!
//! One engine implements the four variants benchmarked in §6.2 as flags:
//!
//! | Variant    | `improved_lower_bound` | `lazy_probe` | `improved_upper_bound` |
//! |------------|------------------------|--------------|------------------------|
//! | `Basic`    | –                      | –            | –                      |
//! | `LB`       | ✓                      | –            | –                      |
//! | `LB-LP`    | ✓                      | ✓            | –                      |
//! | `LB-LP-UB` | ✓                      | ✓            | ✓                      |
//!
//! ### Hot-path layout
//!
//! The whole traversal works in **squared** distances: heap keys, deferred
//! lower/upper bounds and probe seeds are all squared, and the single
//! `sqrt` is taken when a distance leaves the search (a reported
//! neighbour). A leaf is read as the columns of its cached page
//! ([`LeafView`]), never as per-entry structs: one column pass per leaf
//! ([`append_slots`]) writes every entry's id, bound box (under `LB` the
//! Eq. 2 approximate cut MBR, bit for bit
//! [`fuzzy_core::ObjectSummary::approx_cut_mbr`]; else the support MBR),
//! kernel representative and support MBR into a per-query arena — 88 bytes
//! a slot at `D = 2` — and then every live entry's `d⁻` is scored and
//! pushed, in entry order, so the heap sees the same pushes and pops a
//! per-entry loop made. The box is computed once and reused by the lower
//! *and* upper bound. Heap items are 16 bytes — a squared key and a tagged
//! `u32` — naming a node, an arena slot, or a probed object kept in a side
//! arena. All transient state — the query sample `Q'_α` included — lives
//! in a reusable [`QueryScratch`], so in steady state a query allocates
//! only its answer `Vec` and the objects the store decodes for it.
//!
//! ### Metric-generic pruning
//!
//! The traversal is generic over [`Metric`]: node and entry rectangles are
//! scored through [`Metric::min_box_dist_sq`]/[`Metric::max_box_dist_sq`],
//! the §3.4 representative bound through [`Metric::dist_sq`], and exact
//! probes through [`Metric::alpha_distance_sq_bounded`]. Under
//! [`fuzzy_core::L2`] every hook inlines to the pre-seam specialized call,
//! so answers and counters are byte-identical to the L2-only engine
//! (proven by the differential and engine-determinism suites); a metric
//! without rectangle geometry would degrade to the sound `0`/`+∞` default
//! box bounds and prune nothing.
//!
//! ### Bound-seeded probes
//!
//! Every object probe seeds [`Metric::alpha_distance_sq_bounded`] with the
//! tightest sound bound available: the entry's own upper bound `d⁺(E)`
//! (inflated by a few ulps so the exact result is preserved bitwise) and
//! the current k-th best upper bound τ over the *live* candidates. A probe
//! that comes back `None` under the τ seed is dominated — at least `k`
//! live candidates are provably no farther than τ — and is discarded
//! without ever finishing its kernel call (the documented `None`-on-seed
//! contract of the kernel).
//!
//! ### Probe gate
//!
//! A dominated probe still costs a read. The heap key `d⁻` is box against
//! box (§3.2), but when a probe is due the query itself is in memory, so
//! `probe_exact` first tests the query's *points* against the entry's box
//! — wherever the kernel's `None` would mean dominated: τ finite and the τ
//! seed `τ_eff` (τ inflated, as above) the binding one, `τ_eff ≤` the
//! entry's own bound. If no point of the query's cut under `t` — the cut the
//! kernel would scan — has a squared gap to the entry's **support MBR**
//! strictly below `τ_eff`, the probe ends there, dominated: no read, no
//! kernel call, no object; `object_accesses` and `distance_evals` are not
//! charged, the test itself is one `bound_evals`, and a skipped read is one
//! [`crate::PruneCounts::probe_gate`]. Once the kernel has built the query's
//! kd-tree the test is the tree's capped box search
//! ([`fuzzy_geom::KdTree::any_within_box_sq`]); before that, one pass over
//! the cut in whichever view the query holds. Nothing is built for it.
//!
//! *Why the answer is the kernel's, bit for bit.* The support MBR is the
//! exact per-dimension minimum and maximum of the object's points, so it
//! contains every point of every cut bitwise. For a cut point `a` in the box
//! and a query point `q`, per dimension the gap `lo_d − q_d` (or
//! `q_d − hi_d`, or 0) is at most `|a_d − q_d|` as computed, because
//! correctly rounded subtraction is monotone, and so is squaring; the gaps'
//! squares are summed in dimension order from 0, as the kernel sums a pair's
//! `d²`, and rounded addition of non-negative terms is monotone too. So
//! every pair's computed `d²` is at least the gap sum, hence at least
//! `τ_eff`, and the kernel seeded with `τ_eff` — which keeps only pairs
//! strictly below its seed — would return `None`, the dominated outcome
//! the read would have led to. The heap, the buffer, the seed tracker and
//! the confirmation order end up exactly as with the read; only counters
//! move. The Eq. 2 box is tighter but not sound bitwise — it holds its cut
//! only to within a rounding (a point can lie 1e-17 outside it), so a gate
//! on it could drop a `d = 0` tie between duplicated objects — hence
//! [`EntrySlot`] carries the support MBR beside its bound box.
//!
//! The gate is Euclidean (the gap is an L2 box distance) and stays outside
//! the [`Metric`] seam, so a wrapper that observes the kernel sees the reads
//! an unwrapped run makes. It runs whenever τ binds, RSS's step 1 included:
//! an object that step gates is one RSS's range scan gates in turn, or one
//! RSS reads once itself (the `rknn` module docs, "The scan gate").
//! `exact_neighbor` probes without τ and never gates, and the approximate
//! path passes no box. The range scan asks the same question,
//! `cut_reaches_box`, of the query's cut at `αs` with RSS's radius as the
//! cap.
//!
//! ### A note on the lazy-probe buffer
//!
//! Algorithm 2 of the paper keeps deferred leaf entries in a second queue
//! `G` and re-inserts probed objects into `G`. Read literally, popping a
//! probed object from `G` into the result can race ahead of a closer
//! candidate still waiting in the main queue `H`. We implement the
//! mechanism with the same bounds and the same probe-saving behaviour, but
//! route probed objects through `H` (where exact distances compete with
//! every remaining lower bound) and confirm deferred entries only through
//! the sound dominance test `d⁺(U) < d⁻(E)` of §3.3 or when `H` is
//! exhausted. Both rules preserve the paper's central property: an object
//! is retrieved from disk only when the buffer overflows ("lazy probe
//! makes all the object retrieval mandatory") — and not even then when the
//! probe gate shows the query's own cut rules it out (see above). `G` is
//! kept ordered by lower bound (descending, ties latest-first), so evicting
//! the most promising entry is an O(1) tail pop instead of the linear scan
//! of the original implementation.

use crate::error::QueryError;
use crate::result::{AknnResult, DistBound, Neighbor};
use crate::stats::QueryStats;
use fuzzy_core::metric::Metric;
use fuzzy_core::{FuzzyObject, ObjectId, Threshold};
use fuzzy_geom::{Mbr, Point};
use fuzzy_index::{LeafField, LeafView, MinKey, NodeAccess, NodeId, NodeView};
use fuzzy_store::ObjectStore;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Sample size `n` for §3.4's `Q'_α` (the paper requires `n ≪ |Q_α|`).
const QUERY_SAMPLES: usize = 16;
/// Seed of the deterministic query-point sampling.
const SAMPLE_SEED: u64 = 0x5EED;

/// Optimization switches for the AKNN engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AknnConfig {
    /// §3.2 — use the conservative-line α-cut MBR `M_A(α)*` for `d⁻_α`
    /// instead of the support MBR.
    pub improved_lower_bound: bool,
    /// §3.3 — defer object probes in a buffer of capacity `k − |NN|`.
    pub lazy_probe: bool,
    /// §3.4 — tighten `d⁺_α` with the kernel representative point against
    /// sampled query points.
    pub improved_upper_bound: bool,
    /// Seed every exact α-distance evaluation with the entry's own upper
    /// bound and the running k-th best upper bound, so dominated objects
    /// terminate their descent early. Changes no answers; on by default.
    pub seeded_probes: bool,
    /// Abort the query with [`QueryError::DeadlineExceeded`] once this
    /// instant passes. Checked before every node read and every object
    /// probe — the best-first search's, the lazy-probe evictions', the
    /// reads that make a bound-confirmed neighbour exact, RKNN's — and at
    /// every refinement step, so an overdue query stops burning its worker
    /// within one unit of work instead of running to completion.
    /// `None` (the default) never expires. The deadline changes which
    /// queries *finish*, never the answers of those that do.
    pub deadline: Option<Instant>,
}

impl Default for AknnConfig {
    fn default() -> Self {
        Self::lb_lp_ub()
    }
}

impl AknnConfig {
    /// The unoptimized Algorithm 1.
    pub fn basic() -> Self {
        Self {
            improved_lower_bound: false,
            lazy_probe: false,
            improved_upper_bound: false,
            seeded_probes: true,
            deadline: None,
        }
    }

    /// Improved lower bound only.
    pub fn lb() -> Self {
        Self { improved_lower_bound: true, ..Self::basic() }
    }

    /// Improved lower bound + lazy probe.
    pub fn lb_lp() -> Self {
        Self { lazy_probe: true, ..Self::lb() }
    }

    /// All optimizations (the paper's best variant).
    pub fn lb_lp_ub() -> Self {
        Self { improved_upper_bound: true, ..Self::lb_lp() }
    }

    /// This configuration with probe seeding disabled (every probe runs an
    /// unbounded evaluation, as in the original implementation). Used by
    /// the equivalence tests; answers are identical either way.
    pub fn unseeded(self) -> Self {
        Self { seeded_probes: false, ..self }
    }

    /// This configuration with a deadline: the query aborts with
    /// [`QueryError::DeadlineExceeded`] at the first expansion point past
    /// `deadline`. The server derives one from each request's
    /// `deadline_ms`; `None` clears it.
    pub fn with_deadline(self, deadline: Option<Instant>) -> Self {
        Self { deadline, ..self }
    }

    /// Human-readable variant name matching the paper's figures.
    pub fn variant_name(&self) -> &'static str {
        match (self.improved_lower_bound, self.lazy_probe, self.improved_upper_bound) {
            (false, false, false) => "Basic",
            (true, false, false) => "LB",
            (true, true, false) => "LB-LP",
            (true, true, true) => "LB-LP-UB",
            _ => "custom",
        }
    }

    /// All four paper variants, in presentation order.
    pub fn paper_variants() -> [AknnConfig; 4] {
        [Self::basic(), Self::lb(), Self::lb_lp(), Self::lb_lp_ub()]
    }
}

/// One confirmed neighbour with the probed object when available (RKNN
/// refinement needs the object to build distance profiles).
pub struct FoundNeighbor<const D: usize> {
    /// The object.
    pub id: ObjectId,
    /// What is known about its α-distance.
    pub dist: DistBound,
    /// The exact **squared** α-distance as the metric's kernel returned it,
    /// whenever `dist` is [`DistBound::Exact`]: RKNN hands it to the
    /// windowed profile, which would otherwise evaluate it a second time
    /// (`dist` holds its `sqrt` and cannot be squared back bit for bit).
    pub dist_sq: Option<f64>,
    /// The decoded object, when the search probed it.
    pub object: Option<Arc<FuzzyObject<D>>>,
}

/// An object a search decoded: its id, its exact **squared** α-distance
/// when the kernel returned one (`None`: the τ seed cut the kernel off),
/// and the object.
pub(crate) type Decoded<const D: usize> = (ObjectId, Option<f64>, Arc<FuzzyObject<D>>);

/// What one top-k search found and what it cost — what the engine and the
/// RKNN algorithms get back from the best-first search. [`AknnResult`] is
/// this with the decoded objects dropped.
pub struct SearchOutcome<const D: usize> {
    /// The confirmed neighbours.
    pub neighbors: Vec<FoundNeighbor<D>>,
    /// Execution costs of the search.
    pub stats: QueryStats,
    /// Under `reuse`, every object the search decoded and did not return,
    /// ascending in id — RSS takes its outsiders from here before it reads
    /// the store. Empty otherwise.
    pub(crate) others: Vec<Decoded<D>>,
}

impl<const D: usize> From<SearchOutcome<D>> for AknnResult {
    fn from(outcome: SearchOutcome<D>) -> Self {
        AknnResult {
            neighbors: outcome
                .neighbors
                .into_iter()
                .map(|n| Neighbor { id: n.id, dist: n.dist })
                .collect(),
            stats: outcome.stats,
        }
    }
}

/// A heap item: 8 bytes, so a keyed item is 16.
enum Item {
    Node(NodeId),
    /// Index into the per-query entry arena ([`QueryScratch::entries`]).
    Entry(u32),
    /// Index into the probed-object arena ([`QueryScratch::probed`]); the
    /// item's key is the object's exact **squared** α-distance.
    Object(u32),
}

const _: () = assert!(std::mem::size_of::<MinKey<Item>>() == 16);
const _: () = assert!(std::mem::size_of::<EntrySlot<2>>() == 88);

/// What the search keeps of a leaf entry, one arena slot per entry: its
/// id, the rectangle its bounds are measured against (the Eq. 2
/// approximate cut MBR under `LB`, otherwise the support MBR) — computed
/// once, shared by `d⁻` and `d⁺` — its kernel representative point for the
/// §3.4 bound, and its support MBR, which the probe gate tests the query's
/// cut against before the entry is read (module docs, "Probe gate": why not
/// the Eq. 2 box). 88 bytes at `D = 2`.
#[derive(Clone, Copy, Debug)]
pub struct EntrySlot<const D: usize> {
    /// The entry's object id.
    pub id: ObjectId,
    /// The bound rectangle's lower corner.
    pub lo: [f64; D],
    /// The bound rectangle's upper corner.
    pub hi: [f64; D],
    /// The kernel representative point.
    pub rep: [f64; D],
    /// The support MBR's lower corner: the least coordinate of every point.
    pub support_lo: [f64; D],
    /// The support MBR's upper corner.
    pub support_hi: [f64; D],
}

impl<const D: usize> EntrySlot<D> {
    /// The bound rectangle.
    #[inline]
    pub fn bound_mbr(&self) -> Mbr<D> {
        Mbr::new(self.lo, self.hi)
    }
}

/// Bound a leaf in one pass over its columns: append one [`EntrySlot`]
/// per slot of `leaf` — hidden slots too, so arena slot `base + j` is leaf
/// slot `j` — and return `base`. Under `Some(t)` the bound box is Eq. 2's
/// approximate cut MBR, bit for bit what
/// [`fuzzy_core::ObjectSummary::approx_cut_mbr`] computes; under `None` it
/// is the support MBR (the Basic variant). The support MBR is kept beside
/// it either way. Each column is swept once, in slot order; no summary is
/// assembled.
pub fn append_slots<const D: usize>(
    leaf: &LeafView<'_, D>,
    t: Option<Threshold>,
    slots: &mut Vec<EntrySlot<D>>,
) -> usize {
    let base = slots.len();
    let zero = [0.0; D];
    let blank = EntrySlot {
        id: ObjectId(0),
        lo: zero,
        hi: zero,
        rep: zero,
        support_lo: zero,
        support_hi: zero,
    };
    slots.resize(base + leaf.slots(), blank);
    let new = &mut slots[base..];
    for (slot, id) in new.iter_mut().zip(leaf.ids()) {
        slot.id = id;
    }
    for d in 0..D {
        let col = |field| leaf.column(field, d);
        for (slot, rep) in new.iter_mut().zip(col(LeafField::Rep)) {
            slot.rep[d] = rep;
        }
        let support = col(LeafField::SupportLo).zip(col(LeafField::SupportHi));
        for (slot, (lo, hi)) in new.iter_mut().zip(support) {
            (slot.support_lo[d], slot.support_hi[d]) = (lo, hi);
        }
        let Some(t) = t else {
            for slot in new.iter_mut() {
                (slot.lo[d], slot.hi[d]) = (slot.support_lo[d], slot.support_hi[d]);
            }
            continue;
        };
        // Eq. 2, in `approx_cut_mbr`'s order of operations:
        // M⁺(α)* = min{M⁺(1) + max(m⁺α + t⁺, 0), M⁺(0)}, then at least M⁺(1);
        // M⁻(α)* mirrored.
        let alpha = t.value;
        let upper = col(LeafField::KernelHi).zip(col(LeafField::SupportHi));
        let lines = col(LeafField::UpperM).zip(col(LeafField::UpperT));
        for (slot, ((k, s), (m, c))) in new.iter_mut().zip(upper.zip(lines)) {
            slot.hi[d] = (k + (m * alpha + c).max(0.0)).min(s).max(k);
        }
        let lower = col(LeafField::KernelLo).zip(col(LeafField::SupportLo));
        let lines = col(LeafField::LowerM).zip(col(LeafField::LowerT));
        for (slot, ((k, s), (m, c))) in new.iter_mut().zip(lower.zip(lines)) {
            slot.lo[d] = (k - (m * alpha + c).max(0.0)).max(s).min(k);
        }
    }
    base
}

/// Deferred entry in the lazy-probe buffer `G`: arena index plus squared
/// lower/upper bounds. The buffer is kept **descending** by `lo_sq` with
/// equal bounds ordered latest-first, so the eviction victim — the
/// smallest lower bound, first-inserted among ties — is always the tail
/// element: a true O(1) `Vec::pop`.
struct Deferred {
    entry: u32,
    lo_sq: f64,
    hi_sq: f64,
}

/// Reusable per-query transient state. One instance per worker (or per
/// call) keeps the search's own bookkeeping off the allocator: the heap,
/// the lazy-probe buffer, the entry arena, the query-sample index list and
/// points, and the seeding bookkeeping all retain their capacity across
/// queries. What a query still allocates is the answer `Vec` and the
/// objects the store decodes for it (and, once per query object, the
/// views the kernel caches on it).
///
/// Obtain one with [`QueryScratch::new`] and pass it to the
/// `*_with_scratch` engine entry points; the convenience entry points
/// allocate a fresh one per call.
pub struct QueryScratch<const D: usize> {
    heap: BinaryHeap<MinKey<Item>>,
    buffer: Vec<Deferred>,
    entries: Vec<EntrySlot<D>>,
    /// Every object probed: in flight or confirmed, by [`Item::Object`]
    /// index, with its exact squared distance; dominated after its read,
    /// with `None`, and only when the search runs with `reuse` (nothing else
    /// reads them).
    probed: Vec<Decoded<D>>,
    sample_idx: Vec<usize>,
    samples: Vec<Point<D>>,
    seeds: SeedTracker,
}

impl<const D: usize> Default for QueryScratch<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> QueryScratch<D> {
    /// Empty scratch; capacity grows with use and is retained.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            buffer: Vec::new(),
            entries: Vec::new(),
            probed: Vec::new(),
            sample_idx: Vec::new(),
            samples: Vec::new(),
            seeds: SeedTracker::default(),
        }
    }

    fn reset(&mut self) {
        self.heap.clear();
        self.buffer.clear();
        self.entries.clear();
        self.probed.clear();
        self.sample_idx.clear();
        self.samples.clear();
        self.seeds.reset();
    }
}

/// Probe-seed bookkeeping: an upper bound (squared) per *live* candidate
/// — buffered entries, probed objects still in flight and confirmed
/// results — whose k-th smallest value is the seed τ. τ is cached:
/// inserting a bound at or above the cached τ cannot change the k-th
/// smallest, so only inserts below it and removals trigger a recompute.
/// This keeps the bookkeeping O(1) amortized per candidate instead of a
/// full selection per probe.
#[derive(Default)]
pub(crate) struct SeedTracker {
    live_ub: HashMap<ObjectId, f64>,
    tau_tmp: Vec<f64>,
    cached_tau: f64,
    dirty: bool,
}

impl SeedTracker {
    pub(crate) fn reset(&mut self) {
        self.live_ub.clear();
        self.tau_tmp.clear();
        self.cached_tau = f64::INFINITY;
        self.dirty = true;
    }

    pub(crate) fn insert(&mut self, id: ObjectId, ub_sq: f64) {
        let old = self.live_ub.insert(id, ub_sq);
        // A new/changed bound below the cached τ (or a replaced bound that
        // was counted) can move the k-th smallest; at-or-above inserts
        // cannot.
        if ub_sq < self.cached_tau || old.is_some_and(|o| o <= self.cached_tau) {
            self.dirty = true;
        }
    }

    pub(crate) fn remove(&mut self, id: &ObjectId) {
        if self.live_ub.remove(id).is_some() {
            self.dirty = true;
        }
    }

    /// The current τ (squared): the k-th smallest live upper bound, or
    /// `+∞` when fewer than `k` candidates are live. Sound because every
    /// tracked bound belongs to a distinct candidate still guaranteed to
    /// reach the result competition.
    pub(crate) fn tau_sq(&mut self, k: usize) -> f64 {
        if self.live_ub.len() < k {
            return f64::INFINITY;
        }
        if self.dirty {
            self.tau_tmp.clear();
            self.tau_tmp.extend(self.live_ub.values().copied());
            let (_, kth, _) = self.tau_tmp.select_nth_unstable_by(k - 1, |a, b| a.total_cmp(b));
            self.cached_tau = *kth;
            self.dirty = false;
        }
        self.cached_tau
    }
}

/// Abort with [`QueryError::DeadlineExceeded`] once `deadline` has passed.
/// Called at expansion points: each node read of the best-first search,
/// each object probe (in [`probe_exact`], which every search probe passes
/// through, and in RKNN's candidate collection), and each critical-
/// probability step of the refinement loops. Those are the units of work
/// between which a traversal can soundly stop, and each is coarse enough
/// (a page decode, a distance evaluation) that the `Instant::now()` call
/// is noise.
#[inline]
pub(crate) fn check_deadline(deadline: Option<Instant>) -> Result<(), QueryError> {
    match deadline {
        Some(d) if Instant::now() >= d => Err(QueryError::DeadlineExceeded),
        _ => Ok(()),
    }
}

/// Inflate a squared upper bound by a few ulps so that seeding an exact
/// evaluation with an object's *own* conservative bound can never lose the
/// witness pair to floating-point rounding (the kernel's pruning compare
/// is strict).
#[inline]
pub(crate) fn inflate_sq(hi_sq: f64) -> f64 {
    hi_sq * (1.0 + 1e-12) + f64::MIN_POSITIVE
}

/// What a probe learned about an object.
pub(crate) enum Probed<const D: usize> {
    /// Exact **squared** α-distance and the decoded object.
    Exact(f64, Arc<FuzzyObject<D>>),
    /// The probe was cut off by the τ seed: at least `k` live candidates
    /// are no farther, so the object cannot enter the result. The decoded
    /// object, or `None` when the probe gate ruled it out before the read.
    Dominated(Option<Arc<FuzzyObject<D>>>),
}

/// The probe gate's test (module docs, "Probe gate"): does a point of `q`'s
/// cut under `t` have a squared gap ([`Point::dist_sq_to_box`]) to the box
/// `[lo, hi]` strictly below `cap_sq`? Once the kernel has built `q`'s
/// kd-tree it answers with the tree's capped box search; until then with one
/// pass over the cut, in whichever view `q` already holds. It builds
/// nothing, and every path gives the same answer. RSS's range scan asks it
/// too, at `αs` with its radius as the cap.
pub(crate) fn cut_reaches_box<const D: usize>(
    q: &FuzzyObject<D>,
    t: Threshold,
    (lo, hi): (&[f64; D], &[f64; D]),
    cap_sq: f64,
) -> bool {
    if q.kd_tree_ready() {
        return q.kd_tree().any_within_box_sq(lo, hi, t.filter(), cap_sq);
    }
    let within = |p: Point<D>| p.dist_sq_to_box(lo, hi) < cap_sq;
    if q.prefix_ready() {
        let pb = q.by_membership();
        let column = |j| Point::new(std::array::from_fn(|d| pb.coord_column(d)[j]));
        return (0..pb.prefix_len(t)).map(column).any(within);
    }
    q.iter().filter(|&(_, mu)| t.accepts(mu)).map(|(p, _)| *p).any(within)
}

/// Retrieve one object and evaluate its exact α-distance, charging the
/// stats — first checking `deadline`, so no probe starts past it.
/// `own_hi_sq` is the entry's own (inflated) upper bound when known
/// and `tau_sq` the current k-th best upper bound — their minimum seeds
/// the evaluation. τ is inflated by a few ulps before use, so a `None`
/// under the τ seed implies the distance is **strictly** greater than τ:
/// domination can never discard a candidate that exactly ties the k-th
/// distance, and seeded answers match unseeded ones even on ties (e.g.
/// duplicated objects). This single function serves the eager path, the
/// lazy-probe eviction and [`exact_neighbor`] (the latter passes `+∞` for
/// τ), so the probe accounting cannot diverge between them.
///
/// `support` is the entry's support MBR, passed by the search's own probes.
/// When the kernel's `None` would mean dominated — τ finite and the τ seed
/// the binding one — the probe gate runs first: one `bound_evals`, and if no
/// point of `q`'s cut lies within the τ seed of the box, the object is
/// dominated without a read, a kernel call or a charge to `object_accesses`
/// or `distance_evals`, and one `prunes.probe_gate` is charged (module docs,
/// "Probe gate": why that is the kernel's verdict bit for bit).
#[allow(clippy::too_many_arguments)]
pub(crate) fn probe_exact<M: Metric<D> + ?Sized, S: ObjectStore<D>, const D: usize>(
    metric: &M,
    store: &S,
    q: &FuzzyObject<D>,
    t: Threshold,
    id: ObjectId,
    (own_hi_sq, tau_sq): (f64, f64),
    support: Option<(&[f64; D], &[f64; D])>,
    deadline: Option<Instant>,
    stats: &mut QueryStats,
) -> Result<Probed<D>, QueryError> {
    check_deadline(deadline)?;
    let tau_eff = if tau_sq.is_finite() { inflate_sq(tau_sq) } else { f64::INFINITY };
    let tau_binds = tau_eff <= own_hi_sq && tau_eff.is_finite();
    if let (true, Some(support)) = (tau_binds, support) {
        stats.bound_evals += 1;
        if !cut_reaches_box(q, t, support, tau_eff) {
            stats.prunes.probe_gate += 1;
            return Ok(Probed::Dominated(None));
        }
    }
    let probe = store.probe_traced(id)?;
    let obj = probe.object;
    stats.object_accesses += probe.disk_read as u64;
    stats.distance_evals += 1;
    let seed_sq = own_hi_sq.min(tau_eff);
    match metric.alpha_distance_sq_bounded(&obj, q, t, seed_sq) {
        Some(d_sq) => Ok(Probed::Exact(d_sq, obj)),
        None if tau_binds => Ok(Probed::Dominated(Some(obj))),
        None => {
            // The object's own conservative bound failed by an ulp (only
            // possible through floating-point degeneracies, or because no
            // seed was available and the cut is empty). Fall back to the
            // unbounded evaluation; still one probe, one evaluation.
            let d_sq = metric.alpha_distance_sq_bounded(&obj, q, t, f64::INFINITY).expect(
                "object cut cannot be empty: kernels are non-empty and the query threshold \
                 admits the kernel",
            );
            Ok(Probed::Exact(d_sq, obj))
        }
    }
}

/// Make one bound-confirmed neighbour exact: probe it, seeded with its own
/// inflated bound `inflate_sq(hi²)` (`+∞` unseeded) and no τ, so it is never
/// dominated, and attach the kernel's squared distance and the object. An
/// exact neighbour is left as it is. The canonical exact AKNN and Basic
/// RKNN call this for every neighbour the search returns, in confirmation
/// order; RSS only where `r`, a settle test or a window needs the read. Debug
/// builds assert `sqrt(d²) ≤ hi`, which RSS's unread neighbours rest on
/// (the argument is in the `rknn` module docs).
pub(crate) fn exact_neighbor<M: Metric<D>, S: ObjectStore<D>, const D: usize>(
    metric: &M,
    store: &S,
    q: &FuzzyObject<D>,
    t: Threshold,
    cfg: &AknnConfig,
    n: &mut FoundNeighbor<D>,
    stats: &mut QueryStats,
) -> Result<(), QueryError> {
    let DistBound::Bounded { hi, .. } = n.dist else { return Ok(()) };
    let own_hi_sq = if cfg.seeded_probes { inflate_sq(hi * hi) } else { f64::INFINITY };
    let bounds = (own_hi_sq, f64::INFINITY);
    match probe_exact(metric, store, q, t, n.id, bounds, None, cfg.deadline, stats)? {
        Probed::Exact(d_sq, obj) => {
            debug_assert!(d_sq.sqrt() <= hi, "{}: d⁺ {hi} below its distance", n.id);
            n.dist = DistBound::Exact(d_sq.sqrt());
            n.dist_sq = Some(d_sq);
            n.object = Some(obj);
        }
        Probed::Dominated(_) => unreachable!("a probe without τ cannot be dominated"),
    }
    Ok(())
}

/// Core best-first search (the paper's Algorithm 1/2), generic over the
/// index backend: confirm `k` neighbours, exact or bound-confirmed
/// ([`DistBound::Bounded`]), in confirmation order. An exact neighbour
/// carries its kernel distance and decoded object; a bound-confirmed one
/// was never read, and [`exact_neighbor`] reads it when a caller needs it.
/// With `reuse`, every object the search decoded and did not return —
/// dominated probes included, gated ones never decoded — comes back in
/// [`SearchOutcome::others`] for RSS to reuse.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search<M: Metric<D>, A: NodeAccess<D>, S: ObjectStore<D>, const D: usize>(
    metric: &M,
    tree: &A,
    store: &S,
    q: &FuzzyObject<D>,
    k: usize,
    t: Threshold,
    cfg: &AknnConfig,
    reuse: bool,
    scratch: &mut QueryScratch<D>,
) -> Result<SearchOutcome<D>, QueryError> {
    if k == 0 {
        return Err(QueryError::ZeroK);
    }
    let start = Instant::now();
    let mut stats = QueryStats::default();

    scratch.reset();
    let QueryScratch { heap, buffer, entries, probed, sample_idx, samples, seeds } = scratch;

    let q_cut = q.cut_mbr(t).ok_or(QueryError::EmptyQueryCut)?;
    if cfg.improved_upper_bound {
        q.sample_cut_indices_into(t, QUERY_SAMPLES, SAMPLE_SEED, sample_idx);
        samples.extend(sample_idx.iter().map(|&i| *q.point(i)));
    }

    // Squared upper bound of an arena entry (`d⁺` of §3.3/§3.4). The §3.4
    // bound is the least squared metric distance from `rep(A)` to a sampled
    // query point: sound for every α, as `rep(A)` is a kernel point and the
    // samples come from the query's cut (Lemma 1 needs only the metric
    // axioms).
    let entry_hi_sq = |slot: &EntrySlot<D>| -> f64 {
        let geo = metric.max_box_dist_sq(&slot.bound_mbr(), &q_cut);
        if cfg.improved_upper_bound {
            let rep = Point::new(slot.rep);
            geo.min(samples.iter().map(|q| metric.dist_sq(&rep, q)).fold(f64::INFINITY, f64::min))
        } else {
            geo
        }
    };
    let bound_t = cfg.improved_lower_bound.then_some(t);

    heap.push(MinKey {
        key: metric.min_box_dist_sq(&tree.root_mbr(), &q_cut),
        item: Item::Node(tree.root_id()),
    });
    let mut out: Vec<FoundNeighbor<D>> = Vec::with_capacity(k);

    // Costs are charged to the query-local `stats` (never read back from
    // the shared store/tree counters), so concurrent queries over one
    // engine cannot pollute each other's numbers.
    while out.len() < k {
        let Some(MinKey { key, item }) = heap.pop() else {
            // H exhausted: everything still deferred is confirmed
            // (|G| ≤ k − |NN| by invariant). Deterministic order: by lower
            // bound, then id.
            buffer.sort_by(|a, b| {
                a.lo_sq
                    .total_cmp(&b.lo_sq)
                    .then(entries[a.entry as usize].id.cmp(&entries[b.entry as usize].id))
            });
            for d in buffer.drain(..) {
                out.push(FoundNeighbor {
                    id: entries[d.entry as usize].id,
                    dist: DistBound::Bounded { lo: d.lo_sq.sqrt(), hi: d.hi_sq.sqrt() },
                    dist_sq: None,
                    object: None,
                });
            }
            break;
        };
        match item {
            Item::Node(id) => {
                check_deadline(cfg.deadline)?;
                let read = tree.read_node(id)?;
                stats.node_accesses += 1;
                stats.node_disk_reads += read.disk_read as u64;
                match read.view() {
                    NodeView::Nodes(kids) => {
                        for c in kids {
                            heap.push(MinKey {
                                key: metric.min_box_dist_sq(&c.mbr, &q_cut),
                                item: Item::Node(c.id),
                            });
                        }
                    }
                    NodeView::Entries(leaf) => {
                        let base = append_slots(&leaf, bound_t, entries);
                        for (j, slot) in entries[base..].iter().enumerate() {
                            if !leaf.is_live(j) {
                                continue;
                            }
                            stats.bound_evals += 1;
                            let lo_sq = metric.min_box_dist_sq(&slot.bound_mbr(), &q_cut);
                            let idx = (base + j) as u32;
                            heap.push(MinKey { key: lo_sq, item: Item::Entry(idx) });
                        }
                    }
                }
            }
            Item::Entry(idx) => {
                let slot = &entries[idx as usize];
                let id = slot.id;
                if !cfg.lazy_probe {
                    let tau_sq = if cfg.seeded_probes { seeds.tau_sq(k) } else { f64::INFINITY };
                    let support = Some((&slot.support_lo, &slot.support_hi));
                    let bounds = (f64::INFINITY, tau_sq);
                    match probe_exact(
                        metric,
                        store,
                        q,
                        t,
                        id,
                        bounds,
                        support,
                        cfg.deadline,
                        &mut stats,
                    )? {
                        Probed::Exact(d_sq, obj) => {
                            if cfg.seeded_probes {
                                seeds.insert(id, d_sq);
                            }
                            let item = Item::Object(probed.len() as u32);
                            probed.push((id, Some(d_sq), obj));
                            heap.push(MinKey { key: d_sq, item });
                        }
                        Probed::Dominated(Some(obj)) if reuse => probed.push((id, None, obj)),
                        Probed::Dominated(_) => {}
                    }
                } else {
                    // §3.3: any buffered U with d⁺(U) < d⁻(E) is dominated
                    // by everything left in H and fits in the remaining
                    // slots together with the rest of G — confirm without
                    // probing.
                    let mut i = 0;
                    while i < buffer.len() && out.len() < k {
                        if buffer[i].hi_sq < key {
                            let u = buffer.remove(i);
                            out.push(FoundNeighbor {
                                id: entries[u.entry as usize].id,
                                dist: DistBound::Bounded { lo: u.lo_sq.sqrt(), hi: u.hi_sq.sqrt() },
                                dist_sq: None,
                                object: None,
                            });
                        } else {
                            i += 1;
                        }
                    }
                    if out.len() >= k {
                        break;
                    }
                    stats.bound_evals += 1;
                    let hi_sq = entry_hi_sq(&entries[idx as usize]);
                    if cfg.seeded_probes {
                        seeds.insert(id, hi_sq);
                    }
                    // Descending order, equal bounds latest-first: later
                    // duplicates land at the head of their equal run, so
                    // the tail pop evicts first-inserted ties first.
                    let pos = buffer.partition_point(|d| d.lo_sq > key);
                    buffer.insert(pos, Deferred { entry: idx, lo_sq: key, hi_sq });
                    while buffer.len() > k - out.len() {
                        evict(
                            heap, buffer, entries, probed, seeds, metric, store, q, t, k, cfg,
                            reuse, &mut stats,
                        )?;
                    }
                }
            }
            Item::Object(at) => {
                let d_sq = key;
                // Make room first: accepting the object shrinks the buffer
                // capacity, and a full buffer might hide a closer candidate.
                while !buffer.is_empty() && buffer.len() > k - out.len() - 1 {
                    evict(
                        heap, buffer, entries, probed, seeds, metric, store, q, t, k, cfg, reuse,
                        &mut stats,
                    )?;
                }
                // Eviction may have pushed a closer object into H; re-check.
                if heap.peek().is_some_and(|top| top.key < d_sq) {
                    heap.push(MinKey { key: d_sq, item: Item::Object(at) });
                    continue;
                }
                let (id, _, obj) = &probed[at as usize];
                out.push(FoundNeighbor {
                    id: *id,
                    dist: DistBound::Exact(d_sq.sqrt()),
                    dist_sq: Some(d_sq),
                    object: Some(Arc::clone(obj)),
                });
            }
        }
    }

    let mut others = Vec::new();
    if reuse {
        others.extend(probed.drain(..).filter(|(id, ..)| out.iter().all(|n| n.id != *id)));
        others.sort_unstable_by_key(|&(id, ..)| id);
    }

    // Release per-query state now rather than at the next query: a
    // long-lived worker scratch must not pin the decoded objects held by
    // leftover heap items (capacity is retained, contents dropped).
    heap.clear();
    buffer.clear();
    entries.clear();
    probed.clear();
    sample_idx.clear();
    samples.clear();
    seeds.reset();

    stats.wall = start.elapsed();
    Ok(SearchOutcome { neighbors: out, stats, others })
}

/// Evict the most promising deferred entry (the buffer tail, since `G` is
/// kept descending by lower bound): probe it and let its exact distance
/// compete in H. A probe dominated under the τ seed is discarded — its
/// live-bound entry was removed *before* τ was computed, so τ counts `k`
/// other candidates — and its object, if it was read, kept only under
/// `reuse`.
#[allow(clippy::too_many_arguments)]
fn evict<M: Metric<D>, S: ObjectStore<D>, const D: usize>(
    heap: &mut BinaryHeap<MinKey<Item>>,
    buffer: &mut Vec<Deferred>,
    entries: &[EntrySlot<D>],
    probed: &mut Vec<Decoded<D>>,
    seeds: &mut SeedTracker,
    metric: &M,
    store: &S,
    q: &FuzzyObject<D>,
    t: Threshold,
    k: usize,
    cfg: &AknnConfig,
    reuse: bool,
    stats: &mut QueryStats,
) -> Result<(), QueryError> {
    let victim = buffer.pop().expect("evict called on a non-empty buffer");
    let slot = &entries[victim.entry as usize];
    let id = slot.id;
    let bounds = if cfg.seeded_probes {
        seeds.remove(&id);
        (inflate_sq(victim.hi_sq), seeds.tau_sq(k))
    } else {
        (f64::INFINITY, f64::INFINITY)
    };
    let support = Some((&slot.support_lo, &slot.support_hi));
    match probe_exact(metric, store, q, t, id, bounds, support, cfg.deadline, stats)? {
        Probed::Exact(d_sq, obj) => {
            if cfg.seeded_probes {
                seeds.insert(id, d_sq);
            }
            heap.push(MinKey { key: d_sq, item: Item::Object(probed.len() as u32) });
            probed.push((id, Some(d_sq), obj));
        }
        Probed::Dominated(Some(obj)) if reuse => probed.push((id, None, obj)),
        Probed::Dominated(_) => {}
    }
    Ok(())
}
