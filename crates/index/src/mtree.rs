//! An M-tree over fuzzy object summaries: the general-metric counterpart
//! of the [`crate::RTree`].
//!
//! The R-tree's pruning machinery scores coordinate rectangles, which is
//! only meaningful for metrics that can bound box-to-box distances (L2
//! overrides [`Metric::min_box_dist_sq`] with the exact `MinDist` of
//! Eq. 1; the generic default is the sound-but-useless `0`). A metric
//! like graph shortest-path distance has no rectangle geometry at all —
//! for those the classic M-tree (Ciaccia, Patella, Zezula, VLDB '97)
//! organizes data by **covering balls** instead: every node carries a
//! *router* point and a *covering radius* `r` such that every object in
//! the subtree lies within distance `r` of the router (measured to the
//! farthest support point, not just the representative). The triangle
//! inequality then gives the node lower bound the best-first search
//! prunes with — see `fuzzy_query::metric_search`.
//!
//! Design choices:
//!
//! * **Deterministic bulk build.** Nodes are packed top-down by a
//!   farthest-first partition of the representative points: the first
//!   item seeds group 0, each further seed is the item maximizing its
//!   minimum distance to the chosen seeds (ties to the lowest input
//!   index), and every item joins its nearest seed (ties to the lowest
//!   seed). No randomness, no insertion-order sensitivity — two builds
//!   over the same objects and metric are identical, which the
//!   determinism suite pins.
//! * **Leaves store [`ObjectSummary`] entries** (same payload as the
//!   R-tree) plus one *spread* per entry: the metric distance from the
//!   entry's representative to its farthest support point. An entry ball
//!   `(rep, spread)` contains the whole object, so entry-level bounds
//!   need no coordinate geometry either.
//! * **Coordinate MBRs are maintained per node anyway**, so the tree
//!   implements [`NodeAccess`] and every rectangle-based query (the L2
//!   AKNN engine, `range_search`) runs against it unchanged —
//!   the M-tree is a strict superset of the R-tree interface, not a
//!   parallel world.
//! * **`.fzmt` persistence** reuses the store's checksummed-header
//!   conventions (`docs/FORMAT.md`): FZMT magic, version, dims, one
//!   FNV-1a checksum over the body. The metric *name* is recorded and
//!   verified on load — an index built under `graph` cannot silently
//!   serve `l2` queries.

use crate::access::{NodeAccess, NodeRead};
use crate::node::{Children, NodeId};
use fuzzy_core::metric::Metric;
use fuzzy_core::{FuzzyObject, ObjectSummary};
use fuzzy_geom::{Mbr, Point};
use fuzzy_store::format::{decode_summary, encode_summary, fnv1a, summary_len, Decoder, Encoder};
use fuzzy_store::{write_atomic, StoreError};
use std::fs;
use std::path::Path;

/// File magic of the persisted M-tree.
pub const MTREE_MAGIC: [u8; 4] = *b"FZMT";
/// `.fzmt` format version understood by this build.
pub const MTREE_VERSION: u16 = 1;

/// Build parameters.
#[derive(Clone, Copy, Debug)]
pub struct MTreeConfig {
    /// Maximum children per internal node / entries per leaf.
    pub fanout: usize,
}

impl Default for MTreeConfig {
    fn default() -> Self {
        Self { fanout: 16 }
    }
}

/// Payload of one M-tree node.
#[derive(Clone, Debug)]
enum MNodeKind<const D: usize> {
    /// Entries with their per-entry spreads (parallel vectors).
    Leaf { entries: Vec<ObjectSummary<D>>, spreads: Vec<f64> },
    /// Child node ids (their balls and rectangles live in the arena).
    Internal { children: Vec<NodeId> },
}

/// One node: the covering ball plus the coordinate rectangle.
#[derive(Clone, Debug)]
struct MNode<const D: usize> {
    router: Point<D>,
    cover_radius: f64,
    mbr: Mbr<D>,
    kind: MNodeKind<D>,
}

/// A metric-space index over fuzzy objects; see the module docs.
#[derive(Clone, Debug)]
pub struct MTree<const D: usize> {
    nodes: Vec<MNode<D>>,
    root: NodeId,
    height: usize,
    len: usize,
    metric_name: String,
    fanout: usize,
}

/// One item of the bulk build: a summary index plus its routing point
/// and the radius of its own ball (entry spread or child cover radius).
struct BuildItem<const D: usize> {
    index: usize,
    rep: Point<D>,
}

impl<const D: usize> MTree<D> {
    /// Bulk-build from objects under `metric`. Deterministic: same
    /// objects + same metric ⇒ identical tree (see module docs).
    pub fn build<M: Metric<D>>(
        metric: &M,
        objects: &[FuzzyObject<D>],
        config: MTreeConfig,
    ) -> Self {
        let fanout = config.fanout.max(2);
        let mut summaries = Vec::with_capacity(objects.len());
        let mut spreads = Vec::with_capacity(objects.len());
        for obj in objects {
            let s = ObjectSummary::from_object(obj);
            let spread =
                obj.points().iter().map(|p| metric.dist(&s.rep, p)).fold(0.0_f64, f64::max);
            summaries.push(s);
            spreads.push(spread);
        }
        let mut tree = Self {
            nodes: Vec::new(),
            root: NodeId(0),
            height: 1,
            len: objects.len(),
            metric_name: metric.name().to_string(),
            fanout,
        };
        if summaries.is_empty() {
            tree.nodes.push(MNode {
                router: Point::origin(),
                cover_radius: 0.0,
                mbr: Mbr::empty(),
                kind: MNodeKind::Leaf { entries: Vec::new(), spreads: Vec::new() },
            });
            return tree;
        }
        let items: Vec<BuildItem<D>> =
            summaries.iter().enumerate().map(|(i, s)| BuildItem { index: i, rep: s.rep }).collect();
        let (root, height) = tree.build_rec(metric, items, &summaries, &spreads);
        tree.root = root;
        tree.height = height;
        tree
    }

    /// Recursive top-down packing; returns (node id, subtree height).
    fn build_rec<M: Metric<D>>(
        &mut self,
        metric: &M,
        items: Vec<BuildItem<D>>,
        summaries: &[ObjectSummary<D>],
        spreads: &[f64],
    ) -> (NodeId, usize) {
        if items.len() <= self.fanout {
            return (self.push_leaf(metric, &items, summaries, spreads), 1);
        }
        let groups = partition(metric, &items, self.fanout);
        let mut child_ids = Vec::with_capacity(groups.len());
        let mut height = 0usize;
        for group in groups {
            let (id, h) = self.build_rec(metric, group, summaries, spreads);
            child_ids.push(id);
            height = height.max(h);
        }
        // Router = first child's router; cover radius bounds every child
        // ball from it (triangle inequality through the child routers).
        let router = self.nodes[child_ids[0].0 as usize].router;
        let mut cover = 0.0_f64;
        let mut mbr = Mbr::empty();
        for &c in &child_ids {
            let child = &self.nodes[c.0 as usize];
            cover = cover.max(metric.dist(&router, &child.router) + child.cover_radius);
            mbr.expand_mbr(&child.mbr);
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(MNode {
            router,
            cover_radius: cover,
            mbr,
            kind: MNodeKind::Internal { children: child_ids },
        });
        (id, height + 1)
    }

    fn push_leaf<M: Metric<D>>(
        &mut self,
        metric: &M,
        items: &[BuildItem<D>],
        summaries: &[ObjectSummary<D>],
        spreads: &[f64],
    ) -> NodeId {
        let router = items[0].rep;
        let mut entries = Vec::with_capacity(items.len());
        let mut entry_spreads = Vec::with_capacity(items.len());
        let mut cover = 0.0_f64;
        let mut mbr = Mbr::empty();
        for item in items {
            let s = summaries[item.index];
            let spread = spreads[item.index];
            cover = cover.max(metric.dist(&router, &s.rep) + spread);
            mbr.expand_mbr(&s.support_mbr);
            entries.push(s);
            entry_spreads.push(spread);
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(MNode {
            router,
            cover_radius: cover,
            mbr,
            kind: MNodeKind::Leaf { entries, spreads: entry_spreads },
        });
        id
    }

    /// Name of the metric the tree was built under.
    pub fn metric_name(&self) -> &str {
        &self.metric_name
    }

    /// Configured fanout.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// The routing point of a node's covering ball.
    pub fn router(&self, id: NodeId) -> &Point<D> {
        &self.nodes[id.0 as usize].router
    }

    /// The node's covering radius: every support point of every object in
    /// the subtree lies within this metric distance of the router.
    pub fn cover_radius(&self, id: NodeId) -> f64 {
        self.nodes[id.0 as usize].cover_radius
    }

    /// Per-entry spreads of a leaf (`None` for internal nodes): entry `i`
    /// of the leaf's summaries lies entirely within `spreads[i]` of its
    /// own representative point.
    pub fn leaf_spreads(&self, id: NodeId) -> Option<&[f64]> {
        match &self.nodes[id.0 as usize].kind {
            MNodeKind::Leaf { spreads, .. } => Some(spreads),
            MNodeKind::Internal { .. } => None,
        }
    }

    /// Checks the covering invariant on every node: child balls (and leaf
    /// entry balls) nest inside their parent ball under `metric`, up to a
    /// relative tolerance for accumulated rounding. Returns the number of
    /// nodes checked.
    pub fn validate<M: Metric<D>>(&self, metric: &M) -> Result<usize, String> {
        const TOL: f64 = 1.0 + 1e-9;
        for (i, node) in self.nodes.iter().enumerate() {
            match &node.kind {
                MNodeKind::Leaf { entries, spreads } => {
                    if entries.len() != spreads.len() {
                        return Err(format!("node {i}: entry/spread length mismatch"));
                    }
                    for (e, &sp) in entries.iter().zip(spreads) {
                        let reach = metric.dist(&node.router, &e.rep) + sp;
                        if reach > node.cover_radius * TOL {
                            return Err(format!(
                                "node {i}: entry {} escapes the ball ({reach} > {})",
                                e.id, node.cover_radius
                            ));
                        }
                    }
                }
                MNodeKind::Internal { children } => {
                    for &c in children {
                        let child = &self.nodes[c.0 as usize];
                        let reach = metric.dist(&node.router, &child.router) + child.cover_radius;
                        if reach > node.cover_radius * TOL {
                            return Err(format!(
                                "node {i}: child {} escapes the ball ({reach} > {})",
                                c.0, node.cover_radius
                            ));
                        }
                    }
                }
            }
        }
        Ok(self.nodes.len())
    }

    /// Persist as a `.fzmt` file (layout in `docs/FORMAT.md`).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let mut body = Encoder::with_capacity(64 + self.nodes.len() * (24 + summary_len(D)));
        let name = self.metric_name.as_bytes();
        body.u32(name.len() as u32);
        body.bytes(name);
        body.u32(self.root.0);
        body.u32(self.height as u32);
        body.u64(self.len as u64);
        body.u32(self.fanout as u32);
        body.u64(self.nodes.len() as u64);
        for node in &self.nodes {
            for &c in node.router.coords() {
                body.f64(c);
            }
            body.f64(node.cover_radius);
            for d in 0..D {
                body.f64(node.mbr.lo(d));
            }
            for d in 0..D {
                body.f64(node.mbr.hi(d));
            }
            match &node.kind {
                MNodeKind::Leaf { entries, spreads } => {
                    body.u16(0);
                    body.u32(entries.len() as u32);
                    for (e, &sp) in entries.iter().zip(spreads) {
                        encode_summary(&mut body, e);
                        body.f64(sp);
                    }
                }
                MNodeKind::Internal { children } => {
                    body.u16(1);
                    body.u32(children.len() as u32);
                    for c in children {
                        body.u32(c.0);
                    }
                }
            }
        }
        let body = body.into_bytes();
        let mut out = Encoder::with_capacity(16 + body.len() + 12);
        out.bytes(&MTREE_MAGIC);
        out.u16(MTREE_VERSION);
        out.u16(D as u16);
        out.u64(0); // reserved
        out.bytes(&body);
        out.u64(fnv1a(&body));
        out.bytes(&MTREE_MAGIC);
        write_atomic(path, |file| Ok(file.write_all(out.as_bytes())?))
    }

    /// The metric name a `.fzmt` file records, after the full envelope
    /// check (magic, version, dimensionality, checksum). Lets a caller
    /// type a metric mismatch *before* committing to a load — the server
    /// uses this to answer a SWAP to a foreign-metric index with a
    /// protocol error instead of a generic open failure.
    pub fn stored_metric_name(path: impl AsRef<Path>) -> Result<String, StoreError> {
        let bytes = fs::read(path)?;
        Ok(Self::open_envelope(&bytes)?.0)
    }

    /// Envelope-check a `.fzmt` image (magic, version, dimensionality,
    /// body checksum) and read the leading metric name; returns it with a
    /// decoder positioned on the rest of the body.
    fn open_envelope(bytes: &[u8]) -> Result<(String, Decoder<'_>), StoreError> {
        let corrupt = |reason: &str| StoreError::Corrupt { reason: reason.to_string() };
        if bytes.len() < 16 + 12 {
            return Err(corrupt("fzmt file shorter than header + trailer"));
        }
        if bytes[..4] != MTREE_MAGIC || bytes[bytes.len() - 4..] != MTREE_MAGIC {
            return Err(corrupt("bad fzmt magic"));
        }
        let mut head = Decoder::new(&bytes[4..16]);
        let version = head.u16()?;
        if version != MTREE_VERSION {
            return Err(StoreError::VersionMismatch { found: version, expected: MTREE_VERSION });
        }
        let dims = head.u16()?;
        if dims as usize != D {
            return Err(StoreError::DimensionMismatch { found: dims, expected: D as u16 });
        }
        let body = &bytes[16..bytes.len() - 12];
        let mut tail = Decoder::new(&bytes[bytes.len() - 12..bytes.len() - 4]);
        if tail.u64()? != fnv1a(body) {
            return Err(corrupt("fzmt body checksum mismatch"));
        }
        let mut d = Decoder::new(body);
        let name_len = d.u32()? as usize;
        let name = std::str::from_utf8(d.bytes(name_len)?)
            .map_err(|_| corrupt("metric name is not utf-8"))?
            .to_string();
        Ok((name, d))
    }

    /// Load a `.fzmt` file, verifying magic, version, dimensionality,
    /// checksum and that it was built under `metric` (by name).
    pub fn load<M: Metric<D>>(path: impl AsRef<Path>, metric: &M) -> Result<Self, StoreError> {
        let bytes = fs::read(path)?;
        let corrupt = |reason: &str| StoreError::Corrupt { reason: reason.to_string() };
        let (name, mut d) = Self::open_envelope(&bytes)?;
        if name != metric.name() {
            return Err(StoreError::Corrupt {
                reason: format!(
                    "metric mismatch: index built under '{name}', opened under '{}'",
                    metric.name()
                ),
            });
        }
        let root = NodeId(d.u32()?);
        let height = d.u32()? as usize;
        let len = d.u64()? as usize;
        let fanout = d.u32()? as usize;
        let node_count = d.u64()? as usize;
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let mut coords = [0.0_f64; D];
            for c in coords.iter_mut() {
                *c = d.f64()?;
            }
            let router = Point::new(coords);
            let cover_radius = d.f64()?;
            let mut lo = [0.0_f64; D];
            let mut hi = [0.0_f64; D];
            for v in lo.iter_mut() {
                *v = d.f64()?;
            }
            for v in hi.iter_mut() {
                *v = d.f64()?;
            }
            let mbr = Mbr::new(lo, hi);
            let kind = match d.u16()? {
                0 => {
                    let n = d.u32()? as usize;
                    let mut entries = Vec::with_capacity(n);
                    let mut spreads = Vec::with_capacity(n);
                    for _ in 0..n {
                        entries.push(decode_summary(&mut d)?);
                        spreads.push(d.f64()?);
                    }
                    MNodeKind::Leaf { entries, spreads }
                }
                1 => {
                    let n = d.u32()? as usize;
                    let mut children = Vec::with_capacity(n);
                    for _ in 0..n {
                        let c = d.u32()?;
                        if c as usize >= node_count {
                            return Err(corrupt("child id out of range"));
                        }
                        children.push(NodeId(c));
                    }
                    MNodeKind::Internal { children }
                }
                _ => return Err(corrupt("unknown fzmt node kind")),
            };
            nodes.push(MNode { router, cover_radius, mbr, kind });
        }
        if root.0 as usize >= nodes.len() {
            return Err(corrupt("root id out of range"));
        }
        Ok(Self { nodes, root, height, len, metric_name: name, fanout })
    }
}

impl<const D: usize> NodeAccess<D> for MTree<D> {
    fn root_id(&self) -> NodeId {
        self.root
    }

    fn root_mbr(&self) -> Mbr<D> {
        self.nodes[self.root.0 as usize].mbr
    }

    fn read_node(&self, id: NodeId) -> Result<NodeRead<'_, D>, StoreError> {
        let node = &self.nodes[id.0 as usize];
        let children = match &node.kind {
            MNodeKind::Leaf { entries, .. } => Children::Entries(entries),
            MNodeKind::Internal { children } => Children::Nodes(children),
        };
        Ok(NodeRead::from_memory(children, |c| self.nodes[c.0 as usize].mbr))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn height(&self) -> usize {
        self.height
    }
}

/// Farthest-first partition of `items` into at most `fanout` groups (at
/// least 2 — callers only partition oversized sets). Fully deterministic;
/// every tie breaks toward the lowest input position.
fn partition<M: Metric<D>, const D: usize>(
    metric: &M,
    items: &[BuildItem<D>],
    fanout: usize,
) -> Vec<Vec<BuildItem<D>>> {
    let groups = fanout.min(items.len().div_ceil(fanout)).max(2);
    // Seed selection: position 0, then iteratively the item farthest from
    // its nearest chosen seed (strict > keeps the lowest position on ties).
    let mut seed_pos = Vec::with_capacity(groups);
    seed_pos.push(0usize);
    let mut min_dist: Vec<f64> =
        items.iter().map(|it| metric.dist(&items[0].rep, &it.rep)).collect();
    while seed_pos.len() < groups {
        let mut best = usize::MAX;
        let mut best_d = f64::NEG_INFINITY;
        for (pos, &d) in min_dist.iter().enumerate() {
            if !seed_pos.contains(&pos) && d > best_d {
                best = pos;
                best_d = d;
            }
        }
        if best == usize::MAX {
            break; // fewer distinct items than groups
        }
        seed_pos.push(best);
        for (pos, d) in min_dist.iter_mut().enumerate() {
            let nd = metric.dist(&items[best].rep, &items[pos].rep);
            if nd < *d {
                *d = nd;
            }
        }
    }
    // Assignment: nearest seed, ties to the lowest seed index. Seed items
    // are pinned to their own groups — under a metric with many co-located
    // points (graph distance between objects on one vertex is 0) a plain
    // nearest-seed rule would merge tied seeds into group 0, and in the
    // degenerate all-identical case make no progress at all. Pinning
    // guarantees every group is non-empty, so each recursive subproblem
    // is strictly smaller and the build terminates.
    let mut out: Vec<Vec<BuildItem<D>>> = (0..seed_pos.len()).map(|_| Vec::new()).collect();
    for (pos, item) in items.iter().enumerate() {
        let carried = BuildItem { index: item.index, rep: items[pos].rep };
        if let Some(g) = seed_pos.iter().position(|&sp| sp == pos) {
            out[g].push(carried);
            continue;
        }
        let mut best_g = 0usize;
        let mut best_d = f64::INFINITY;
        for (g, &sp) in seed_pos.iter().enumerate() {
            let d = metric.dist(&items[sp].rep, &item.rep);
            if d < best_d {
                best_g = g;
                best_d = d;
            }
        }
        out[best_g].push(carried);
    }
    out.retain(|g| !g.is_empty());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy_core::metric::L2;
    use fuzzy_core::ObjectId;

    fn blob(id: u64, cx: f64, cy: f64) -> FuzzyObject<2> {
        let mut pts = Vec::new();
        let mut mus = Vec::new();
        let mut s = id.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        pts.push(Point::new([cx, cy]));
        mus.push(1.0);
        for _ in 0..15 {
            pts.push(Point::new([cx + rng() * 2.0 - 1.0, cy + rng() * 2.0 - 1.0]));
            mus.push(0.1 + rng() * 0.9);
        }
        FuzzyObject::new(ObjectId(id), pts, mus).unwrap()
    }

    fn dataset(n: u64) -> Vec<FuzzyObject<2>> {
        (0..n).map(|i| blob(i, (i % 10) as f64 * 3.0, (i / 10) as f64 * 3.0)).collect()
    }

    #[test]
    fn build_covers_every_object_and_is_deterministic() {
        let objects = dataset(100);
        let t1 = MTree::build(&L2, &objects, MTreeConfig::default());
        let t2 = MTree::build(&L2, &objects, MTreeConfig::default());
        assert_eq!(t1.len, 100);
        assert!(t1.height >= 2);
        assert_eq!(t1.validate(&L2), Ok(t1.nodes.len()));
        // Bit-identical rebuild.
        assert_eq!(t1.nodes.len(), t2.nodes.len());
        for (a, b) in t1.nodes.iter().zip(&t2.nodes) {
            assert_eq!(a.router, b.router);
            assert_eq!(a.cover_radius.to_bits(), b.cover_radius.to_bits());
        }
    }

    #[test]
    fn node_access_entries_partition_the_dataset() {
        let objects = dataset(64);
        let tree = MTree::build(&L2, &objects, MTreeConfig { fanout: 4 });
        let mut seen = Vec::new();
        let mut stack = vec![tree.root_id()];
        while let Some(id) = stack.pop() {
            match tree.read_node(id).unwrap().view() {
                crate::access::NodeView::Nodes(kids) => {
                    stack.extend(kids.iter().map(|c| c.id));
                }
                crate::access::NodeView::Entries(entries) => {
                    seen.extend(entries.iter().map(|e| e.id.0));
                }
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn save_load_roundtrip_is_bitwise() {
        let objects = dataset(40);
        let tree = MTree::build(&L2, &objects, MTreeConfig::default());
        let dir = std::env::temp_dir().join("fzmt_roundtrip_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.fzmt");
        tree.save(&path).unwrap();
        let back = MTree::<2>::load(&path, &L2).unwrap();
        assert_eq!(back.len, tree.len);
        assert_eq!(back.height, tree.height);
        assert_eq!(back.nodes.len(), tree.nodes.len());
        for (a, b) in tree.nodes.iter().zip(&back.nodes) {
            assert_eq!(a.router, b.router);
            assert_eq!(a.cover_radius.to_bits(), b.cover_radius.to_bits());
            assert_eq!(a.mbr, b.mbr);
        }
        // Wrong-metric open is rejected.
        struct FakeMetric;
        impl Metric<2> for FakeMetric {
            fn name(&self) -> &'static str {
                "fake"
            }
            fn dist(&self, a: &Point<2>, b: &Point<2>) -> f64 {
                a.dist(b)
            }
        }
        assert!(matches!(MTree::<2>::load(&path, &FakeMetric), Err(StoreError::Corrupt { .. })));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_file_is_rejected() {
        let objects = dataset(10);
        let tree = MTree::build(&L2, &objects, MTreeConfig::default());
        let dir = std::env::temp_dir().join("fzmt_corrupt_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.fzmt");
        tree.save(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(MTree::<2>::load(&path, &L2), Err(StoreError::Corrupt { .. })));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn identical_representatives_terminate() {
        // Every rep at the same point: all pairwise distances are 0, the
        // worst case for farthest-first seeding. The build must still
        // terminate (seed pinning) and cover everything.
        let objects: Vec<_> = (0..50)
            .map(|i| {
                FuzzyObject::new(ObjectId(i), vec![Point::new([1.0, 2.0])], vec![1.0]).unwrap()
            })
            .collect();
        let tree = MTree::build(&L2, &objects, MTreeConfig { fanout: 4 });
        assert_eq!(NodeAccess::len(&tree), 50);
        assert!(tree.validate(&L2).is_ok());
    }

    #[test]
    fn empty_build_is_valid() {
        let tree = MTree::<2>::build(&L2, &[], MTreeConfig::default());
        assert_eq!(NodeAccess::len(&tree), 0);
        assert!(NodeAccess::is_empty(&tree));
        assert_eq!(tree.validate(&L2), Ok(1));
    }
}
