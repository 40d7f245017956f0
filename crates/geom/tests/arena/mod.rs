//! An arena-based kd-tree, the differential suite's second layout.
//!
//! [`ArenaKdTree`] is the node-arena implementation that the library's
//! implicit [`KdTree`](fuzzy_geom::KdTree) replaced: explicit `Node`
//! records with child ids, row-major point storage, and per-point scalar
//! distance evaluation. Structure, leaf size (12 vs 16) and traversal shape
//! all differ from the implicit tree, so agreement between the two is
//! strong evidence that neither layout leaks into the answers.
//!
//! Same contracts as the implicit tree: the membership-descending leaf
//! prefix invariant and strictly-closer-than-cap seeding.

use fuzzy_geom::{LevelFilter, Mbr, Point};

const LEAF_SIZE: usize = 12;

#[derive(Clone, Debug)]
enum NodeKind {
    Leaf { start: u32, end: u32 },
    Internal { left: u32, right: u32 },
}

#[derive(Clone, Debug)]
struct Node<const D: usize> {
    mbr: Mbr<D>,
    max_mu: f64,
    kind: NodeKind,
}

/// Bulk-loaded, immutable arena kd-tree over `(point, membership)` pairs.
#[derive(Clone, Debug)]
pub struct ArenaKdTree<const D: usize> {
    pts: Vec<Point<D>>,
    mus: Vec<f64>,
    nodes: Vec<Node<D>>,
    root: u32,
}

impl<const D: usize> ArenaKdTree<D> {
    /// Build a tree from parallel slices of points and memberships.
    ///
    /// # Panics
    /// When the slices differ in length or are empty.
    pub fn build(points: &[Point<D>], memberships: &[f64]) -> Self {
        assert_eq!(points.len(), memberships.len(), "points/memberships length mismatch");
        assert!(!points.is_empty(), "cannot build a kd-tree over no points");
        let n = points.len();
        let mut tree = Self {
            pts: points.to_vec(),
            mus: memberships.to_vec(),
            nodes: Vec::with_capacity(2 * n / LEAF_SIZE + 2),
            root: 0,
        };
        tree.root = tree.build_range(0, n);
        tree
    }

    fn build_range(&mut self, start: usize, end: usize) -> u32 {
        let mbr = Mbr::from_points(self.pts[start..end].iter()).expect("non-empty range");
        let max_mu = self.mus[start..end].iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if end - start <= LEAF_SIZE {
            // Leaf prefix invariant: membership descending, so any level
            // filter selects a contiguous prefix of the leaf.
            let mut idx: Vec<usize> = (start..end).collect();
            idx.sort_by(|&a, &b| self.mus[b].total_cmp(&self.mus[a]));
            self.apply_permutation(start, &idx);
            let id = self.nodes.len() as u32;
            self.nodes.push(Node {
                mbr,
                max_mu,
                kind: NodeKind::Leaf { start: start as u32, end: end as u32 },
            });
            return id;
        }
        // Split on the widest dimension at the median.
        let mut dim = 0;
        let mut widest = -1.0;
        for i in 0..D {
            let e = mbr.extent(i);
            if e > widest {
                widest = e;
                dim = i;
            }
        }
        let mid = start + (end - start) / 2;
        let mut idx: Vec<usize> = (start..end).collect();
        idx.select_nth_unstable_by(mid - start, |&a, &b| {
            self.pts[a][dim].total_cmp(&self.pts[b][dim])
        });
        self.apply_permutation(start, &idx);

        let left = self.build_range(start, mid);
        let right = self.build_range(mid, end);
        let id = self.nodes.len() as u32;
        self.nodes.push(Node { mbr, max_mu, kind: NodeKind::Internal { left, right } });
        id
    }

    /// Reorder `pts` and `mus` in `start..start+idx.len()` so that position
    /// `start + i` holds what was at `idx[i]`.
    fn apply_permutation(&mut self, start: usize, idx: &[usize]) {
        let new_pts: Vec<Point<D>> = idx.iter().map(|&i| self.pts[i]).collect();
        let new_mus: Vec<f64> = idx.iter().map(|&i| self.mus[i]).collect();
        self.pts[start..start + idx.len()].copy_from_slice(&new_pts);
        self.mus[start..start + idx.len()].copy_from_slice(&new_mus);
    }

    /// Seeded nearest distance in **squared** space, identical in contract
    /// to [`KdTree::min_dist_sq_within`](fuzzy_geom::KdTree::min_dist_sq_within):
    /// the smallest squared distance to a point passing `filter`, strictly
    /// below `cap_sq`, or `None`.
    pub fn min_dist_sq_within(
        &self,
        q: &Point<D>,
        filter: LevelFilter,
        cap_sq: f64,
    ) -> Option<f64> {
        let mut best = cap_sq;
        self.nn_rec(self.root, q, filter, &mut best);
        (best < cap_sq).then_some(best)
    }

    fn nn_rec(&self, node_id: u32, q: &Point<D>, filter: LevelFilter, best_sq: &mut f64) {
        let node = &self.nodes[node_id as usize];
        if !filter.accepts(node.max_mu) {
            return;
        }
        if q.dist_sq_to_box(node.mbr.lo_coords(), node.mbr.hi_coords()) >= *best_sq {
            return;
        }
        match node.kind {
            NodeKind::Leaf { start, end } => {
                for i in start as usize..end as usize {
                    // Leaf prefix invariant: memberships descend, so the
                    // first rejection ends the accepted prefix.
                    if !filter.accepts(self.mus[i]) {
                        break;
                    }
                    // NaN fails the comparison and never wins.
                    let d2 = q.dist_sq(&self.pts[i]);
                    if d2 < *best_sq {
                        *best_sq = d2;
                    }
                }
            }
            NodeKind::Internal { left, right } => {
                let dl = q.dist_sq_to_box(
                    self.nodes[left as usize].mbr.lo_coords(),
                    self.nodes[left as usize].mbr.hi_coords(),
                );
                let dr = q.dist_sq_to_box(
                    self.nodes[right as usize].mbr.lo_coords(),
                    self.nodes[right as usize].mbr.hi_coords(),
                );
                let (first, second) = if dl <= dr { (left, right) } else { (right, left) };
                self.nn_rec(first, q, filter, best_sq);
                self.nn_rec(second, q, filter, best_sq);
            }
        }
    }
}

#[test]
fn strict_cap_excludes_equal_distance() {
    let tree = ArenaKdTree::build(&[Point::xy(3.0, 4.0)], &[1.0]);
    assert!(tree.min_dist_sq_within(&Point::origin(), LevelFilter::support(), 25.0).is_none());
    let above = f64::from_bits(25f64.to_bits() + 1);
    assert_eq!(
        tree.min_dist_sq_within(&Point::origin(), LevelFilter::support(), above),
        Some(25.0)
    );
}
