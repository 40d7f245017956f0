//! Structural invariant checking, used by tests and debug assertions.

use crate::access::NodeView;
use crate::node::{NodeId, RTree};
use std::collections::HashSet;
use std::fmt;

/// The fill fraction every non-root node of an STR-packed tree keeps:
/// [`RTree::bulk_load`] sizes its groups evenly instead of leaving a short
/// remainder, so no node holds fewer than `⌊0.4 · C_max⌋` (at least one).
const STR_MIN_FILL: f64 = 0.4;

/// Minimum fanout of a non-root node of a tree with `max_entries` capacity.
fn min_fanout(max_entries: usize) -> usize {
    ((max_entries as f64 * STR_MIN_FILL).floor() as usize).max(1)
}

/// A violated R-tree invariant.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidationError {
    /// A child's MBR is not contained in its parent's.
    ChildNotContained {
        /// Parent node id.
        parent: u32,
        /// Index of the offending child.
        child_index: usize,
    },
    /// A node's MBR is not the tight union of its children.
    LooseMbr {
        /// Node id with the loose MBR.
        node: u32,
    },
    /// A non-root node violates the fanout bounds.
    BadFanout {
        /// Node id.
        node: u32,
        /// Observed fanout.
        fanout: usize,
        /// Allowed range.
        min: usize,
        /// Allowed maximum.
        max: usize,
    },
    /// Leaves are not all at the same depth.
    UnevenDepth {
        /// Depth found.
        found: usize,
        /// Depth expected (height).
        expected: usize,
    },
    /// An entry id occurs in more than one leaf.
    DuplicateEntry {
        /// The duplicated object id.
        id: u64,
    },
    /// `len()` does not match the number of stored entries.
    WrongLen {
        /// Stored entry count.
        stored: usize,
        /// `len()` value.
        reported: usize,
    },
    /// A node is referenced by two parents.
    SharedNode {
        /// The shared node id.
        node: u32,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for ValidationError {}

impl<const D: usize> RTree<D> {
    /// Check every structural invariant; `Ok(())` for a well-formed tree.
    pub fn validate(&self) -> Result<(), ValidationError> {
        let mut seen_nodes: HashSet<u32> = HashSet::new();
        let mut seen_entries: HashSet<u64> = HashSet::new();
        let mut entry_count = 0usize;
        let root = self.root_id();
        self.validate_rec(root, 1, &mut seen_nodes, &mut seen_entries, &mut entry_count)?;
        if entry_count != self.len() {
            return Err(ValidationError::WrongLen { stored: entry_count, reported: self.len() });
        }
        Ok(())
    }

    fn validate_rec(
        &self,
        id: NodeId,
        depth: usize,
        seen_nodes: &mut HashSet<u32>,
        seen_entries: &mut HashSet<u64>,
        entry_count: &mut usize,
    ) -> Result<(), ValidationError> {
        if !seen_nodes.insert(id.0) {
            return Err(ValidationError::SharedNode { node: id.0 });
        }
        let mbr = self.node_mbr(id);
        let is_root = id == self.root_id();
        let max = self.config.max_entries;
        match self.expand(id) {
            NodeView::Entries(entries) => {
                if depth != self.height() {
                    return Err(ValidationError::UnevenDepth {
                        found: depth,
                        expected: self.height(),
                    });
                }
                // Root leaf may hold 0..=max entries; other leaves must
                // respect STR's minimum fill.
                let min = if is_root { 0 } else { min_fanout(max) };
                if entries.len() > max || entries.len() < min {
                    return Err(ValidationError::BadFanout {
                        node: id.0,
                        fanout: entries.len(),
                        min,
                        max,
                    });
                }
                let mut tight = fuzzy_geom::Mbr::empty();
                for (i, e) in entries.iter().enumerate() {
                    if !mbr.contains_mbr(&e.support_mbr) {
                        return Err(ValidationError::ChildNotContained {
                            parent: id.0,
                            child_index: i,
                        });
                    }
                    tight = tight.union(&e.support_mbr);
                    if !seen_entries.insert(e.id.0) {
                        return Err(ValidationError::DuplicateEntry { id: e.id.0 });
                    }
                }
                *entry_count += entries.len();
                if !entries.is_empty() && tight != *mbr {
                    return Err(ValidationError::LooseMbr { node: id.0 });
                }
            }
            NodeView::Nodes(children) => {
                // An internal root needs at least two children; other
                // internal nodes respect STR's minimum fill.
                let min = if is_root { 2 } else { min_fanout(max) };
                if children.len() > max || children.len() < min {
                    return Err(ValidationError::BadFanout {
                        node: id.0,
                        fanout: children.len(),
                        min,
                        max,
                    });
                }
                let mut tight = fuzzy_geom::Mbr::empty();
                for (i, c) in children.iter().enumerate() {
                    let child_mbr = self.node_mbr(c.id);
                    if !mbr.contains_mbr(child_mbr) {
                        return Err(ValidationError::ChildNotContained {
                            parent: id.0,
                            child_index: i,
                        });
                    }
                    tight = tight.union(child_mbr);
                    self.validate_rec(c.id, depth + 1, seen_nodes, seen_entries, entry_count)?;
                }
                if tight != *mbr {
                    return Err(ValidationError::LooseMbr { node: id.0 });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::RTreeConfig;
    use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary};
    use fuzzy_geom::Point;

    fn summary(id: u64, x: f64, y: f64) -> ObjectSummary<2> {
        let obj = FuzzyObject::new(ObjectId(id), vec![Point::xy(x, y)], vec![1.0]).unwrap();
        ObjectSummary::from_object(&obj)
    }

    #[test]
    fn valid_trees_pass() {
        let entries: Vec<_> = (0..200).map(|i| summary(i, i as f64, (i % 7) as f64)).collect();
        let tree = RTree::bulk_load(entries, RTreeConfig { max_entries: 8 });
        tree.validate().unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let entries: Vec<_> = (0..50).map(|i| summary(i, i as f64, 0.0)).collect();
        let mut tree = RTree::bulk_load(entries, RTreeConfig { max_entries: 8 });
        // Shrink the root MBR so children poke out.
        let root = tree.root_id().index() as usize;
        tree.shape.mbrs[root] = fuzzy_geom::Mbr::new([0.0, 0.0], [1.0, 1.0]);
        assert!(tree.validate().is_err());
    }

    #[test]
    fn wrong_len_detected() {
        let entries: Vec<_> = (0..20).map(|i| summary(i, i as f64, 0.0)).collect();
        let mut tree = RTree::bulk_load(entries, RTreeConfig::default());
        // An entry no leaf's run covers.
        tree.entries.push(summary(20, 20.0, 0.0));
        assert_eq!(
            tree.validate().unwrap_err(),
            ValidationError::WrongLen { stored: 20, reported: 21 }
        );
    }
}
