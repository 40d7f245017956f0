//! The key-sorted STR packing against the comparison sort it replaced.
//!
//! The reference below is the bulk loader as it was before packing sorted
//! keys: every slab stable-sorts the summaries themselves (upper levels:
//! the node rectangles) by centre coordinate with `total_cmp`. Inputs are
//! built to collide — duplicate centres, centres of `+0.0` and `−0.0`,
//! clusters a few ulps wide — at D = 2 and 3 and node capacities 2–64.
//! [`RTree::bulk_load`] must give the reference's tree node by node: the
//! same leaf groups holding the same entries in the same order (the leaf
//! permutation), the same parents, the same rectangles bit for bit, the
//! same node numbering, every page reached once. It is an in-memory image;
//! [`PagedRTree::bulk_write`] must write that tree page for page to a
//! file, at any page size that fits.

use fuzzy_core::{ObjectId, ObjectSummary};
use fuzzy_geom::{ConservativeLine, Mbr, Point};
use fuzzy_index::{NodeAccess, NodeView, PagedRTree, RTree, RTreeConfig};
use std::collections::BTreeMap;

/// The comparison-sort STR tiling: sort by the centre's `dim` coordinate,
/// split into `ceil(P^(1/(D-dim)))` slabs (`P` = number of final groups),
/// recurse on the next dimension; the last dimension chunks sequentially.
fn reference_tile<T: Clone, const D: usize>(
    items: &mut [T],
    dim: usize,
    cap: usize,
    center: &impl Fn(&T) -> Point<D>,
    emit: &mut impl FnMut(&[T]),
) {
    let n = items.len();
    if n <= cap {
        if n > 0 {
            emit(items);
        }
        return;
    }
    if dim + 1 == D {
        items.sort_by(|a, b| center(a)[dim].total_cmp(&center(b)[dim]));
        for (start, end) in even_partition(n, n.div_ceil(cap)) {
            emit(&items[start..end]);
        }
        return;
    }
    items.sort_by(|a, b| center(a)[dim].total_cmp(&center(b)[dim]));
    let groups = n.div_ceil(cap);
    let dims_left = D - dim;
    let slabs = (groups as f64).powf(1.0 / dims_left as f64).ceil() as usize;
    for (start, end) in even_partition(n, slabs.max(1)) {
        reference_tile(&mut items[start..end], dim + 1, cap, center, emit);
    }
}

fn even_partition(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.clamp(1, n.max(1));
    let (base, extra) = (n / parts, n % parts);
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push((start, start + size));
        start += size;
    }
    out
}

/// One node: whether it is a leaf, then its entry ids (leaf) or its
/// children's ids each followed by the child's rectangle bits (internal).
type Shape = (bool, Vec<u64>);

fn mbr_bits<const D: usize>(mbr: &Mbr<D>) -> impl Iterator<Item = u64> + '_ {
    mbr.lo_coords().iter().chain(mbr.hi_coords()).map(|v| v.to_bits())
}

/// The comparison-sort bulk load's tree, node by node in arena order
/// (leaves as tiled, then each upper level, the root last), and the root's
/// rectangle bits.
fn reference_tree<const D: usize>(
    mut entries: Vec<ObjectSummary<D>>,
    cap: usize,
) -> (Vec<Shape>, Vec<u64>) {
    let mut groups: Vec<Vec<ObjectSummary<D>>> = Vec::new();
    let centre = |s: &ObjectSummary<D>| s.support_mbr.center();
    reference_tile(&mut entries, 0, cap, &centre, &mut |g| groups.push(g.to_vec()));
    let mut nodes: Vec<Shape> = Vec::new();
    let mut level: Vec<(u64, Mbr<D>)> = Vec::new();
    for group in &groups {
        let mbr = group.iter().fold(Mbr::empty(), |acc, s| acc.union(&s.support_mbr));
        level.push((nodes.len() as u64, mbr));
        nodes.push((true, group.iter().map(|s| s.id.0).collect()));
    }
    while level.len() > 1 {
        let mut parents = Vec::new();
        reference_tile(&mut level, 0, cap, &|it: &(u64, Mbr<D>)| it.1.center(), &mut |g| {
            parents.push(g.to_vec())
        });
        level = parents
            .into_iter()
            .map(|group| {
                let mbr = group.iter().fold(Mbr::empty(), |acc, it| acc.union(&it.1));
                let words =
                    group.iter().flat_map(|(id, m)| std::iter::once(*id).chain(mbr_bits(m)));
                nodes.push((false, words.collect()));
                (nodes.len() as u64 - 1, mbr)
            })
            .collect();
    }
    (nodes, mbr_bits(&level[0].1).collect())
}

/// Every node of `tree` by node id, and the root's rectangle bits.
fn tree_shapes<const D: usize>(tree: &impl NodeAccess<D>) -> (Vec<Shape>, Vec<u64>) {
    let mut by_id = BTreeMap::new();
    let mut stack = vec![tree.root_id()];
    while let Some(id) = stack.pop() {
        let read = tree.read_node(id).unwrap();
        let shape = match read.view() {
            NodeView::Entries(entries) => (true, entries.iter().map(|s| s.id.0).collect()),
            NodeView::Nodes(children) => {
                stack.extend(children.iter().map(|c| c.id));
                let words = children
                    .iter()
                    .flat_map(|c| std::iter::once(c.id.index() as u64).chain(mbr_bits(&c.mbr)));
                (false, words.collect())
            }
        };
        by_id.insert(id.index(), shape);
    }
    assert_eq!(
        by_id.keys().copied().collect::<Vec<_>>(),
        (0..by_id.len() as u32).collect::<Vec<_>>()
    );
    (by_id.into_values().collect(), mbr_bits(&tree.root_mbr()).collect())
}

/// Summaries whose support centres collide on purpose: per coordinate, a
/// coarse lattice of negative and positive centres (duplicates), a centre
/// of `+0.0` or `−0.0`, or a cluster a few ulps wide.
fn colliding<const D: usize>(n: usize, seed: u64) -> Vec<ObjectSummary<D>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|i| {
            let (mut lo, mut hi) = ([0.0; D], [0.0; D]);
            for dim in 0..D {
                let r = next();
                (lo[dim], hi[dim]) = match r % 4 {
                    0 => {
                        let c = ((r >> 8) % 6) as f64 - 3.0;
                        (c, c + 1.0)
                    }
                    1 => [(-0.0, -0.0), (0.0, 0.0), (-0.5, 0.5)][((r >> 8) % 3) as usize],
                    _ => {
                        let base = ((r >> 8) % 3) as f64 * 10.0;
                        let l = f64::from_bits(base.to_bits() + (r >> 16) % 4);
                        (l, l + 0.25)
                    }
                };
            }
            ObjectSummary {
                id: ObjectId(i as u64),
                support_mbr: Mbr::new(lo, hi),
                kernel_mbr: Mbr::new(lo, lo),
                upper_lines: [ConservativeLine::ZERO; D],
                lower_lines: [ConservativeLine::ZERO; D],
                rep: Point::new(lo),
                point_count: 1,
            }
        })
        .collect()
}

fn key_sort_matches_comparison_sort<const D: usize>() {
    let path = std::env::temp_dir().join(format!("fz-str-diff-{D}-{}.fzpt", std::process::id()));
    for (round, n) in [1usize, 2, 3, 7, 64, 65, 129, 500, 1_000].into_iter().enumerate() {
        let entries = colliding::<D>(n, 17 + round as u64 + 1_000 * D as u64);
        for cap in [2usize, 3, 4, 5, 8, 13, 16, 31, 64] {
            let config = RTreeConfig { max_entries: cap };
            let reference = reference_tree(entries.clone(), cap);
            let tree = RTree::bulk_load(entries.clone(), config);
            assert_eq!(tree_shapes(&tree), reference, "image: n {n}, cap {cap}, D {D}");
            let page_size = 16 + (cap * fuzzy_index::leaf_entry_len(D)).max(256) as u32;
            let paged = PagedRTree::bulk_write(entries.clone(), config, &path, page_size).unwrap();
            assert_eq!(tree_shapes(&paged), reference, "pages: n {n}, cap {cap}, D {D}");
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn key_sorted_str_matches_the_comparison_sort_in_2d() {
    key_sort_matches_comparison_sort::<2>();
}

#[test]
fn key_sorted_str_matches_the_comparison_sort_in_3d() {
    key_sort_matches_comparison_sort::<3>();
}
