//! The leaf column pass is the per-entry formula, bit for bit.
//!
//! [`append_slots`] bounds a leaf by sweeping its page's columns; the
//! search used to bound each entry of a decoded `Vec<ObjectSummary>` with
//! [`ObjectSummary::approx_cut_mbr`] (the support MBR under Basic). Every
//! box, every `d⁻` under `min_box_dist_sq`, every id and every
//! representative must come out identical to the bit, on random summaries
//! of every shape a page may hold, and a leaf view's `summary(j)` must be
//! the summary written.

use fuzzy_core::metric::{Metric, L2};
use fuzzy_core::{ObjectId, ObjectSummary, Threshold};
use fuzzy_geom::{ConservativeLine, Mbr, Point};
use fuzzy_index::{NodeAccess, NodeView, PagedRTree, RTree, RTreeConfig, DEFAULT_PAGE_SIZE};
use fuzzy_query::append_slots;

/// xorshift64 in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Summaries with every shape a leaf may hold: zero-width and wide
/// boxes; a kernel equal to the support, inside it, or anywhere at all
/// (the load checks only `lo ≤ hi`); zero, negative and positive
/// slopes; negative, zero and positive intercepts, so `m·α + t` is
/// clamped at 0 on some sides and not on others.
fn random_summaries(n: usize, seed: u64) -> Vec<ObjectSummary<2>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut r = move || unit(&mut state);
    (0..n)
        .map(|i| {
            let mut b = |span: f64| {
                let lo = r() * 100.0 - 50.0;
                let width = if r() < 0.2 { 0.0 } else { r() * span };
                (lo, lo + width)
            };
            let support: [(f64, f64); 2] = [b(10.0), b(10.0)];
            let kernel: [(f64, f64); 2] = match i % 3 {
                0 => support,
                1 => support.map(|(lo, hi)| (lo + (hi - lo) * 0.25, hi - (hi - lo) * 0.25)),
                _ => [b(4.0), b(4.0)],
            };
            let mut line = || ConservativeLine {
                m: [0.0, -r() * 3.0, r() * 2.0][(r() * 3.0) as usize],
                t: [-r() * 2.0, 0.0, r() * 2.0][(r() * 3.0) as usize],
            };
            let (upper_lines, lower_lines) = ([line(), line()], [line(), line()]);
            ObjectSummary {
                id: ObjectId(1000 + i as u64 * 7),
                support_mbr: Mbr::new(support.map(|s| s.0), support.map(|s| s.1)),
                kernel_mbr: Mbr::new(kernel.map(|k| k.0), kernel.map(|k| k.1)),
                upper_lines,
                lower_lines,
                rep: Point::xy(r() * 100.0 - 50.0, r() * 100.0 - 50.0),
                point_count: 1 + (r() * 1000.0) as u32,
            }
        })
        .collect()
}

fn bits(m: &Mbr<2>) -> [u64; 4] {
    [m.lo(0), m.lo(1), m.hi(0), m.hi(1)].map(f64::to_bits)
}

/// The column pass is the per-entry formula, bit for bit: every box
/// is `approx_cut_mbr` (or the support MBR under Basic), every `d⁻`
/// is `min_box_dist_sq` of it, and every slot carries its entry's id
/// and representative — at fills 0, 1, odd (the f64 columns then sit
/// on a 4-byte boundary), 63 and 64, on a file tree and on an image.
/// A leaf view's `summary(j)` is the summary written.
#[test]
fn leaf_pass_equals_the_per_entry_formula_bit_for_bit() {
    let path = std::env::temp_dir().join(format!("fz-leaf-pass-{}.fzpt", std::process::id()));
    let cfg = RTreeConfig { max_entries: 64 };
    let tiny = f64::MIN_POSITIVE;
    let thresholds = [
        None,
        Some(Threshold::at(tiny)),
        Some(Threshold::above(tiny)),
        Some(Threshold::at(0.5)),
        Some(Threshold::above(0.5)),
        Some(Threshold::at(1.0)),
        Some(Threshold::above(1.0)),
    ];
    let cuts = [
        Mbr::new([0.0, 0.0], [1.0, 1.0]),
        Mbr::new([-60.0, 20.0], [-55.0, 20.0]),
        Mbr::new([-100.0, -100.0], [100.0, 100.0]),
    ];
    for (seed, fill) in [0usize, 1, 7, 33, 63, 64].into_iter().enumerate() {
        let written = random_summaries(fill, seed as u64 + 1);
        let file = PagedRTree::bulk_write(written.clone(), cfg, &path, DEFAULT_PAGE_SIZE);
        let image = RTree::bulk_load(written.clone(), cfg);
        for tree in [file.unwrap(), image] {
            let read = tree.read_node(tree.root_id()).unwrap();
            let NodeView::Entries(leaf) = read.view() else { panic!("one leaf holds {fill}") };
            assert_eq!((leaf.slots(), leaf.len()), (fill, fill));
            let by_slot: Vec<&ObjectSummary<2>> = leaf
                .ids()
                .map(|id| written.iter().find(|s| s.id == id).expect("a written id"))
                .collect();
            for (j, want) in by_slot.iter().enumerate() {
                let got = leaf.summary(j);
                assert_eq!((got.id, got.point_count), (want.id, want.point_count));
                assert_eq!(bits(&got.support_mbr), bits(&want.support_mbr));
                assert_eq!(bits(&got.kernel_mbr), bits(&want.kernel_mbr));
                for d in 0..2 {
                    let line = |l: ConservativeLine| [l.m.to_bits(), l.t.to_bits()];
                    assert_eq!(line(got.upper_lines[d]), line(want.upper_lines[d]));
                    assert_eq!(line(got.lower_lines[d]), line(want.lower_lines[d]));
                    assert_eq!(got.rep[d].to_bits(), want.rep[d].to_bits());
                }
            }
            for t in thresholds {
                // Slots already in the arena stay put; the leaf's follow.
                let mut slots = Vec::new();
                assert_eq!(append_slots(&leaf, t, &mut slots), 0);
                let base = append_slots(&leaf, t, &mut slots);
                assert_eq!((base, slots.len()), (fill, 2 * fill));
                for (slot, want) in slots[base..].iter().zip(&by_slot) {
                    let boxed = t.map_or(want.support_mbr, |t| want.approx_cut_mbr(t));
                    assert_eq!(slot.id, want.id);
                    assert_eq!(bits(&slot.bound_mbr()), bits(&boxed), "{t:?} {:?}", want.id);
                    assert_eq!(slot.rep.map(f64::to_bits), want.rep.coords().map(f64::to_bits));
                    for cut in &cuts {
                        let got = L2.min_box_dist_sq(&slot.bound_mbr(), cut);
                        assert_eq!(got.to_bits(), L2.min_box_dist_sq(&boxed, cut).to_bits());
                    }
                }
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}
