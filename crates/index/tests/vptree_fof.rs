//! The VP-tree's friend-of-a-friend lists come from its own ε = 0 search
//! (each center's `FOF_NEIGHBORS + 1` nearest, self dropped). They must
//! equal what an all-pairs scan selects — the same ids in the same
//! order, ties at the k-th distance broken by id — on every id, whatever
//! the data: tiny trees, duplicated centers, a lattice whose ties straddle
//! the k-th distance, and a cluster of centers 1e-9 apart near (100, 100)
//! with its vantage far away, where `d − r` cancels to its rounding. The
//! quadratic scan below is the oracle. The candidate pool and the balls
//! a fixed query sees are pinned too: the FoF build leaves them as they
//! were.

use fuzzy_core::metric::{Metric, L2};
use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary};
use fuzzy_geom::Point;
use fuzzy_index::{RecallDial, VpTree, FOF_NEIGHBORS};

/// A three-point object whose expected center is exactly `(x, y)`.
fn summary(id: u64, x: f64, y: f64) -> ObjectSummary<2> {
    let pts = vec![Point::xy(x, y), Point::xy(x + 0.4, y + 0.3), Point::xy(x - 0.2, y)];
    let obj = FuzzyObject::new(ObjectId(id), pts, vec![1.0, 0.6, 0.3]).unwrap();
    ObjectSummary { rep: Point::xy(x, y), ..ObjectSummary::from_object(&obj) }
}

/// `n` centers in [0, 100)², xorshift-seeded.
fn random(n: u64, seed: u64) -> Vec<ObjectSummary<2>> {
    let mut state = seed | 1;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|id| summary(id, unit() * 100.0, unit() * 100.0)).collect()
}

/// The quadratic build: every object's `FOF_NEIGHBORS` nearest other
/// centers by (distance, id), in id order of the objects. Two threads
/// share the rows, so the debug suite stays quick at n = 8 192.
fn all_pairs(summaries: &[ObjectSummary<2>]) -> Vec<(ObjectId, Vec<ObjectId>)> {
    let mut items: Vec<(ObjectId, Point<2>)> = summaries.iter().map(|s| (s.id, s.rep)).collect();
    items.sort_by_key(|&(id, _)| id);
    let rows = |range: std::ops::Range<usize>| {
        let by = |a: &(f64, ObjectId), b: &(f64, ObjectId)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        let mut near: Vec<(f64, ObjectId)> = Vec::with_capacity(items.len());
        let mut lists = Vec::with_capacity(range.len());
        for i in range {
            let (id, center) = items[i];
            near.clear();
            near.extend(
                items[..i].iter().chain(&items[i + 1..]).map(|&(o, at)| (L2.dist(&center, &at), o)),
            );
            let keep = FOF_NEIGHBORS.min(near.len());
            if keep > 0 && keep < near.len() {
                near.select_nth_unstable_by(keep - 1, by);
            }
            near.truncate(keep);
            near.sort_by(by);
            lists.push((id, near.iter().map(|&(_, other)| other).collect()));
        }
        lists
    };
    let half = items.len() / 2;
    std::thread::scope(|scope| {
        let upper = scope.spawn(|| rows(half..items.len()));
        let mut lists = rows(0..half);
        lists.extend(upper.join().unwrap());
        lists
    })
}

/// Every id's list from the tree equals the oracle's.
fn assert_lists_match(what: &str, summaries: &[ObjectSummary<2>]) {
    let tree = VpTree::build(&L2, summaries);
    let want = all_pairs(summaries);
    let wrong: Vec<&(ObjectId, Vec<ObjectId>)> =
        want.iter().filter(|(id, list)| tree.neighbors_of(*id) != list.as_slice()).collect();
    assert!(
        wrong.is_empty(),
        "{what}: {} of {} lists differ, first {:?}: tree {:?}",
        wrong.len(),
        want.len(),
        wrong[0],
        tree.neighbors_of(wrong[0].0)
    );
}

#[test]
fn lists_equal_the_all_pairs_build_at_every_size() {
    for n in [1, 2, 17, 2_000, 8_192] {
        assert_lists_match(&format!("n = {n}"), &random(n, 0x5EED + n));
    }
    assert!(VpTree::build(&L2, &random(1, 3)).neighbors_of(ObjectId(0)).is_empty());
    assert_eq!(VpTree::build(&L2, &random(2, 3)).neighbors_of(ObjectId(0)), [ObjectId(1)]);
}

#[test]
fn lists_equal_the_all_pairs_build_on_duplicated_centers() {
    // 60 distinct centers five times over, then one center 30 times:
    // more copies than a list holds, so zero distances tie by id.
    let distinct = random(60, 11);
    let mut summaries: Vec<ObjectSummary<2>> = (0..300)
        .map(|id| {
            let at = distinct[(id * 7 % 60) as usize].rep;
            summary(id, at[0], at[1])
        })
        .collect();
    summaries.extend((300..330).map(|id| summary(id, 42.0, 17.0)));
    assert_lists_match("duplicated centers", &summaries);
}

#[test]
fn lists_equal_the_all_pairs_build_on_lattice_ties() {
    // Spacing 1 across, 2 down: an interior point has 2 neighbors at 1, 4
    // at 2 and 4 at √5, so the 8th nearest ties with two more at √5 and id
    // picks. Ids are scrambled so position order is not id order.
    let summaries: Vec<ObjectSummary<2>> = (0..900_u64)
        .map(|i| summary(i * 7919 % 900, (i % 30) as f64, (i / 30) as f64 * 2.0))
        .collect();
    assert_lists_match("lattice", &summaries);
}

#[test]
fn lists_equal_the_all_pairs_build_on_a_near_duplicate_cluster() {
    // Vantages at (0, 0), (20, 20) and (40, 40), the lowest ids, then a
    // chain of doubled centers 1e-9 apart up the same diagonal from
    // (100, 100). Everything is collinear, so every bound `d − r` is
    // tight, and it cancels ~141 down to ~1e-9: its rounding, not the
    // geometry, decides whether a copy across a split is pruned. A
    // relative slack of 1e-9 on τ_c misses two lists here, none at all
    // misses twelve.
    let mut chain: Vec<ObjectSummary<2>> =
        (0..3).map(|id| summary(id, id as f64 * 20.0, id as f64 * 20.0)).collect();
    for i in 0..500 {
        let at = 100.0 + (i / 2) as f64 * 1e-9;
        chain.push(summary(3 + i, at, at));
    }
    assert_lists_match("doubled chain", &chain);

    // A 20 × 20 grid of centers 1e-9 apart near (100, 100), its vantage
    // at the origin ~141 away.
    let mut grid = vec![summary(0, 0.0, 0.0)];
    for i in 0..400_u64 {
        let (a, b) = ((i % 20) as f64, (i / 20) as f64);
        grid.push(summary(1 + i, 100.0 + a * 1e-9, 100.0 + b * 1e-9));
    }
    assert_lists_match("grid cluster", &grid);
}

#[test]
fn candidates_and_balls_are_unchanged_on_a_fixed_query() {
    let tree = VpTree::build(&L2, &random(2_000, 0x5EED + 2_000));
    let q = Point::xy(37.5, 61.25);
    let pool = |dial| {
        let mut out = Vec::new();
        tree.candidates(&L2, &q, 10, dial, &mut out);
        out.iter().map(|id| id.0).collect::<Vec<u64>>()
    };
    assert_eq!(pool(RecallDial::Budget(0.0)), PINNED_POOL_0);
    assert_eq!(pool(RecallDial::Budget(0.5)), PINNED_POOL_HALF);
    assert_eq!(pool(RecallDial::Exact), (0..2_000).collect::<Vec<u64>>());
    for (id, want) in PINNED_BALLS {
        let (center, spread) = tree.ball_of(ObjectId(id)).unwrap();
        assert_eq!([center[0].to_bits(), center[1].to_bits(), spread.to_bits()], want, "{id}");
    }
    assert!(tree.ball_of(ObjectId(2_000)).is_none());
    assert!(tree.neighbors_of(ObjectId(2_000)).is_empty());
}

/// Pinned from the build before FoF lists came from the tree's search.
const PINNED_POOL_0: [u64; 10] = [255, 356, 362, 530, 555, 697, 1099, 1472, 1614, 1882];
const PINNED_POOL_HALF: [u64; 13] =
    [255, 356, 362, 530, 555, 697, 1099, 1332, 1385, 1472, 1614, 1882, 1899];
const PINNED_BALLS: [(u64, [u64; 3]); 4] = [
    (0, [4549764332329713664, 4635244242475035775, 4602678819172646882]),
    (1, [4634754205794100677, 4626652688762313774, 4602678819172646957]),
    (999, [4634793295480217759, 4631792719591758717, 4602678819172646937]),
    (1999, [4632201695544999675, 4632198923582287208, 4602678819172646861]),
];
