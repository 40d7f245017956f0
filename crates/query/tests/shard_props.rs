//! Property tests for the shard layer.
//!
//! Three families, each over randomized datasets, shard counts and
//! query parameters:
//!
//! 1. **Partitioning** — every assignment strategy sends each object to
//!    exactly one shard (`< shards`), the shard contents are pairwise
//!    disjoint and their union is the input set.
//! 2. **Manifest round-trip** — a built `.fzsm` decodes back to exactly
//!    the encoded manifest (`encode ∘ decode = id`), and reopening the
//!    index agrees with the manifest's own row counts.
//! 3. **τ-pruning equivalence** — scatter-gather with the shared τ
//!    bound answers bit-identically to the unpruned per-shard reference
//!    on all four paper variants, at every generated shard count.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use fuzzy_core::{FuzzyObject, ObjectId};
use fuzzy_geom::Point;
use fuzzy_index::{
    MassClassAssign, NodeAccess, RTree, RTreeConfig, ShardAssign, ShardManifest, ShardedIndex,
    StrCenterAssign,
};
use fuzzy_query::{AknnConfig, DistBound, Forest, QueryEngine, QueryScratch};
use fuzzy_store::{MemStore, ObjectStore};
use proptest::prelude::*;

fn blob(id: u64, salt: u64) -> FuzzyObject<2> {
    let mut state = (id ^ salt.rotate_left(23)).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let (cx, cy) = ((id % 9) as f64 * 3.0 + rnd(), (id / 9) as f64 * 3.0 + rnd());
    let mut pts = vec![Point::xy(cx, cy)];
    let mut mus = vec![1.0];
    for _ in 1..12 {
        let r = rnd();
        let th = rnd() * std::f64::consts::TAU;
        pts.push(Point::xy(cx + r * th.cos(), cy + r * th.sin()));
        mus.push((((1.0 - r) * 10.0).round() / 10.0).clamp(0.1, 1.0));
    }
    FuzzyObject::new(ObjectId(id), pts, mus).unwrap()
}

static CASE: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Partition completeness and disjointness, for both strategies at
    /// every shard count — including counts above the object count
    /// (the builder clamps; the assignment must still cover everything).
    #[test]
    fn strategies_partition_the_dataset(
        salt in any::<u64>(),
        n in 1u64..80,
        shards in 1usize..12,
    ) {
        let store = MemStore::from_objects((0..n).map(|i| blob(i, salt))).unwrap();
        let summaries = store.summaries().to_vec();
        for strategy in [&StrCenterAssign as &dyn ShardAssign<2>, &MassClassAssign] {
            let assign = strategy.assign(&summaries, shards);
            prop_assert_eq!(assign.len(), summaries.len(), "one shard per object");
            prop_assert!(
                assign.iter().all(|&s| (s as usize) < shards),
                "assignment out of range for {}", strategy.name()
            );

            // Build the per-shard trees and check their entry sets are a
            // disjoint cover of the input ids.
            let mut parts: Vec<Vec<_>> = vec![Vec::new(); shards];
            for (s, shard) in summaries.iter().zip(&assign) {
                parts[*shard as usize].push(*s);
            }
            let mut seen = BTreeSet::new();
            for part in &parts {
                let tree = RTree::bulk_load(
                    part.clone(),
                    RTreeConfig { max_entries: 8, min_fill: 0.4 },
                );
                prop_assert_eq!(NodeAccess::len(&tree), part.len());
                for e in tree.iter_entries() {
                    prop_assert!(seen.insert(e.id.0), "{} appears in two shards", e.id);
                }
            }
            let want: BTreeSet<u64> = (0..n).collect();
            prop_assert_eq!(&seen, &want, "union of shards must be the dataset");
        }
    }

    /// `.fzsm` round trip: build → load gives a manifest that encodes/
    /// decodes to itself, whose rows agree with the reopened shards.
    #[test]
    fn manifest_round_trips_through_disk(
        salt in any::<u64>(),
        n in 1u64..60,
        shards in 1usize..7,
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let manifest_path = std::env::temp_dir()
            .join(format!("fz-shardprops-manifest-{}-{case}.fzsm", std::process::id()));

        let store = MemStore::from_objects((0..n).map(|i| blob(i, salt))).unwrap();
        let built = ShardedIndex::<2>::build(
            store.summaries().to_vec(),
            shards,
            &StrCenterAssign,
            RTreeConfig { max_entries: 8, min_fill: 0.4 },
            &manifest_path,
            4096,
        ).unwrap();

        let loaded = ShardManifest::<2>::load(&manifest_path).unwrap();
        prop_assert_eq!(&loaded, built.manifest());
        let redecoded = ShardManifest::<2>::decode(&loaded.encode()).unwrap();
        prop_assert_eq!(&redecoded, &loaded);

        // Rows must agree with the reopened index: per-shard object
        // counts sum to the dataset, shard id = row index.
        prop_assert_eq!(loaded.object_count(), n);
        prop_assert_eq!(loaded.shards.len(), built.shard_count());
        for (row, shard) in loaded.shards.iter().zip(built.shards()) {
            prop_assert_eq!(row.objects as usize, NodeAccess::len(shard.as_ref()));
        }

        let mut shard_paths = Vec::new();
        for i in 0..built.shard_count() {
            shard_paths.push(built.shard_path(i));
        }
        drop(built);
        for p in shard_paths {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_file(&manifest_path).ok();
    }

    /// The shared τ bound is an optimization, never an answer change:
    /// pruned and unpruned scatter-gather agree bit for bit on every
    /// paper variant, shard count and parameter draw.
    #[test]
    fn tau_pruning_never_changes_answers(
        salt in any::<u64>(),
        n in 2u64..70,
        shards in 1usize..7,
        qid_seed in any::<u64>(),
        k in 1usize..10,
        alpha in 0.1..0.98f64,
    ) {
        let store = MemStore::from_objects((0..n).map(|i| blob(i, salt))).unwrap();
        let summaries = store.summaries().to_vec();
        let assign = ShardAssign::<2>::assign(&StrCenterAssign, &summaries, shards);
        let mut parts: Vec<Vec<_>> = vec![Vec::new(); shards];
        for (s, shard) in summaries.iter().zip(&assign) {
            parts[*shard as usize].push(*s);
        }
        let forest: Vec<RTree<2>> = parts
            .into_iter()
            .map(|p| RTree::bulk_load(p, RTreeConfig { max_entries: 8, min_fill: 0.4 }))
            .collect();
        let (pruned, unpruned) = (Forest::new(&forest), Forest::unpruned(&forest));
        let engine = QueryEngine::new(&pruned, &store);
        let reference = QueryEngine::new(&unpruned, &store);
        let mut scratch = QueryScratch::new();

        let q = store.probe(ObjectId(qid_seed % n)).unwrap().as_ref().clone();
        for cfg in AknnConfig::paper_variants() {
            let pruned = engine.aknn_with_scratch(&q, k, alpha, &cfg, &mut scratch).unwrap();
            let plain = reference.aknn_with_scratch(&q, k, alpha, &cfg, &mut scratch).unwrap();
            prop_assert_eq!(
                pruned.neighbors.len(),
                k.min(n as usize),
                "cardinality ({})", cfg.variant_name()
            );
            prop_assert_eq!(
                pruned.neighbors.len(),
                plain.neighbors.len(),
                "pruned/unpruned cardinality ({})", cfg.variant_name()
            );
            for (a, b) in pruned.neighbors.iter().zip(&plain.neighbors) {
                prop_assert_eq!(a.id, b.id, "{}", cfg.variant_name());
                let (DistBound::Exact(da), DistBound::Exact(db)) = (a.dist, b.dist) else {
                    panic!("scatter-gather answers must be exact ({})", cfg.variant_name());
                };
                prop_assert_eq!(
                    da.to_bits(),
                    db.to_bits(),
                    "τ pruning changed a distance ({})", cfg.variant_name()
                );
            }
            // Pruning must not do *more* object work than the reference.
            prop_assert!(
                pruned.stats.object_accesses <= plain.stats.object_accesses,
                "τ pruning increased probes ({}): {} > {}",
                cfg.variant_name(), pruned.stats.object_accesses, plain.stats.object_accesses
            );
        }
    }
}
