//! Query processing for fuzzy-object k-nearest-neighbour search.
//!
//! Implements both query types of the paper, generic over the index
//! (`fuzzy_index::NodeAccess`: a `PagedRTree` read from a file or an
//! in-memory image, or an overlay over one) and the object store
//! (`fuzzy_store::ObjectStore`); the determinism suites prove answers are
//! byte-identical across sources and thread counts:
//!
//! * **AKNN** (Definition 4, Section 3): best-first search returning the k
//!   objects with smallest α-distance at one probability threshold. The
//!   four variants benchmarked in §6.2 are configuration flags of one
//!   engine: `Basic`, `LB` (improved lower bound via conservative α-cut
//!   MBRs), `LB-LP` (lazy probe buffer) and `LB-LP-UB` (representative-
//!   point upper bound).
//! * **RKNN** (Definition 5, Section 4): all objects belonging to some kNN
//!   set within a probability range, each with its qualifying range. Four
//!   algorithms: `Naive` (AKNN at every membership level), `Basic`
//!   (critical-probability stepping, Algorithm 3), `Rss` (search space
//!   reduction, Algorithm 4 / Lemma 3) and `RssIcr` (candidate refinement
//!   acceleration, Algorithm 5 / Lemma 4), plus an exact sweep reference
//!   used as the test oracle.
//!
//! There is **one engine**, [`QueryEngine`], generic over what it searches
//! (any `NodeAccess` tree or an `Arc` snapshot of one) and over the object
//! store. Backend and ownership are the
//! caller's choice, not separate engine types:
//!
//! * **Concurrent workloads**: an engine only borrows its `&index` and
//!   `&store`, so a workload fans out over scoped threads, each running
//!   ordinary single-query searches on a [`QueryScratch`] of its own (see
//!   the example below).
//! * **Dynamic indexes** ([`epoch`]): a [`Versioned`] epoch/snapshot
//!   wrapper makes index changes (inserts and deletes on the paged
//!   overlay, or a freshly bulk-loaded tree replacing the old one) safe
//!   under concurrent reads — writers publish frozen snapshots, in-flight
//!   queries keep theirs (`QueryEngine::new(&versioned.snapshot(), &store)`).
//! * **Approximate AKNN** ([`approx`]): candidate pools from a
//!   `fuzzy_index::VpTree` built in memory over expected centers, resolved
//!   through the exact probe loop and refined by one friend-of-a-friend
//!   round — exact distances always, recall set by the [`RecallDial`], measured by
//!   [`recall_at_k`].
//!
//! One scoped thread per worker, each with its own scratch, answers a
//! workload in request order:
//!
//! ```
//! use fuzzy_core::{FuzzyObject, ObjectId};
//! use fuzzy_geom::Point;
//! use fuzzy_index::{RTree, RTreeConfig};
//! use fuzzy_query::{AknnConfig, QueryEngine, QueryScratch};
//! use fuzzy_store::{MemStore, ObjectStore};
//!
//! let store = MemStore::from_objects((0..8).map(|i| {
//!     let points = vec![Point::xy(i as f64, 0.0), Point::xy(i as f64, 0.5)];
//!     FuzzyObject::new(ObjectId(i), points, vec![1.0, 0.5]).unwrap()
//! }))
//! .unwrap();
//! let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
//! let queries: Vec<_> = (0..8).map(|i| store.probe(ObjectId(i)).unwrap()).collect();
//!
//! let answers: Vec<_> = std::thread::scope(|scope| {
//!     let workers: Vec<_> = queries
//!         .chunks(2)
//!         .map(|part| {
//!             let (tree, store) = (&tree, &store);
//!             scope.spawn(move || {
//!                 let engine = QueryEngine::new(tree, store);
//!                 let mut scratch = QueryScratch::new();
//!                 let cfg = AknnConfig::lb_lp_ub();
//!                 part.iter()
//!                     .map(|q| engine.aknn_with_scratch(q, 3, 0.5, &cfg, &mut scratch).unwrap())
//!                     .collect::<Vec<_>>()
//!             })
//!         })
//!         .collect();
//!     workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
//! });
//! // answers[i] answers queries[i]: each query object is its own 1-NN.
//! assert!(answers.iter().enumerate().all(|(i, a)| a.ids().contains(&ObjectId(i as u64))));
//! ```

#![warn(missing_docs)]

pub mod aknn;
pub mod approx;
pub mod engine;
pub mod epoch;
pub mod error;
pub mod interval;
pub mod result;
pub mod rknn;
pub mod stats;
pub mod sweep;

pub use aknn::{append_slots, AknnConfig, EntrySlot, QueryScratch};
pub use approx::{aknn_brute, approx_aknn, recall_at_k, RecallDial};
pub use engine::QueryEngine;
pub use epoch::Versioned;
pub use error::QueryError;
pub use interval::{Interval, IntervalSet};
pub use result::{AknnResult, DistBound, Neighbor, RknnItem, RknnResult};
pub use rknn::RknnAlgorithm;
pub use stats::{PruneCounts, QueryStats};
