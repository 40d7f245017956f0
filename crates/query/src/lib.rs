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
//! * **Batched workloads** ([`batch`]): a [`BatchExecutor`] fans mixed
//!   AKNN/RKNN workloads across scoped worker threads over one shared
//!   `&index`/`&store` pair, with deterministic output ordering and
//!   lossless per-thread cost accounting.
//! * **Dynamic indexes** ([`epoch`]): a [`Versioned`] epoch/snapshot
//!   wrapper makes index changes (inserts and deletes on the paged
//!   overlay, or a freshly bulk-loaded tree replacing the old one) safe
//!   under concurrent reads — writers publish frozen snapshots, in-flight
//!   queries keep theirs (`QueryEngine::new(&versioned.snapshot(), &store)`).
//! * **Approximate AKNN** ([`approx`]): candidate pools from a
//!   `fuzzy_index::VpTree` over expected centers, resolved through the
//!   exact probe loop and optionally refined friend-of-a-friend — exact
//!   distances always, recall set by the [`RecallDial`], measured by
//!   [`recall_at_k`].

#![warn(missing_docs)]

pub mod aknn;
pub mod approx;
pub mod batch;
pub mod engine;
pub mod epoch;
pub mod error;
pub mod interval;
pub mod result;
pub mod rknn;
pub mod stats;
pub mod sweep;

pub use aknn::{append_slots, AknnConfig, EntrySlot, QueryScratch};
pub use approx::{
    aknn_brute, approx_aknn, approx_aknn_with_scratch, recall_at_k, ApproxConfig, RecallDial,
};
pub use batch::{
    execute_caught, execute_one, BatchExecutor, BatchOutcome, BatchRequest, BatchResponse,
    ThreadStats,
};
pub use engine::QueryEngine;
pub use epoch::Versioned;
pub use error::QueryError;
pub use interval::{Interval, IntervalSet};
pub use result::{AknnResult, DistBound, Neighbor, RknnItem, RknnResult};
pub use rknn::RknnAlgorithm;
pub use stats::QueryStats;
