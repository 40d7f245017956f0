//! # fuzzy-knn — K-Nearest Neighbor Search for Fuzzy Objects
//!
//! A production-quality Rust implementation of
//! *"K-Nearest Neighbor Search for Fuzzy Objects"*
//! (Zheng, Fung, Zhou — SIGMOD 2010): k-nearest-neighbour queries over
//! objects with indeterminate boundaries, such as probabilistic
//! segmentation masks from biomedical imaging or vague regions in GIS.
//!
//! A **fuzzy object** is a finite set of points, each carrying a
//! membership value `µ ∈ (0, 1]`. The **α-distance** between two fuzzy
//! objects is the closest-pair distance between their α-cuts
//! (`{a : µ(a) ≥ α}`) — a monotone staircase in α that lets users choose
//! the confidence level of a search:
//!
//! * **AKNN** — the k nearest objects at one probability threshold α;
//! * **RKNN** — every object that is a k-nearest neighbour anywhere in a
//!   probability range `[αs, αe]`, with its exact qualifying sub-ranges.
//!
//! ## Quick start
//!
//! ```
//! use fuzzy_knn::prelude::*;
//!
//! // Generate a small synthetic dataset (the paper's §6.1 workload).
//! let gen = SyntheticConfig {
//!     num_objects: 200,
//!     points_per_object: 100,
//!     ..SyntheticConfig::default()
//! };
//! let store = MemStore::from_objects(gen.generate()).unwrap();
//!
//! // Index the summaries (objects stay in the store).
//! let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
//! let engine = QueryEngine::new(&tree, &store);
//!
//! // 5 nearest objects at confidence 0.5.
//! let query = gen.query_object(1);
//! let knn = engine.aknn(&query, 5, 0.5, &AknnConfig::lb_lp_ub()).unwrap();
//! assert_eq!(knn.neighbors.len(), 5);
//!
//! // All 3NN members across confidences 0.3..0.7, with qualifying ranges.
//! let rknn = engine
//!     .rknn(&query, 3, 0.3, 0.7, RknnAlgorithm::RssIcr, &AknnConfig::lb_lp_ub())
//!     .unwrap();
//! assert!(!rknn.items.is_empty());
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`geom`] | points, MBRs, MinDist/MaxDist, hulls, conservative lines, level-annotated kd-trees |
//! | [`core`] | fuzzy object model, α-cuts, summaries, α-distance, profiles, critical sets |
//! | [`store`] | the object store (`FileStore`) read from a file or an in-memory image (`MemStore`), with the paper's object-access accounting, plus the page-cache buffer pool |
//! | [`index`] | the R-tree behind the `NodeAccess` trait: `PagedRTree` (STR bulk load) read from a file or an in-memory image (`RTree`), and its write overlay `OverlayRTree` |
//! | [`query`] | the one `QueryEngine` — AKNN (Basic/LB/LB-LP/LB-LP-UB) and RKNN (Naive/Basic/RSS/RSS-ICR) over a tree or an `Arc` snapshot of one |
//! | [`datagen`] | §6.1 synthetic workload + cell-like substitute for the real dataset |
//! | [`analysis`] | §5 cost model (Eq. 6 and Eq. 8) |

#![warn(missing_docs)]

pub use fuzzy_analysis as analysis;
pub use fuzzy_core as core;
pub use fuzzy_datagen as datagen;
pub use fuzzy_geom as geom;
pub use fuzzy_index as index;
pub use fuzzy_query as query;
pub use fuzzy_store as store;

/// One-stop imports for applications.
pub mod prelude {
    pub use fuzzy_core::{
        DistanceProfile, FuzzyObject, FuzzyObject2, ModelError, ObjectId, ObjectSummary, Threshold,
    };
    pub use fuzzy_datagen::{CellConfig, SyntheticConfig};
    pub use fuzzy_geom::{Mbr, Point};
    pub use fuzzy_index::{NodeAccess, PagedRTree, RTree, RTreeConfig};
    pub use fuzzy_query::{
        AknnConfig, AknnResult, DistBound, Interval, IntervalSet, Neighbor, QueryEngine,
        QueryError, QueryScratch, QueryStats, RknnAlgorithm, RknnItem, RknnResult, Versioned,
    };
    pub use fuzzy_store::{
        FileStore, FileStoreWriter, MemStore, ObjectStore, PageCache, StoreError,
    };
}
