//! The fuzzy object model of *K-Nearest Neighbor Search for Fuzzy Objects*
//! (Zheng, Fung, Zhou — SIGMOD 2010).
//!
//! A fuzzy object (Definition 1) is a finite set of probabilistic spatial
//! points `A = {⟨a, µ_A(a)⟩ | µ_A(a) > 0}`. This crate provides:
//!
//! * [`FuzzyObject`] — the object itself, with its support set, kernel set
//!   and α-cuts (Definition 2), validated so that the kernel is never empty
//!   (the paper's standing assumption).
//! * [`Threshold`] — a probability threshold with exact *strict* semantics,
//!   implementing the `α* + ε` stepping of Algorithms 3/5 without floating
//!   point epsilons.
//! * [`boundary`] — the per-dimension boundary functions `δ(α)` of §3.2.
//! * [`ObjectSummary`] — the compact per-object metadata stored in R-tree
//!   leaves: support MBR, kernel MBR, optimal conservative lines `L_opt`
//!   and the kernel representative point; including the approximate α-cut
//!   MBR `M_A(α)*` of Equation (2).
//! * [`distance`] — α-distance evaluators (Definition 3): a quadratic
//!   brute-force reference and the adaptive kernel (a dense prefix scan,
//!   or seeded searches in the query's kd-tree).
//! * [`metric`] — the [`Metric`] seam the query layer prunes through, and
//!   [`L2`], every hook delegating to the specialized kernels.
//! * [`DistanceProfile`] — the full step function `α ↦ d_α(A, Q)` and the
//!   critical probability set `Ω_Q(A)` (Definition 7).

#![warn(missing_docs)]

pub mod boundary;
pub mod distance;
pub mod error;
pub mod metric;
pub mod object;
pub mod profile;
pub mod summary;
pub mod threshold;

pub use error::ModelError;
pub use metric::{Metric, L2};
pub use object::{ColumnarChecker, FuzzyObject, MembershipPrefix, ObjectId};
pub use profile::DistanceProfile;
pub use summary::ObjectSummary;
pub use threshold::Threshold;

/// Dimensionality used by the paper's evaluation (pixel masks).
pub type FuzzyObject2 = FuzzyObject<2>;
/// 2-d object summary.
pub type ObjectSummary2 = ObjectSummary<2>;
