//! Cost model of Section 5: estimating the number of object accesses of an
//! AKNN query over *ideal fuzzy objects* (circles whose α-cut radius is a
//! function `R(α)`), Equations 6 and 8 with uniform data (fractal
//! dimension 2), as the paper prints them.
//!
//! * [`cost_model`] — Equations 6 and 8 and the Gaussian-disk `R(α)`
//!   profile matching the synthetic dataset generator.
//!
//! `crates/bench/tests/scorecard.rs` holds Eq. 8 against the measured
//! Basic AKNN.

#![warn(missing_docs)]

pub mod cost_model;

pub use cost_model::{eq8_object_accesses, gaussian_disk_radius, CostModelParams};
