//! Model-level validation errors.

use std::fmt;

/// Errors raised when constructing fuzzy objects.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelError {
    /// An object must contain at least one point.
    EmptyObject,
    /// Membership values must lie in `(0, 1]`.
    InvalidMembership {
        /// Index of the offending point.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A coordinate was NaN or infinite.
    NonFiniteCoordinate {
        /// Index of the offending point.
        index: usize,
    },
    /// The paper assumes every fuzzy object has a non-empty kernel
    /// (`∃a : µ(a) = 1`); see Section 2.1.
    EmptyKernel,
    /// Points and membership slices differ in length.
    LengthMismatch {
        /// Number of points supplied.
        points: usize,
        /// Number of membership values supplied.
        memberships: usize,
    },
    /// A membership-descending columnar record violated its layout
    /// contract (bad permutation, unsorted memberships, short columns).
    InvalidColumnarLayout {
        /// What was wrong with the layout.
        reason: &'static str,
    },
    /// An [`ObjectSummary`](crate::ObjectSummary) broke one of its
    /// invariants (non-finite value, inverted box, kernel box outside the
    /// support box, representative outside the kernel box, no points).
    InvalidSummary {
        /// Which invariant failed.
        reason: &'static str,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyObject => write!(f, "fuzzy object must contain at least one point"),
            Self::InvalidMembership { index, value } => {
                write!(f, "membership value {value} at point {index} is outside (0, 1]")
            }
            Self::NonFiniteCoordinate { index } => {
                write!(f, "point {index} has a non-finite coordinate")
            }
            Self::EmptyKernel => write!(
                f,
                "fuzzy object has an empty kernel (no point with membership 1); \
                 divide the memberships by the largest so that it is 1"
            ),
            Self::LengthMismatch { points, memberships } => {
                write!(f, "length mismatch: {points} points vs {memberships} membership values")
            }
            Self::InvalidColumnarLayout { reason } => {
                write!(f, "invalid columnar layout: {reason}")
            }
            Self::InvalidSummary { reason } => write!(f, "invalid object summary: {reason}"),
        }
    }
}

impl std::error::Error for ModelError {}
