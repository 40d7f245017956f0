//! Query-level errors.

use fuzzy_store::StoreError;
use std::fmt;

/// Errors raised by the query processor.
#[derive(Debug)]
pub enum QueryError {
    /// Object store failure during a probe.
    Store(StoreError),
    /// The query object's α-cut is empty at the requested threshold (only
    /// possible for strict thresholds at the top membership level).
    EmptyQueryCut,
    /// `k` must be at least 1.
    ZeroK,
    /// A probability must lie in `(0, 1]`, and a range `[αs, αe]` must
    /// satisfy `0 < αs ≤ αe ≤ 1`.
    InvalidProbability {
        /// What was supplied.
        value: f64,
    },
    /// Malformed probability range.
    InvalidRange {
        /// Range start.
        start: f64,
        /// Range end.
        end: f64,
    },
    /// The query's deadline expired before the traversal finished. The
    /// engine checks the deadline at expansion points (node reads, object
    /// probes, refinement steps), so an overdue query aborts promptly
    /// instead of burning its worker; partial results are discarded.
    DeadlineExceeded,
    /// The query panicked inside a server worker. The unwind was
    /// caught at the per-query boundary; the message is the panic payload
    /// when it was a string.
    Panicked {
        /// The panic payload, if it was a `&str`/`String`.
        message: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Store(e) => write!(f, "store error: {e}"),
            Self::EmptyQueryCut => write!(f, "query object has an empty cut at this threshold"),
            Self::ZeroK => write!(f, "k must be at least 1"),
            Self::InvalidProbability { value } => {
                write!(f, "probability {value} outside (0, 1]")
            }
            Self::InvalidRange { start, end } => {
                write!(f, "invalid probability range [{start}, {end}]")
            }
            Self::DeadlineExceeded => write!(f, "deadline exceeded"),
            Self::Panicked { message } => write!(f, "query panicked: {message}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for QueryError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}
