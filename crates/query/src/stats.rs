//! Per-query cost accounting.

use std::ops::AddAssign;
use std::time::Duration;

/// Costs incurred by one query execution. `object_accesses` is the paper's
/// headline metric; the rest support the runtime figures and ablations.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryStats {
    /// Objects retrieved from the store (Figures 11/13/15a).
    pub object_accesses: u64,
    /// R-tree nodes expanded (logical node accesses — identical across
    /// index backends and thread counts).
    pub node_accesses: u64,
    /// Node expansions that touched the backing medium: buffer-pool
    /// misses of a `PagedRTree` read from a file, always 0 for an
    /// in-memory image. This depends on how concurrent queries interleave
    /// on the shared pool.
    pub node_disk_reads: u64,
    /// Exact α-distance evaluations (kernel calls): one per
    /// object an AKNN search probes, plus — in RSS / RSS-ICR — one bounded
    /// call at `αs` per range candidate step 1 did not return (the settle
    /// step of [`crate::rknn`]).
    pub distance_evals: u64,
    /// Distance-profile computations (RKNN refinement). In RSS / RSS-ICR at
    /// most `candidates`: a step-1 neighbour that can never leave the kNN
    /// set and a candidate that can never enter it get none.
    pub profile_computations: u64,
    /// Lower/upper bound evaluations (cheap, CPU only), AKNN probe-gate
    /// tests included: one per τ-seeded probe tested against the query's
    /// cut before its read, whether or not the test skips the read.
    pub bound_evals: u64,
    /// Internal AKNN invocations (RKNN algorithms).
    pub aknn_calls: u64,
    /// Candidate set size after pruning (RSS/ICR).
    pub candidates: u64,
    /// Wall-clock time of the query (Figures 12/14/15b).
    pub wall: Duration,
}

impl AddAssign for QueryStats {
    fn add_assign(&mut self, rhs: Self) {
        self.object_accesses += rhs.object_accesses;
        self.node_accesses += rhs.node_accesses;
        self.node_disk_reads += rhs.node_disk_reads;
        self.distance_evals += rhs.distance_evals;
        self.profile_computations += rhs.profile_computations;
        self.bound_evals += rhs.bound_evals;
        self.aknn_calls += rhs.aknn_calls;
        self.candidates += rhs.candidates;
        self.wall += rhs.wall;
    }
}

impl QueryStats {
    /// Averages a collection of per-query stats (for experiment tables).
    pub fn mean(samples: &[QueryStats]) -> QueryStats {
        if samples.is_empty() {
            return QueryStats::default();
        }
        let mut total = QueryStats::default();
        for s in samples {
            total += *s;
        }
        let n = samples.len() as u64;
        QueryStats {
            object_accesses: total.object_accesses / n,
            node_accesses: total.node_accesses / n,
            node_disk_reads: total.node_disk_reads / n,
            distance_evals: total.distance_evals / n,
            profile_computations: total.profile_computations / n,
            bound_evals: total.bound_evals / n,
            aknn_calls: total.aknn_calls / n,
            candidates: total.candidates / n,
            wall: total.wall / n as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates() {
        let mut a =
            QueryStats { object_accesses: 3, wall: Duration::from_millis(5), ..Default::default() };
        let b = QueryStats {
            object_accesses: 2,
            node_accesses: 7,
            wall: Duration::from_millis(10),
            ..Default::default()
        };
        a += b;
        assert_eq!(a.object_accesses, 5);
        assert_eq!(a.node_accesses, 7);
        assert_eq!(a.wall, Duration::from_millis(15));
    }

    #[test]
    fn mean_divides() {
        let samples = vec![
            QueryStats { object_accesses: 10, ..Default::default() },
            QueryStats { object_accesses: 20, ..Default::default() },
        ];
        assert_eq!(QueryStats::mean(&samples).object_accesses, 15);
        assert_eq!(QueryStats::mean(&[]).object_accesses, 0);
    }
}
