//! Per-query cost accounting.

use std::fmt;
use std::ops::AddAssign;
use std::time::Duration;

/// Why the engine's exact filters ruled work out (or in), counted per
/// query. Each is a verdict the answer does not depend on: a pruned read is
/// one that would have changed nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneCounts {
    /// Reads the AKNN probe gate ruled out, in any search: no point of the
    /// query's cut lies within the τ seed of the entry's support MBR.
    pub probe_gate: u64,
    /// RSS range entries the query's `αs` cut ruled out: no point of it lies
    /// strictly within the radius of the entry's support MBR.
    pub scan_gate: u64,
    /// RSS outsiders the settle question dropped: no pair strictly within
    /// the radius at `αs`.
    pub outsiders_dropped: u64,
    /// RSS outsiders the settle question kept.
    pub outsiders_kept: u64,
    /// RSS step-1 neighbours settled: the whole window, with no profile.
    pub settled: u64,
}

impl AddAssign for PruneCounts {
    fn add_assign(&mut self, rhs: Self) {
        self.probe_gate += rhs.probe_gate;
        self.scan_gate += rhs.scan_gate;
        self.outsiders_dropped += rhs.outsiders_dropped;
        self.outsiders_kept += rhs.outsiders_kept;
        self.settled += rhs.settled;
    }
}

/// `probe_gate 3 scan_gate 1 outsiders_dropped 2 outsiders_kept 4 settled
/// 5`: space-separated, no commas, so it can close a comma-separated line.
impl fmt::Display for PruneCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "probe_gate {} scan_gate {} outsiders_dropped {} outsiders_kept {} settled {}",
            self.probe_gate,
            self.scan_gate,
            self.outsiders_dropped,
            self.outsiders_kept,
            self.settled
        )
    }
}

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
    /// Prune-reason counts.
    pub prunes: PruneCounts,
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
        self.prunes += rhs.prunes;
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
            prunes: PruneCounts {
                probe_gate: total.prunes.probe_gate / n,
                scan_gate: total.prunes.scan_gate / n,
                outsiders_dropped: total.prunes.outsiders_dropped / n,
                outsiders_kept: total.prunes.outsiders_kept / n,
                settled: total.prunes.settled / n,
            },
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
            prunes: PruneCounts { scan_gate: 4, settled: 1, ..Default::default() },
            wall: Duration::from_millis(10),
            ..Default::default()
        };
        a += b;
        a += b;
        assert_eq!(a.object_accesses, 7);
        assert_eq!(a.node_accesses, 14);
        let want = PruneCounts { scan_gate: 8, settled: 2, ..Default::default() };
        assert_eq!(a.prunes, want);
        assert_eq!(a.wall, Duration::from_millis(25));
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
