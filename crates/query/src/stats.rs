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

/// The prune counts close [`QueryStats::counters`]: its last this many
/// entries.
const PRUNE_COUNTERS: usize = std::mem::size_of::<PruneCounts>() / std::mem::size_of::<u64>();

/// `probe_gate 3 scan_gate 1 outsiders_dropped 2 outsiders_kept 4 settled
/// 5`: space-separated, no commas, so it can close a comma-separated line.
impl fmt::Display for PruneCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let all = QueryStats { prunes: *self, ..QueryStats::default() }.counters();
        let skip = all.len() - PRUNE_COUNTERS;
        let text: Vec<String> =
            all.skip(skip).map(|(name, value)| format!("{name} {value}")).collect();
        f.write_str(&text.join(" "))
    }
}

/// Costs incurred by one query execution. `object_accesses` is the paper's
/// headline metric; the rest support the runtime figures and ablations.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryStats {
    /// Objects retrieved from the store (Figures 11/13/15a).
    pub object_accesses: u64,
    /// R-tree nodes expanded (logical node accesses — identical across
    /// index backends and thread counts; an overlay's virtual root is no
    /// node, so a quiescent overlay counts what its base counts).
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
    /// Passes of the RSS / RSS-ICR refinement loop (Algorithms 4 and 5):
    /// one per probability the sweep ranks the profiles at. Lemma 4 lets
    /// RSS-ICR step past levels RSS stops at.
    pub refine_steps: u64,
    /// Prune-reason counts.
    pub prunes: PruneCounts,
    /// Wall-clock time of the query (Figures 12/14/15b).
    pub wall: Duration,
}

impl AddAssign for QueryStats {
    fn add_assign(&mut self, rhs: Self) {
        for (sum, (_, value)) in self.counters_mut().zip(rhs.counters()) {
            *sum += value;
        }
        self.wall += rhs.wall;
    }
}

impl QueryStats {
    /// Every counter, by name, in one fixed order: the order the wire
    /// carries them in and every suite compares them in. The prune counts
    /// come last. Adding a counter adds its field here and in
    /// [`Self::counters_mut`], which lists the same fields in the same order.
    pub fn counters(&self) -> impl ExactSizeIterator<Item = (&'static str, u64)> {
        let p = &self.prunes;
        [
            ("object_accesses", self.object_accesses),
            ("node_accesses", self.node_accesses),
            ("node_disk_reads", self.node_disk_reads),
            ("distance_evals", self.distance_evals),
            ("profile_computations", self.profile_computations),
            ("bound_evals", self.bound_evals),
            ("aknn_calls", self.aknn_calls),
            ("candidates", self.candidates),
            ("refine_steps", self.refine_steps),
            ("probe_gate", p.probe_gate),
            ("scan_gate", p.scan_gate),
            ("outsiders_dropped", p.outsiders_dropped),
            ("outsiders_kept", p.outsiders_kept),
            ("settled", p.settled),
        ]
        .into_iter()
    }

    /// The counters of [`Self::counters`], in its order, to write.
    pub fn counters_mut(&mut self) -> impl ExactSizeIterator<Item = &mut u64> {
        let p = &mut self.prunes;
        [
            &mut self.object_accesses,
            &mut self.node_accesses,
            &mut self.node_disk_reads,
            &mut self.distance_evals,
            &mut self.profile_computations,
            &mut self.bound_evals,
            &mut self.aknn_calls,
            &mut self.candidates,
            &mut self.refine_steps,
            &mut p.probe_gate,
            &mut p.scan_gate,
            &mut p.outsiders_dropped,
            &mut p.outsiders_kept,
            &mut p.settled,
        ]
        .into_iter()
    }

    /// Averages a collection of per-query stats (for experiment tables).
    pub fn mean(samples: &[QueryStats]) -> QueryStats {
        let mut total = QueryStats::default();
        for s in samples {
            total += *s;
        }
        // No samples average to the zero stats.
        let n = samples.len().max(1) as u64;
        for c in total.counters_mut() {
            *c /= n;
        }
        total.wall /= n as u32;
        total
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

    #[test]
    fn counters_mut_writes_what_counters_reads() {
        let mut s = QueryStats::default();
        for (i, c) in (1..).zip(s.counters_mut()) {
            *c = i;
        }
        let read: Vec<u64> = s.counters().map(|(_, v)| v).collect();
        assert_eq!(read, (1..=read.len() as u64).collect::<Vec<_>>());
        assert_eq!(s.counters_mut().len(), read.len());
        let names: std::collections::BTreeSet<_> = s.counters().map(|(name, _)| name).collect();
        assert_eq!(names.len(), read.len(), "a name listed twice");
        // Every field but the wall time is a listed `u64`.
        let fields = std::mem::size_of::<QueryStats>() - std::mem::size_of::<Duration>();
        assert_eq!(fields / 8, read.len(), "a counter missing from the list");
    }

    #[test]
    fn prune_counts_close_the_list() {
        let prunes = PruneCounts {
            probe_gate: 3,
            scan_gate: 1,
            outsiders_dropped: 2,
            outsiders_kept: 4,
            settled: 5,
        };
        let text = "probe_gate 3 scan_gate 1 outsiders_dropped 2 outsiders_kept 4 settled 5";
        assert_eq!(prunes.to_string(), text);
    }
}
