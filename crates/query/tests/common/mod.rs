//! Shared by the query suites: a mixed AKNN/RKNN workload run on scoped
//! threads and its canonical bytes; `L2` behind a wrapper that logs every
//! kernel call and every windowed profile, and what RSS's settle step did as
//! read off that log.
#![allow(dead_code)] // each suite uses its own part

use fuzzy_core::metric::{Metric, L2};
use fuzzy_core::{DistanceProfile, FuzzyObject, ObjectId, Threshold};
use fuzzy_geom::{Mbr, Point};
use fuzzy_index::NodeAccess;
use fuzzy_query::{
    AknnConfig, AknnResult, DistBound, Neighbor, QueryEngine, QueryError, QueryScratch, QueryStats,
    RknnAlgorithm, RknnItem, RknnResult,
};
use fuzzy_store::ObjectStore;
use std::sync::Mutex;

/// One query of a mixed workload.
#[derive(Clone, Debug)]
pub enum Request {
    /// AKNN (Definition 4) at `alpha`.
    Aknn { query: FuzzyObject<2>, k: usize, alpha: f64, cfg: AknnConfig },
    /// RKNN (Definition 5) over `range`.
    Rknn {
        query: FuzzyObject<2>,
        k: usize,
        range: (f64, f64),
        algo: RknnAlgorithm,
        cfg: AknnConfig,
    },
}

/// The answer to one [`Request`].
#[derive(Clone, Debug)]
pub enum Answer {
    Aknn(AknnResult),
    Rknn(RknnResult),
}

impl Answer {
    pub fn stats(&self) -> &QueryStats {
        match self {
            Self::Aknn(r) => &r.stats,
            Self::Rknn(r) => &r.stats,
        }
    }
}

impl Request {
    pub fn aknn(query: FuzzyObject<2>, k: usize, alpha: f64, cfg: AknnConfig) -> Self {
        Self::Aknn { query, k, alpha, cfg }
    }

    pub fn rknn(
        query: FuzzyObject<2>,
        k: usize,
        range: (f64, f64),
        algo: RknnAlgorithm,
        cfg: AknnConfig,
    ) -> Self {
        Self::Rknn { query, k, range, algo, cfg }
    }

    /// Answer through the engine's methods on the caller's scratch.
    pub fn run<I: NodeAccess<2>, S: ObjectStore<2>>(
        &self,
        engine: &QueryEngine<'_, I, S, 2>,
        scratch: &mut QueryScratch<2>,
    ) -> Result<Answer, QueryError> {
        match self {
            Self::Aknn { query, k, alpha, cfg } => {
                engine.aknn_with_scratch(query, *k, *alpha, cfg, scratch).map(Answer::Aknn)
            }
            Self::Rknn { query, k, range: (lo, hi), algo, cfg } => {
                engine.rknn_with_scratch(query, *k, *lo, *hi, *algo, cfg, scratch).map(Answer::Rknn)
            }
        }
    }
}

/// Answer `requests` on `threads` scoped threads, each over a contiguous
/// share with a `QueryScratch` of its own: `answers[i]` answers
/// `requests[i]`, whatever the thread count.
pub fn run_on_threads<I, S>(
    index: &I,
    store: &S,
    requests: &[Request],
    threads: usize,
) -> Vec<Result<Answer, QueryError>>
where
    I: NodeAccess<2> + Sync,
    S: ObjectStore<2> + Sync,
{
    let share = requests.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = requests
            .chunks(share)
            .map(|part| {
                scope.spawn(move || {
                    let engine = QueryEngine::new(index, store);
                    let mut scratch = QueryScratch::new();
                    part.iter().map(|r| r.run(&engine, &mut scratch)).collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("a query thread panicked")).collect()
    })
}

/// The exact sum of the stats of every answered query. Each query charges
/// its own stats, so this equals the sequential total whatever the thread
/// count — except `node_disk_reads`, which depends on how concurrent
/// queries interleave on a shared buffer pool.
pub fn total_stats(answers: &[Result<Answer, QueryError>]) -> QueryStats {
    let mut total = QueryStats::default();
    for a in answers.iter().flatten() {
        total += *a.stats();
    }
    total
}

/// One AKNN answer line: ids plus the raw IEEE-754 bits of every
/// distance (or bound endpoints).
pub fn aknn_line(neighbors: &[Neighbor]) -> String {
    let mut out = String::new();
    for n in neighbors {
        let bits = match n.dist {
            DistBound::Exact(d) => format!("={:016x}", d.to_bits()),
            DistBound::Bounded { lo, hi } => {
                format!("[{:016x},{:016x}]", lo.to_bits(), hi.to_bits())
            }
        };
        out.push_str(&format!("{}{bits} ", n.id));
    }
    out.push('\n');
    out
}

/// One RKNN answer line: ids plus the bits of every interval endpoint.
pub fn rknn_line(items: &[RknnItem]) -> String {
    let mut out = String::new();
    for item in items {
        out.push_str(&format!("{} ", item.id));
        for iv in item.range.intervals() {
            out.push_str(&format!(
                "({}{:016x},{:016x}{}) ",
                if iv.lo_closed { "[" } else { "(" },
                iv.lo.to_bits(),
                iv.hi.to_bits(),
                if iv.hi_closed { "]" } else { ")" },
            ));
        }
    }
    out.push('\n');
    out
}

/// Canonical bytes of a workload's answers: ids and the raw bits of every
/// distance and endpoint, or the error, per slot; no wall-clock times.
/// Equal fingerprints ⟺ byte-identical result sets.
pub fn fingerprint(answers: &[Result<Answer, QueryError>]) -> String {
    let mut out = String::new();
    for (i, res) in answers.iter().enumerate() {
        out.push_str(&format!("[{i}] "));
        match res {
            Err(e) => out.push_str(&format!("err {e}\n")),
            Ok(Answer::Aknn(r)) => out.push_str(&aknn_line(&r.neighbors)),
            Ok(Answer::Rknn(r)) => out.push_str(&rknn_line(&r.items)),
        }
    }
    out
}

/// The count fields of a stats record, prune counts included: everything
/// except the wall clock and `node_disk_reads`.
pub fn counts(s: &QueryStats) -> Vec<u64> {
    s.counters().filter(|&(name, _)| name != "node_disk_reads").map(|(_, value)| value).collect()
}

/// One `alpha_distance_sq_bounded` call: candidate, threshold, seed, answer.
pub type KernelCall = (ObjectId, Threshold, f64, Option<f64>);

/// One `distance_profile_window` call: candidate, `[lo, hi]`, `top_sq`.
pub type Window = (ObjectId, f64, f64, Option<f64>);

/// `L2`, logging what the engine asked of it.
#[derive(Default)]
pub struct RecordingL2 {
    kernel: Mutex<Vec<KernelCall>>,
    windows: Mutex<Vec<Window>>,
}

impl RecordingL2 {
    /// The calls since the last `take`, in call order.
    pub fn take(&self) -> (Vec<KernelCall>, Vec<Window>) {
        (
            std::mem::take(&mut *self.kernel.lock().unwrap()),
            std::mem::take(&mut *self.windows.lock().unwrap()),
        )
    }
}

impl Metric<2> for RecordingL2 {
    fn name(&self) -> &'static str {
        "recording-l2"
    }
    fn dist(&self, a: &Point<2>, b: &Point<2>) -> f64 {
        L2.dist(a, b)
    }
    fn dist_sq(&self, a: &Point<2>, b: &Point<2>) -> f64 {
        L2.dist_sq(a, b)
    }
    fn min_box_dist_sq(&self, a: &Mbr<2>, b: &Mbr<2>) -> f64 {
        L2.min_box_dist_sq(a, b)
    }
    fn max_box_dist_sq(&self, a: &Mbr<2>, b: &Mbr<2>) -> f64 {
        L2.max_box_dist_sq(a, b)
    }
    fn alpha_distance_sq_bounded(
        &self,
        a: &FuzzyObject<2>,
        b: &FuzzyObject<2>,
        t: Threshold,
        upper_bound_sq: f64,
    ) -> Option<f64> {
        let d_sq = L2.alpha_distance_sq_bounded(a, b, t, upper_bound_sq);
        self.kernel.lock().unwrap().push((a.id(), t, upper_bound_sq, d_sq));
        d_sq
    }
    fn distance_profile(&self, a: &FuzzyObject<2>, q: &FuzzyObject<2>) -> DistanceProfile {
        L2.distance_profile(a, q)
    }
    fn distance_profile_window(
        &self,
        a: &FuzzyObject<2>,
        q: &FuzzyObject<2>,
        lo: f64,
        hi: f64,
        top_sq: Option<f64>,
    ) -> DistanceProfile {
        self.windows.lock().unwrap().push((a.id(), lo, hi, top_sq));
        L2.distance_profile_window(a, q, lo, hi, top_sq)
    }
}

/// The settle step's kernel calls in a query's log: step 1 runs at `hi`, so
/// with `lo < hi` they are the calls at `lo`.
pub fn settle_calls(kernel: &[KernelCall], lo: f64) -> impl Iterator<Item = &KernelCall> {
    kernel.iter().filter(move |c| c.1 == Threshold::at(lo))
}

/// What one RSS / RSS-ICR query over `[lo, hi]` (`lo < hi`) did with its
/// candidates, every list ascending in id.
#[derive(Debug, PartialEq, Eq)]
pub struct Settle {
    /// Candidates step 1 did not return: the ids given a kernel call at `lo`.
    pub outsiders: Vec<ObjectId>,
    /// Outsiders whose call came back `None`.
    pub dropped: Vec<ObjectId>,
    /// Step-1 neighbours that got no window.
    pub settled: Vec<ObjectId>,
    /// Ids that got a window.
    pub profiled: Vec<ObjectId>,
}

impl Settle {
    /// Read a query's log; `neighbors` are step 1's ids.
    pub fn of(kernel: &[KernelCall], windows: &[Window], lo: f64, neighbors: &[ObjectId]) -> Self {
        let at_lo: Vec<&KernelCall> = settle_calls(kernel, lo).collect();
        let sorted = |mut ids: Vec<ObjectId>| {
            ids.sort_unstable();
            ids
        };
        let profiled = sorted(windows.iter().map(|w| w.0).collect());
        Settle {
            outsiders: sorted(at_lo.iter().map(|c| c.0).collect()),
            dropped: sorted(at_lo.iter().filter(|c| c.3.is_none()).map(|c| c.0).collect()),
            settled: sorted(
                neighbors
                    .iter()
                    .copied()
                    .filter(|id| profiled.binary_search(id).is_err())
                    .collect(),
            ),
            profiled,
        }
    }
}
