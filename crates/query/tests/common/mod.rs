//! Shared by the query suites: `L2` behind a wrapper that logs every kernel
//! call and every windowed profile, and what RSS's settle step did as read
//! off that log.
#![allow(dead_code)] // each suite uses its own part

use fuzzy_core::metric::{Metric, L2};
use fuzzy_core::{DistanceProfile, FuzzyObject, ObjectId, Threshold};
use fuzzy_geom::{Mbr, Point};
use std::sync::Mutex;

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
