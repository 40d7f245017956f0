//! Order statistics, spreads and the answer digest.

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the samples at or below it. `p = 99` on
/// 1 000 samples is element 990 (1-based), leaving ten beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median; the mean of the two middle elements for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max − min) / median`: how far apart repeated measurements of one
/// quantity landed, as a share of their middle value.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Latencies of a fixed list of queries, each executed several times:
/// `by_query[i]` holds every sample of query `i`, in execution order.
///
/// Each query does the same work every time, so the median of its samples
/// is its latency; a sample that caught a burst of stolen CPU, a page
/// fault or a neighbour's cache flush is an outlier of that query and
/// drops out. The percentiles are then taken over the queries.
#[derive(Clone, Debug, Default)]
pub struct Repeated {
    pub by_query: Vec<Vec<f64>>,
}

/// What a [`Repeated`] sample says about the query list.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

impl Repeated {
    pub fn new(queries: usize) -> Self {
        Self { by_query: vec![Vec::new(); queries] }
    }

    pub fn samples(&self) -> usize {
        self.by_query.iter().map(Vec::len).sum()
    }

    /// Fewest samples any executed query has.
    pub fn min_repeats(&self) -> usize {
        self.by_query.iter().map(Vec::len).filter(|n| *n > 0).min().unwrap_or(0)
    }

    /// Summary over the queries that were executed at all.
    pub fn latency(&self) -> Latency {
        let per_query: Vec<f64> =
            self.by_query.iter().filter(|s| !s.is_empty()).map(|s| median(s)).collect();
        let sorted = sorted(per_query);
        Latency {
            mean_ms: sorted.iter().sum::<f64>() / sorted.len().max(1) as f64,
            p50_ms: percentile(&sorted, 50.0),
            p99_ms: percentile(&sorted, 99.0),
        }
    }

    /// The same samples split in two by alternating repetitions: how far
    /// the two halves' summaries lie apart is the spread printed beside
    /// each timing metric.
    pub fn halves(&self) -> (Repeated, Repeated) {
        let pick = |parity: usize| Repeated {
            by_query: self
                .by_query
                .iter()
                .map(|s| s.iter().copied().skip(parity).step_by(2).collect())
                .collect(),
        };
        (pick(0), pick(1))
    }
}

/// `|a − b|` as a share of their mean.
pub fn gap(a: f64, b: f64) -> f64 {
    let mid = (a + b) / 2.0;
    if mid == 0.0 {
        0.0
    } else {
        (a - b).abs() / mid
    }
}

/// FNV-1a over 64-bit words: the digest recorded per workload for the
/// reference seed. Answers are bit-deterministic, so one differing id or
/// distance bit anywhere in a pass changes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Small samples never index out of range and pick the rank that
        // covers at least p percent.
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 51.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[9.0, 10.0, 12.0]), 0.3);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn repeated_samples_drop_a_stalled_execution() {
        let mut r = Repeated::new(3);
        // Query 0 takes 1 ms, query 1 takes 2 ms, query 2 was never run;
        // one execution of each caught a 50 ms stall.
        r.by_query[0] = vec![1.0, 51.0, 1.0, 1.0, 1.0];
        r.by_query[1] = vec![2.0, 2.0, 2.0, 52.0, 2.0];
        let l = r.latency();
        assert_eq!((l.mean_ms, l.p50_ms, l.p99_ms), (1.5, 1.0, 2.0));
        assert_eq!((r.samples(), r.min_repeats()), (10, 5));
        let (a, b) = r.halves();
        assert_eq!(a.by_query[0], vec![1.0, 1.0, 1.0]);
        assert_eq!(b.by_query[0], vec![51.0, 1.0]);
        assert_eq!(gap(9.0, 11.0), 0.2);
    }

    #[test]
    fn digest_depends_on_every_word_and_their_order() {
        let digest = |words: &[u64]| {
            let mut f = Fnv::default();
            words.iter().for_each(|&w| f.write(w));
            f.hex()
        };
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 3, 2]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 2, 4]));
        assert_eq!(digest(&[]), "cbf29ce484222325");
    }
}
