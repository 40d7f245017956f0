//! Columnar min-reduction distance kernels.
//!
//! The α-distance evaluators spend almost all their time computing
//! `min_j ‖q − p_j‖²` over a contiguous membership prefix. When the points
//! are stored as dim-major columns this is a pure streaming reduction — but
//! the naive loop carries the running minimum through every iteration, so
//! the CPU serialises on the `min` latency chain and the compiler cannot
//! vectorise it (reassociating a float reduction is not allowed without
//! fast-math). The [`min_dist_sq_cols`] kernel breaks the chain with
//! [`LANES`] independent accumulators and folds them once at the end;
//! [`min_dist_sq_cols_scalar`] is the sequential reference it is tested
//! against.
//!
//! **Bitwise identity.** Both kernels return the *same bits* for the same
//! input, and the same bits as the row-major scan they replaced:
//!
//! * each candidate `s_j = Σ_d (c_d[j] − q_d)²` is accumulated in dimension
//!   order, exactly like [`Point::dist_sq`](crate::Point::dist_sq);
//! * every `s_j` is either `+0.0`, a positive float, `+∞`, or NaN (squares
//!   cannot produce `−0.0`), and [`f64::min`] ignores NaN operands, so the
//!   reduction is an exact *selection* over a set with a unique minimum
//!   bit-pattern — associative and commutative, hence independent of lane
//!   assignment and fold order.
//!
//! The differential suite in `crates/geom/tests` and the lane tests in this
//! module hold both kernels to that contract, including remainder lengths
//! (`n % LANES ≠ 0`), single points, and NaN inputs.

/// Number of independent accumulators in the unrolled kernel. Eight `f64`
/// lanes span two AVX2 registers (or four SSE2 ones) and comfortably cover
/// the `min` latency chain on current cores.
pub const LANES: usize = 8;

/// Sequential reference kernel: one accumulator, candidates reduced in
/// index order. This is the bit-level specification [`min_dist_sq_cols`]
/// is tested against.
pub fn min_dist_sq_cols_scalar<const D: usize>(cols: &[&[f64]; D], q: &[f64; D]) -> f64 {
    let n = cols[0].len();
    debug_assert!(cols.iter().all(|c| c.len() == n), "ragged columns");
    let mut best = f64::INFINITY;
    // `j` walks D parallel columns at once, so an iterator over any one
    // of them would not replace the index.
    #[allow(clippy::needless_range_loop)]
    for j in 0..n {
        let mut s = 0.0;
        for d in 0..D {
            let diff = cols[d][j] - q[d];
            s += diff * diff;
        }
        best = best.min(s);
    }
    best
}

/// Minimum squared Euclidean distance from `q` to the points stored in the
/// dim-major columns `cols` (column `d` holds coordinate `d` of every
/// point); `+∞` when the columns are empty. [`LANES`] independent
/// accumulators walk the columns in lock-step, then fold. Bitwise-equal to
/// [`min_dist_sq_cols_scalar`]; see the module docs for why the
/// reassociation is exact.
///
/// # Panics
/// In debug builds, when the columns differ in length.
pub fn min_dist_sq_cols<const D: usize>(cols: &[&[f64]; D], q: &[f64; D]) -> f64 {
    let n = cols[0].len();
    debug_assert!(cols.iter().all(|c| c.len() == n), "ragged columns");
    let mut acc = [f64::INFINITY; LANES];
    let split = n - n % LANES;
    let mut base = 0;
    while base < split {
        let mut s = [0.0f64; LANES];
        for d in 0..D {
            // Fixed-size chunk views let the compiler drop the bounds
            // checks and keep the per-dimension FMA stream contiguous.
            let chunk: &[f64; LANES] =
                cols[d][base..base + LANES].try_into().expect("chunk is LANES wide");
            let qd = q[d];
            for l in 0..LANES {
                let diff = chunk[l] - qd;
                s[l] += diff * diff;
            }
        }
        for l in 0..LANES {
            acc[l] = acc[l].min(s[l]);
        }
        base += LANES;
    }
    // Remainder rows land in distinct lanes, so they still join the final
    // fold exactly once each.
    for (l, j) in (split..n).enumerate() {
        let mut s = 0.0;
        for d in 0..D {
            let diff = cols[d][j] - q[d];
            s += diff * diff;
        }
        acc[l] = acc[l].min(s);
    }
    let mut best = acc[0];
    for &a in &acc[1..] {
        best = best.min(a);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (splitmix64), enough for layout
    /// torture without pulling in the rand stub.
    struct Mix(u64);
    impl Mix {
        fn next_f64(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0
        }
    }

    fn random_cols<const D: usize>(n: usize, seed: u64) -> (Vec<Vec<f64>>, [f64; D]) {
        let mut mix = Mix(seed);
        let cols = (0..D).map(|_| (0..n).map(|_| mix.next_f64()).collect()).collect();
        let q = std::array::from_fn(|_| mix.next_f64());
        (cols, q)
    }

    fn as_refs<const D: usize>(cols: &[Vec<f64>]) -> [&[f64]; D] {
        std::array::from_fn(|d| cols[d].as_slice())
    }

    #[test]
    fn lanes_match_scalar_bitwise_across_lengths() {
        // Every remainder class around multiples of LANES, plus 0 and 1.
        for n in 0..(4 * LANES + 3) {
            let (cols, q) = random_cols::<2>(n, 0x5eed + n as u64);
            let refs = as_refs::<2>(&cols);
            let s = min_dist_sq_cols_scalar(&refs, &q);
            let l = min_dist_sq_cols(&refs, &q);
            assert_eq!(s.to_bits(), l.to_bits(), "n={n}: scalar {s} vs lanes {l}");
        }
    }

    #[test]
    fn lanes_match_scalar_bitwise_in_3d() {
        for n in [1, 7, 8, 9, 31, 64, 100] {
            let (cols, q) = random_cols::<3>(n, 0xabc + n as u64);
            let refs = as_refs::<3>(&cols);
            assert_eq!(
                min_dist_sq_cols_scalar(&refs, &q).to_bits(),
                min_dist_sq_cols(&refs, &q).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn empty_columns_yield_infinity() {
        let refs: [&[f64]; 2] = [&[], &[]];
        assert_eq!(min_dist_sq_cols_scalar(&refs, &[0.0, 0.0]), f64::INFINITY);
        assert_eq!(min_dist_sq_cols(&refs, &[0.0, 0.0]), f64::INFINITY);
    }

    #[test]
    fn single_point_matches_dist_sq() {
        let refs: [&[f64]; 2] = [&[3.0], &[4.0]];
        let q = [0.0, 0.0];
        assert_eq!(min_dist_sq_cols_scalar(&refs, &q), 25.0);
        assert_eq!(min_dist_sq_cols(&refs, &q), 25.0);
    }

    #[test]
    fn nan_rows_are_ignored_by_both_kernels() {
        // NaN candidates must never win the reduction, in either kernel,
        // wherever they fall relative to the lane boundaries.
        for nan_at in 0..17 {
            let mut xs: Vec<f64> = (0..17).map(|i| 10.0 + i as f64).collect();
            let ys: Vec<f64> = (0..17).map(|i| 10.0 - i as f64).collect();
            xs[nan_at] = f64::NAN;
            let refs: [&[f64]; 2] = [&xs, &ys];
            let q = [0.0, 0.0];
            let s = min_dist_sq_cols_scalar(&refs, &q);
            let l = min_dist_sq_cols(&refs, &q);
            assert!(!s.is_nan() && !l.is_nan());
            assert_eq!(s.to_bits(), l.to_bits(), "nan_at={nan_at}");
        }
    }

    #[test]
    fn all_nan_input_yields_infinity() {
        let xs = [f64::NAN; 5];
        let ys = [f64::NAN; 5];
        let refs: [&[f64]; 2] = [&xs, &ys];
        let q = [0.0, 0.0];
        assert_eq!(min_dist_sq_cols_scalar(&refs, &q), f64::INFINITY);
        assert_eq!(min_dist_sq_cols(&refs, &q), f64::INFINITY);
    }

    #[test]
    fn duplicate_minima_are_stable() {
        // Several rows tie for the minimum; selection semantics make the
        // result well-defined regardless of which lane sees it first.
        let xs = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 1.0];
        let ys = [0.0; 10];
        let refs: [&[f64]; 2] = [&xs, &ys];
        let q = [0.0, 0.0];
        assert_eq!(min_dist_sq_cols_scalar(&refs, &q), 1.0);
        assert_eq!(min_dist_sq_cols(&refs, &q), 1.0);
    }
}
