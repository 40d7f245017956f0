//! The paper's synthetic dataset (§6.1).

use fuzzy_core::{FuzzyObject, ObjectId};
use fuzzy_geom::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the synthetic generator. Defaults reproduce §6.1.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticConfig {
    /// Number of objects `N` (Table 2 default: 50 000).
    pub num_objects: usize,
    /// Points per object (paper: 1 000).
    pub points_per_object: usize,
    /// Object radius (paper: 0.5).
    pub radius: f64,
    /// Gaussian membership spread `σ_x = σ_y` (paper: 0.5).
    pub sigma: f64,
    /// Side length of the square space (paper: 100).
    pub space: f64,
    /// Optional membership quantization level count (`None` keeps the raw
    /// continuous Gaussian values; the paper does not quantize).
    pub quantize_levels: Option<u32>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            num_objects: 50_000,
            points_per_object: 1_000,
            radius: 0.5,
            sigma: 0.5,
            space: 100.0,
            quantize_levels: None,
            seed: 0xF022_2010,
        }
    }
}

impl SyntheticConfig {
    /// Generate the dataset as an iterator (objects are independent, so
    /// the iterator is cheap to consume streaming into a store).
    pub fn generate(&self) -> impl Iterator<Item = FuzzyObject<2>> + '_ {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let cfg = *self;
        (0..self.num_objects).map(move |i| {
            let cx = rng.gen::<f64>() * cfg.space;
            let cy = rng.gen::<f64>() * cfg.space;
            cfg.one_object(ObjectId(i as u64), cx, cy, &mut rng)
        })
    }

    /// Generate a single query object at a random location (not part of
    /// the dataset; uses an id in the reserved upper range).
    pub fn query_object(&self, query_seed: u64) -> FuzzyObject<2> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ query_seed.rotate_left(17));
        let cx = rng.gen::<f64>() * self.space;
        let cy = rng.gen::<f64>() * self.space;
        self.one_object(ObjectId(u64::MAX - query_seed), cx, cy, &mut rng)
    }

    fn one_object(&self, id: ObjectId, cx: f64, cy: f64, rng: &mut StdRng) -> FuzzyObject<2> {
        let mut points = Vec::with_capacity(self.points_per_object);
        let mut memberships = Vec::with_capacity(self.points_per_object);
        let inv_2s2 = 1.0 / (2.0 * self.sigma * self.sigma);
        for _ in 0..self.points_per_object {
            // Uniform point in the disk (area-uniform via sqrt).
            let r = self.radius * rng.gen::<f64>().sqrt();
            let theta = rng.gen::<f64>() * std::f64::consts::TAU;
            let (dx, dy) = (r * theta.cos(), r * theta.sin());
            // Membership ∝ the 2-d Gaussian density at the offset; the
            // max-normalization implements the paper's "normalize the
            // probability values across 0 to 1" step (and guarantees a
            // non-empty kernel).
            let mut mu = (-(dx * dx + dy * dy) * inv_2s2).exp();
            if let Some(levels) = self.quantize_levels {
                let l = levels.max(2) as f64;
                mu = (mu * l).ceil().max(1.0) / l;
            }
            points.push(Point::xy(cx + dx, cy + dy));
            memberships.push(mu);
        }
        crate::normalized(id, points, memberships)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy_core::Threshold;

    fn small() -> SyntheticConfig {
        SyntheticConfig {
            num_objects: 20,
            points_per_object: 200,
            seed: 42,
            ..SyntheticConfig::default()
        }
    }

    #[test]
    fn generates_requested_shape() {
        let cfg = small();
        let objs: Vec<_> = cfg.generate().collect();
        assert_eq!(objs.len(), 20);
        for o in &objs {
            assert_eq!(o.len(), 200);
            // Support fits in a disk of the configured radius (diameter 1).
            let mbr = o.support_mbr();
            assert!(mbr.extent(0) <= 2.0 * cfg.radius + 1e-9);
            assert!(mbr.extent(1) <= 2.0 * cfg.radius + 1e-9);
            // Kernel non-empty, memberships in (0,1].
            assert!(o.memberships().iter().all(|&m| m > 0.0 && m <= 1.0));
            assert!(o.memberships().contains(&1.0));
        }
    }

    #[test]
    fn determinism() {
        let a: Vec<_> = small().generate().collect();
        let b: Vec<_> = small().generate().collect();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.points(), y.points());
            assert_eq!(x.memberships(), y.memberships());
        }
        // Different seed differs.
        let c: Vec<_> = SyntheticConfig { seed: 43, ..small() }.generate().collect();
        assert_ne!(a[0].points(), c[0].points());
    }

    #[test]
    fn membership_decays_from_center() {
        let cfg = small();
        let o = cfg.generate().next().unwrap();
        let center = o.rep_point();
        // Kernel point should be the closest point to the object centre:
        // check the empirical trend with a rank correlation style test.
        let mut close_mu = 0.0;
        let mut close_n = 0;
        let mut far_mu = 0.0;
        let mut far_n = 0;
        for (p, mu) in o.iter() {
            if p.dist(&center) < cfg.radius * 0.4 {
                close_mu += mu;
                close_n += 1;
            } else if p.dist(&center) > cfg.radius * 0.8 {
                far_mu += mu;
                far_n += 1;
            }
        }
        assert!(close_mu / close_n as f64 > far_mu / far_n as f64);
    }

    #[test]
    fn quantization_limits_distinct_levels() {
        let cfg = SyntheticConfig { quantize_levels: Some(16), ..small() };
        let o = cfg.generate().next().unwrap();
        assert!(o.distinct_levels().len() <= 17);
        // Cuts still shrink monotonically.
        let mut prev = usize::MAX;
        for v in [0.1, 0.4, 0.7, 1.0] {
            let n = o.cut_len(Threshold::at(v));
            assert!(n <= prev);
            prev = n;
        }
    }

    #[test]
    fn query_object_is_reproducible_and_distinct() {
        let cfg = small();
        let q1 = cfg.query_object(7);
        let q2 = cfg.query_object(7);
        assert_eq!(q1.points(), q2.points());
        let q3 = cfg.query_object(8);
        assert_ne!(q1.points(), q3.points());
    }
}
