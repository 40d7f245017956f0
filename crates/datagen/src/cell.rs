//! Cell-like dataset: the substitute for the paper's real microscopy data.
//!
//! The paper's "real" dataset consists of horizontal cells identified by
//! probabilistic segmentation of retinal microscopy images (Ljosa & Singh).
//! Those masks are not publicly available, so we synthesize objects with
//! the same salient statistics (see DESIGN.md §4):
//!
//! * **irregular, star-convex supports** — radius modulated by a random
//!   low-order Fourier series, instead of perfect circles;
//! * **fuzzy rim around a firm core** — membership is a logistic function
//!   of normalized depth inside the blob, with multiplicative speckle
//!   noise (segmentation confidence is high inside, decays at the rim);
//! * **8-bit quantization** — real probabilistic masks store one byte per
//!   pixel, giving at most 256 distinct membership levels;
//! * **spatial clustering** — cells cluster in tissue; centres are drawn
//!   from a Gaussian mixture rather than uniformly.

use fuzzy_core::{FuzzyObject, ObjectId};
use fuzzy_geom::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the cell-like generator.
#[derive(Clone, Copy, Debug)]
pub struct CellConfig {
    /// Number of objects.
    pub num_objects: usize,
    /// Points per object (paper: 1 000 sampled mask pixels).
    pub points_per_object: usize,
    /// Mean blob radius before shape perturbation.
    pub mean_radius: f64,
    /// Relative amplitude of the shape perturbation (0 = circle).
    pub irregularity: f64,
    /// Number of Gaussian placement clusters (0 = uniform placement).
    pub clusters: usize,
    /// Standard deviation of each placement cluster.
    pub cluster_spread: f64,
    /// Side length of the square space.
    pub space: f64,
    /// Membership quantization levels (8-bit masks: 256).
    pub quantize_levels: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CellConfig {
    fn default() -> Self {
        Self {
            num_objects: 50_000,
            points_per_object: 1_000,
            mean_radius: 0.5,
            irregularity: 0.35,
            clusters: 64,
            cluster_spread: 6.0,
            space: 100.0,
            quantize_levels: 256,
            seed: 0xCE11_2010,
        }
    }
}

/// A star-convex blob shape: `r(θ) = r0 · (1 + Σ a_j cos(jθ + φ_j))`.
struct BlobShape {
    r0: f64,
    harmonics: [(f64, f64); 4], // (amplitude, phase) for j = 2..=5
}

impl BlobShape {
    fn sample(rng: &mut StdRng, mean_radius: f64, irregularity: f64) -> Self {
        let r0 = mean_radius * (0.7 + 0.6 * rng.gen::<f64>());
        let mut harmonics = [(0.0, 0.0); 4];
        for (j, h) in harmonics.iter_mut().enumerate() {
            // Higher harmonics get smaller amplitudes (smooth outlines).
            let amp = irregularity * rng.gen::<f64>() / (j + 2) as f64;
            let phase = rng.gen::<f64>() * std::f64::consts::TAU;
            *h = (amp, phase);
        }
        Self { r0, harmonics }
    }

    fn radius(&self, theta: f64) -> f64 {
        let mut r = 1.0;
        for (j, &(amp, phase)) in self.harmonics.iter().enumerate() {
            r += amp * ((j as f64 + 2.0) * theta + phase).cos();
        }
        // The perturbation is < 1 in total, but clamp defensively.
        self.r0 * r.max(0.2)
    }
}

impl CellConfig {
    /// Generate the dataset.
    pub fn generate(&self) -> impl Iterator<Item = FuzzyObject<2>> + '_ {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let centers = self.cluster_centers(&mut rng);
        let cfg = *self;
        (0..self.num_objects).map(move |i| {
            let (cx, cy) = cfg.place(&centers, &mut rng);
            cfg.one_object(ObjectId(i as u64), cx, cy, &mut rng)
        })
    }

    /// A query object drawn from the same distribution.
    pub fn query_object(&self, query_seed: u64) -> FuzzyObject<2> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ query_seed.rotate_left(23));
        let centers = self.cluster_centers(&mut rng);
        let (cx, cy) = self.place(&centers, &mut rng);
        self.one_object(ObjectId(u64::MAX - query_seed), cx, cy, &mut rng)
    }

    fn cluster_centers(&self, rng: &mut StdRng) -> Vec<(f64, f64)> {
        (0..self.clusters)
            .map(|_| (rng.gen::<f64>() * self.space, rng.gen::<f64>() * self.space))
            .collect()
    }

    fn place(&self, centers: &[(f64, f64)], rng: &mut StdRng) -> (f64, f64) {
        if centers.is_empty() {
            return (rng.gen::<f64>() * self.space, rng.gen::<f64>() * self.space);
        }
        let (cx, cy) = centers[rng.gen_range(0..centers.len())];
        // Box–Muller for the cluster offset (keeps the dependency set to
        // `rand` alone; `rand_distr` would be overkill for one Gaussian).
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen::<f64>();
        let mag = (-2.0 * u1.ln()).sqrt() * self.cluster_spread;
        let x = (cx + mag * (std::f64::consts::TAU * u2).cos()).rem_euclid(self.space);
        let y = (cy + mag * (std::f64::consts::TAU * u2).sin()).rem_euclid(self.space);
        (x, y)
    }

    fn one_object(&self, id: ObjectId, cx: f64, cy: f64, rng: &mut StdRng) -> FuzzyObject<2> {
        let shape = BlobShape::sample(rng, self.mean_radius, self.irregularity);
        let mut points = Vec::with_capacity(self.points_per_object);
        let mut memberships = Vec::with_capacity(self.points_per_object);
        let levels = self.quantize_levels.max(2) as f64;
        for _ in 0..self.points_per_object {
            let theta = rng.gen::<f64>() * std::f64::consts::TAU;
            let edge = shape.radius(theta);
            // Area-uniform radial position within the blob.
            let u = rng.gen::<f64>().sqrt();
            let (dx, dy) = (u * edge * theta.cos(), u * edge * theta.sin());
            // Depth 1 at the centre, 0 at the rim; logistic confidence with
            // multiplicative speckle, quantized like an 8-bit mask.
            let depth = 1.0 - u;
            let core = 1.0 / (1.0 + (-(depth - 0.35) / 0.12).exp());
            let speckle = 1.0 - 0.15 * rng.gen::<f64>();
            let mu = ((core * speckle * levels).ceil().max(1.0)) / levels;
            points.push(Point::xy(cx + dx, cy + dy));
            memberships.push(mu);
        }
        crate::normalized(id, points, memberships)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CellConfig {
        CellConfig {
            num_objects: 15,
            points_per_object: 300,
            clusters: 3,
            seed: 7,
            ..CellConfig::default()
        }
    }

    #[test]
    fn valid_objects_with_quantized_memberships() {
        let cfg = small();
        let objs: Vec<_> = cfg.generate().collect();
        assert_eq!(objs.len(), 15);
        for o in &objs {
            assert_eq!(o.len(), 300);
            assert!(o.memberships().contains(&1.0));
            // 8-bit quantization bounds the number of distinct levels.
            assert!(o.distinct_levels().len() <= 257);
            // Supports stay within the space (toroidal placement).
            for p in o.points() {
                assert!(p.x() > -2.0 && p.x() < cfg.space + 2.0);
                assert!(p.y() > -2.0 && p.y() < cfg.space + 2.0);
            }
        }
    }

    #[test]
    fn blobs_are_irregular() {
        // A strongly perturbed blob should have an aspect-ratio or offset
        // distinguishable from a circle: compare support MBR extents.
        let cfg = CellConfig { irregularity: 0.5, ..small() };
        let any_noncircular = cfg.generate().any(|o| {
            let m = o.support_mbr();
            (m.extent(0) - m.extent(1)).abs() / m.extent(0).max(m.extent(1)) > 0.05
        });
        assert!(any_noncircular);
    }

    #[test]
    fn clustering_concentrates_centers() {
        let clustered =
            CellConfig { num_objects: 200, clusters: 2, cluster_spread: 1.0, ..small() };
        let uniform = CellConfig { num_objects: 200, clusters: 0, ..small() };
        let spread = |cfg: &CellConfig| {
            let centers: Vec<(f64, f64)> = cfg
                .generate()
                .map(|o| {
                    let c = o.support_mbr().center();
                    (c.x(), c.y())
                })
                .collect();
            let mx = centers.iter().map(|c| c.0).sum::<f64>() / centers.len() as f64;
            let my = centers.iter().map(|c| c.1).sum::<f64>() / centers.len() as f64;
            centers.iter().map(|c| ((c.0 - mx).powi(2) + (c.1 - my).powi(2)).sqrt()).sum::<f64>()
                / centers.len() as f64
        };
        assert!(spread(&clustered) < spread(&uniform));
    }

    #[test]
    fn determinism() {
        let a: Vec<_> = small().generate().collect();
        let b: Vec<_> = small().generate().collect();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.points(), y.points());
        }
    }

    #[test]
    fn membership_rim_is_fuzzier_than_core() {
        let o = small().generate().next().unwrap();
        // Points below full membership exist (a fuzzy rim)…
        assert!(o.memberships().iter().any(|&m| m < 0.5));
        // …and the kernel is a meaningful fraction but not everything.
        let kernel = o.memberships().iter().filter(|&&m| m == 1.0).count();
        assert!(kernel >= 1);
        assert!(kernel < o.len());
    }
}
