//! Fuzzy K-means — fuzzy c-means clustering with soft memberships.
//!
//! Each point holds a membership weight for every cluster; iterations update memberships
//! and weighted centroids. Approximation knobs: perforate refinement iterations (site 0),
//! perforate the membership-update loop (site 1), sample input, reduce precision.
//!
//! The fuzzifier is fixed at `FUZZIFIER` = 2, so a point's membership in cluster `c`
//! is `1 / sum_o d_c / d_o` over squared distances: the ratio's exponent
//! `1 / (FUZZIFIER - 1)` is 1, and `pow(x, 1)` is `x` bit for bit, so the ratio is used
//! as it is. The centroid weights keep `pow(w, 2)`, which `w * w` does not match bit for
//! bit for every `w`.

use crate::data::PointCloud;
use crate::kernel::{ApproxConfig, ApproxKernel, Cost, KernelOutput, KernelRun, Suite};
use crate::techniques::{Perforation, Precision};

/// Perforable site: outer refinement iterations.
pub const SITE_ITERATIONS: u32 = 0;
/// Perforable site: per-point membership update.
pub const SITE_MEMBERSHIP: u32 = 1;
/// The fuzzifier `m` of fuzzy c-means; the membership update relies on it being 2.
const FUZZIFIER: f64 = 2.0;

/// Fuzzy c-means clustering kernel.
#[derive(Debug, Clone)]
pub struct FuzzyKMeansKernel {
    points: PointCloud,
    k: usize,
    iterations: usize,
}

impl FuzzyKMeansKernel {
    /// Creates a kernel instance with explicit sizes.
    pub fn new(seed: u64, n_points: usize, dims: usize, k: usize, iterations: usize) -> Self {
        Self {
            points: PointCloud::gaussian_mixture(seed, n_points, dims, k),
            k,
            iterations,
        }
    }

    /// Small instance for tests and fast exploration.
    pub fn small(seed: u64) -> Self {
        Self::new(seed, 500, 4, 5, 12)
    }

    fn cluster(&self, config: &ApproxConfig) -> (Vec<f64>, Cost) {
        let n = self.points.len();
        let dims = self.points.dims;
        let iter_perf = config.perforation(SITE_ITERATIONS);
        let member_perf = config.perforation(SITE_MEMBERSHIP);
        let sample = Perforation::KeepFraction(config.input_fraction());
        let precision = config.precision;
        let mut cost = Cost::default();
        // An opaque copy of the fuzzifier keeps the weights below a call to `pow`: with a
        // constant exponent of 2 the compiler emits `w * w`, which differs from `pow` in
        // the last bit for some `w`.
        let fuzzifier = std::hint::black_box(FUZZIFIER);

        let mut centroids: Vec<Vec<f64>> = (0..self.k)
            .map(|c| self.points.point(c * n / self.k).to_vec())
            .collect();
        let mut memberships = vec![1.0 / self.k as f64; n * self.k];
        let mut dists = vec![0.0f64; self.k];
        let mut num = vec![0.0f64; dims];

        for it in 0..self.iterations {
            if !iter_perf.keeps(it, self.iterations) {
                continue;
            }
            // Membership update.
            for i in 0..n {
                if !sample.keeps(i, n) || !member_perf.keeps(i, n) {
                    continue;
                }
                for (d, c) in dists.iter_mut().zip(&centroids) {
                    *d = precision.quantize(self.points.dist2(i, c).max(1e-9));
                }
                cost.ops += (self.k * 3 * dims) as f64 * precision.op_cost();
                cost.bytes_touched += (self.k * dims) as f64 * 8.0;
                for c in 0..self.k {
                    let mut denom = 0.0;
                    for other in &dists {
                        denom += dists[c] / other;
                    }
                    memberships[i * self.k + c] = precision.quantize(1.0 / denom.max(1e-12));
                    cost.ops += self.k as f64 * 4.0 * precision.op_cost();
                }
            }
            // Centroid update.
            for c in 0..self.k {
                num.fill(0.0);
                let mut den = 0.0;
                for i in 0..n {
                    let w = memberships[i * self.k + c].powf(fuzzifier);
                    den += w;
                    for d in 0..dims {
                        num[d] += w * self.points.point(i)[d];
                    }
                }
                for d in 0..dims {
                    centroids[c][d] = precision.quantize(num[d] / den.max(1e-12));
                }
                cost.ops += (n * (dims + 2)) as f64 * precision.op_cost() * 0.25;
            }
        }
        (centroids.into_iter().flatten().collect(), cost)
    }
}

impl ApproxKernel for FuzzyKMeansKernel {
    fn name(&self) -> &'static str {
        "fuzzy_kmeans"
    }

    fn suite(&self) -> Suite {
        Suite::MineBench
    }

    fn candidate_configs(&self) -> Vec<ApproxConfig> {
        let mut cfgs = Vec::new();
        for p in [2u32, 3, 4] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_perforation(SITE_ITERATIONS, Perforation::TruncateBy(p))
                    .with_label(format!("iters-truncate{p}")),
            );
            cfgs.push(
                ApproxConfig::precise()
                    .with_perforation(SITE_MEMBERSHIP, Perforation::KeepEveryNth(p))
                    .with_label(format!("member-keep1of{p}")),
            );
        }
        for f in [0.6, 0.4] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_input_sampling(f)
                    .with_label(format!("sample{:.0}%", f * 100.0)),
            );
        }
        cfgs.push(
            ApproxConfig::precise()
                .with_precision(Precision::F32)
                .with_label("f32"),
        );
        cfgs.push(
            ApproxConfig::precise()
                .with_perforation(SITE_ITERATIONS, Perforation::TruncateBy(2))
                .with_precision(Precision::F32)
                .with_label("iters-truncate2+f32"),
        );
        cfgs
    }

    fn run(&self, config: &ApproxConfig) -> KernelRun {
        let (centroids, cost) = self.cluster(config);
        KernelRun::new(cost, KernelOutput::Vector(centroids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precise_centroids_are_finite() {
        let run = FuzzyKMeansKernel::small(3).run_precise();
        match &run.output {
            KernelOutput::Vector(c) => {
                assert_eq!(c.len(), 5 * 4);
                assert!(c.iter().all(|v| v.is_finite()));
            }
            _ => panic!("unexpected output"),
        }
    }

    #[test]
    fn truncation_reduces_work_and_keeps_centroids_close() {
        let k = FuzzyKMeansKernel::small(3);
        let precise = k.run_precise();
        let approx = k.run(
            &ApproxConfig::precise().with_perforation(SITE_ITERATIONS, Perforation::TruncateBy(2)),
        );
        assert!(approx.cost.ops < precise.cost.ops * 0.75);
        let inacc = approx.output.inaccuracy_vs(&precise.output);
        assert!(inacc < 25.0, "inaccuracy {inacc}%");
    }

    #[test]
    fn membership_perforation_cheaper_than_precise() {
        let k = FuzzyKMeansKernel::small(3);
        let precise = k.run_precise();
        let approx = k.run(
            &ApproxConfig::precise()
                .with_perforation(SITE_MEMBERSHIP, Perforation::KeepEveryNth(4)),
        );
        assert!(approx.cost.ops < precise.cost.ops);
    }

    #[test]
    fn candidates_nonempty_and_approximate() {
        let k = FuzzyKMeansKernel::small(3);
        let cfgs = k.candidate_configs();
        assert!(cfgs.len() >= 8);
        assert!(cfgs.iter().all(|c| !c.is_precise()));
    }
}
