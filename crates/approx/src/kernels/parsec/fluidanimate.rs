//! fluidanimate — smoothed-particle-hydrodynamics (SPH) fluid simulation.
//!
//! The PARSEC fluidanimate benchmark advances a particle fluid through time steps; most of
//! the work is the pairwise density/force computation between particles in neighbouring
//! grid cells, protected by per-cell locks in the parallel original. Approximation knobs:
//! perforate time steps (site 0), perforate the neighbour-interaction loop (site 1), elide
//! the per-cell synchronization (stale neighbour densities), and reduce precision.

use crate::data::PointCloud;
use crate::kernel::{ApproxConfig, ApproxKernel, Cost, KernelOutput, KernelRun, Suite};
use crate::techniques::{
    KindF32, KindF64, KindFixed16, OpCount, Perforation, Precision, PrecisionKind, SyncElision,
};

/// Perforable site: simulation time steps.
pub const SITE_TIME_STEPS: u32 = 0;
/// Perforable site: neighbour-interaction loop.
pub const SITE_NEIGHBOURS: u32 = 1;

/// Coordinates per particle.
const DIMS: usize = 3;

/// SPH fluid-simulation kernel.
#[derive(Debug, Clone)]
pub struct FluidanimateKernel {
    particles: PointCloud,
    steps: usize,
    interaction_radius: f64,
}

/// Per-particle coordinates as a structure of arrays: `[d][i]` is coordinate `d` of
/// particle `i`.
type Coords = [Vec<f64>; DIMS];

/// Particles whose densities one block of the density pass sums side by side.
const ROWS: usize = 4;

/// Per-pair state of a block of [`ROWS`] particles against every particle `j`, row-major
/// (`[r * n + j]`): its reach (see [`FluidanimateKernel::density_pass`]) and its density
/// contribution.
struct DensityRows {
    reach: Vec<f64>,
    contrib: Vec<f64>,
}

impl FluidanimateKernel {
    /// Creates a kernel instance with explicit sizes.
    pub fn new(seed: u64, n_particles: usize, steps: usize) -> Self {
        Self {
            particles: PointCloud::gaussian_mixture(seed, n_particles, DIMS, 6),
            steps,
            interaction_radius: 2.0,
        }
    }

    /// Small instance for tests and fast exploration.
    pub fn small(seed: u64) -> Self {
        Self::new(seed, 280, 8)
    }

    fn simulate(&self, config: &ApproxConfig) -> (Vec<f64>, Cost) {
        match config.precision {
            Precision::F64 => self.simulate_at::<KindF64>(config),
            Precision::F32 => self.simulate_at::<KindF32>(config),
            Precision::Fixed16 => self.simulate_at::<KindFixed16>(config),
        }
    }

    fn simulate_at<P: PrecisionKind>(&self, config: &ApproxConfig) -> (Vec<f64>, Cost) {
        let n = self.particles.len();
        let steps_perf = config.perforation(SITE_TIME_STEPS);
        let sync = config.sync;
        let mut ops = OpCount::<P>::default();
        let mut bytes = 0u64;

        let data = &self.particles.data;
        let mut positions: Coords =
            std::array::from_fn(|d| (0..n).map(|i| data[i * DIMS + d]).collect());
        let mut velocities: Coords = std::array::from_fn(|_| vec![0.0; n]);
        let mut densities: Vec<f64> = vec![1.0; n];
        let r2 = self.interaction_radius * self.interaction_radius;
        // Perforation decides by how many other particles were considered before j,
        // which is the same for every i.
        let mut keep = Vec::new();
        config
            .perforation(SITE_NEIGHBOURS)
            .fill_mask(n.saturating_sub(1), &mut keep);
        let reach: Vec<f64> = keep
            .iter()
            .map(|&k| if k { r2 } else { f64::NEG_INFINITY })
            .collect();
        let mut rows = DensityRows {
            reach: vec![0.0; ROWS * n],
            contrib: vec![0.0; ROWS * n],
        };

        for step in 0..self.steps {
            if !steps_perf.keeps(step, self.steps) {
                continue;
            }
            // Density pass. With elided synchronization, densities are only refreshed on
            // some steps and stale values are reused (mimicking racy reads).
            if sync.refreshes(step) {
                Self::density_pass(
                    &positions,
                    r2,
                    &reach,
                    &mut densities,
                    &mut rows,
                    &mut ops,
                    &mut bytes,
                );
            } else {
                ops.add(n as u64); // bookkeeping only
            }
            // Force + integration pass (pressure gradient toward less dense regions).
            for d in 0..DIMS {
                for i in 0..n {
                    let grad = (densities[i] - 1.0) * 0.01;
                    velocities[d][i] = P::quantize(velocities[d][i] * 0.98 - grad);
                    positions[d][i] = P::quantize(positions[d][i] + velocities[d][i] * 0.05);
                    ops.add_scaled(6);
                    bytes += 24;
                }
            }
        }
        (densities, Cost::new(ops.total(), bytes as f64))
    }

    /// One step's SPH densities: particle i's density is 1 plus the kernel weight of
    /// every kept particle within the interaction radius, summed in particle order.
    ///
    /// Particles go in blocks of [`ROWS`]. For each, a first pass computes every pair's
    /// contribution, `+0.0` for a pair that is skipped or out of range, where it
    /// vectorizes. Adding `+0.0` to a positive density leaves its bits unchanged, so
    /// summing every contribution in particle order equals adding only the pairs in
    /// range; the block's sums then run side by side, one chain of adds per particle.
    ///
    /// `reach[c]` is the squared radius `r2` when the c-th considered pair is kept and
    /// `-inf` when perforation skips it, so one comparison `d2 < reach` decides both.
    fn density_pass<P: PrecisionKind>(
        positions: &Coords,
        r2: f64,
        reach: &[f64],
        densities: &mut [f64],
        rows: &mut DensityRows,
        ops: &mut OpCount<P>,
        bytes: &mut u64,
    ) {
        let [x, y, z] = positions;
        let n = x.len();
        let kept = reach.iter().filter(|&&r| r != f64::NEG_INFINITY).count() as u64;
        for first in (0..n).step_by(ROWS) {
            let block = ROWS.min(n - first);
            let reach_rows = rows.reach.chunks_exact_mut(n.max(1));
            let contrib_rows = rows.contrib.chunks_exact_mut(n.max(1));
            for (r, (reach_row, contrib_row)) in reach_rows.zip(contrib_rows).enumerate() {
                let i = first + r;
                if r >= block {
                    contrib_row.fill(0.0);
                    continue;
                }
                // Pair (i, j) is the c-th considered, c = j or j - 1, and never j == i.
                reach_row[..i].copy_from_slice(&reach[..i]);
                reach_row[i] = f64::NEG_INFINITY;
                reach_row[i + 1..].copy_from_slice(&reach[i..]);
                let pairs = reach_row.iter().zip(contrib_row.iter_mut());
                let others = x.iter().zip(y).zip(z);
                for ((&reach, contrib), ((xj, yj), zj)) in pairs.zip(others) {
                    let (dx, dy, dz) = (x[i] - xj, y[i] - yj, z[i] - zj);
                    let d2 = dx * dx + dy * dy + dz * dz;
                    let w = (r2 - d2) / r2;
                    let kept = reach != f64::NEG_INFINITY;
                    let within = d2 < reach;
                    *contrib = if within { w * w * w } else { 0.0 };
                    ops.add_scaled_if(3 * DIMS as u64, kept);
                    ops.add_scaled_if(4, within);
                }
                *bytes += kept * 2 * DIMS as u64 * 8;
            }
            let mut rho = [1.0f64; ROWS];
            let [c0, c1, c2, c3] = [0, 1, 2, 3].map(|r| &rows.contrib[r * n..(r + 1) * n]);
            for (((a, b), c), d) in c0.iter().zip(c1).zip(c2).zip(c3) {
                rho[0] += a;
                rho[1] += b;
                rho[2] += c;
                rho[3] += d;
            }
            for (density, rho) in densities[first..first + block].iter_mut().zip(rho) {
                *density = P::quantize(rho);
            }
        }
    }
}

impl ApproxKernel for FluidanimateKernel {
    fn name(&self) -> &'static str {
        "fluidanimate"
    }

    fn suite(&self) -> Suite {
        Suite::Parsec
    }

    fn candidate_configs(&self) -> Vec<ApproxConfig> {
        let mut cfgs = Vec::new();
        for p in [2u32, 4] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_perforation(SITE_NEIGHBOURS, Perforation::KeepEveryNth(p))
                    .with_label(format!("neigh-keep1of{p}")),
            );
            cfgs.push(
                ApproxConfig::precise()
                    .with_perforation(SITE_TIME_STEPS, Perforation::SkipEveryNth(p.max(2)))
                    .with_label(format!("steps-skip1of{p}")),
            );
        }
        for s in [2u32, 4] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_sync(SyncElision::with_staleness(s))
                    .with_label(format!("elide-sync-stale{s}")),
            );
        }
        cfgs.push(
            ApproxConfig::precise()
                .with_precision(Precision::F32)
                .with_label("f32"),
        );
        cfgs.push(
            ApproxConfig::precise()
                .with_perforation(SITE_NEIGHBOURS, Perforation::KeepEveryNth(2))
                .with_sync(SyncElision::with_staleness(2))
                .with_label("neigh-keep1of2+stale2"),
        );
        cfgs
    }

    fn run(&self, config: &ApproxConfig) -> KernelRun {
        let (densities, cost) = self.simulate(config);
        KernelRun::new(cost, KernelOutput::Vector(densities))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precise_densities_are_positive() {
        let k = FluidanimateKernel::small(2);
        let run = k.run_precise();
        match &run.output {
            KernelOutput::Vector(d) => {
                assert_eq!(d.len(), 280);
                assert!(d.iter().all(|x| *x >= 1.0));
            }
            _ => panic!("unexpected output"),
        }
    }

    #[test]
    fn neighbour_perforation_halves_interaction_work() {
        let k = FluidanimateKernel::small(2);
        let precise = k.run_precise();
        let approx = k.run(
            &ApproxConfig::precise()
                .with_perforation(SITE_NEIGHBOURS, Perforation::KeepEveryNth(2)),
        );
        assert!(approx.cost.ops < precise.cost.ops * 0.75);
    }

    #[test]
    fn sync_elision_reduces_work_with_bounded_error() {
        let k = FluidanimateKernel::small(2);
        let precise = k.run_precise();
        let approx = k.run(&ApproxConfig::precise().with_sync(SyncElision::with_staleness(4)));
        assert!(approx.cost.ops < precise.cost.ops);
        let inacc = approx.output.inaccuracy_vs(&precise.output);
        assert!(inacc < 50.0, "stale densities caused {inacc}% error");
    }

    #[test]
    fn step_perforation_changes_output_mildly() {
        let k = FluidanimateKernel::small(2);
        let precise = k.run_precise();
        let approx = k.run(
            &ApproxConfig::precise()
                .with_perforation(SITE_TIME_STEPS, Perforation::SkipEveryNth(4)),
        );
        let inacc = approx.output.inaccuracy_vs(&precise.output);
        assert!(inacc > 0.0);
        assert!(inacc < 60.0);
    }
}
