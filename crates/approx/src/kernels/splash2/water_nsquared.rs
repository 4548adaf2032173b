//! water_nsquared — O(n²) molecular-dynamics simulation of water molecules.
//!
//! The SPLASH-2 water-nsquared application evaluates pairwise intermolecular forces
//! between all molecule pairs each time step. Approximation knobs: perforate the pairwise
//! force loop (site 0), perforate time steps (site 1), reduce precision, and elide the
//! inter-thread accumulation synchronization (stale partial forces).

use crate::data::PointCloud;
use crate::kernel::{ApproxConfig, ApproxKernel, Cost, KernelOutput, KernelRun, Suite};
use crate::techniques::{
    KindF32, KindF64, KindFixed16, OpCount, Perforation, Precision, PrecisionKind, SyncElision,
};

/// Perforable site: pairwise force evaluation.
pub const SITE_PAIR_FORCES: u32 = 0;
/// Perforable site: simulation time steps.
pub const SITE_TIME_STEPS: u32 = 1;

/// Coordinates per molecule.
const DIMS: usize = 3;

/// O(n²) molecular-dynamics kernel.
#[derive(Debug, Clone)]
pub struct WaterNsquaredKernel {
    molecules: PointCloud,
    steps: usize,
}

/// Per-molecule coordinates as a structure of arrays: `[d][i]` is coordinate `d` of
/// molecule `i`.
type Coords = [Vec<f64>; DIMS];

/// The pair math of one row of the pair triangle, for `j` in `i + 1..n`: the pair's
/// energy and its force on `i` (`fmag * diff`), which `j` receives negated.
struct PairRow {
    energy: Vec<f64>,
    force: Vec<[f64; DIMS]>,
}

impl WaterNsquaredKernel {
    /// Creates a kernel instance with explicit sizes.
    pub fn new(seed: u64, n_molecules: usize, steps: usize) -> Self {
        Self {
            molecules: PointCloud::gaussian_mixture(seed, n_molecules, DIMS, 5),
            steps,
        }
    }

    /// Small instance for tests and fast exploration.
    pub fn small(seed: u64) -> Self {
        Self::new(seed, 220, 10)
    }

    fn simulate(&self, config: &ApproxConfig) -> (f64, Cost) {
        match config.precision {
            Precision::F64 => self.simulate_at::<KindF64>(config),
            Precision::F32 => self.simulate_at::<KindF32>(config),
            Precision::Fixed16 => self.simulate_at::<KindFixed16>(config),
        }
    }

    fn simulate_at<P: PrecisionKind>(&self, config: &ApproxConfig) -> (f64, Cost) {
        let n = self.molecules.len();
        let step_perf = config.perforation(SITE_TIME_STEPS);
        let mut ops = OpCount::<P>::default();
        let mut bytes = 0u64;

        let data = &self.molecules.data;
        let mut pos: Coords = std::array::from_fn(|d| (0..n).map(|i| data[i * DIMS + d]).collect());
        let mut vel: Coords = std::array::from_fn(|_| vec![0.0; n]);
        let mut forces = vec![[0.0; DIMS]; n];
        let mut row = PairRow {
            energy: vec![0.0; n],
            force: vec![[0.0; DIMS]; n],
        };
        // Pairs are numbered row by row over i < j. Perforation keeps pair p when
        // keep[p]; with elided synchronization, its coordinate-d force update is applied
        // when refresh[p + 1 + d] (lost updates from racy accumulation otherwise).
        let total_pairs = n * n.saturating_sub(1) / 2;
        let mut keep = Vec::new();
        config
            .perforation(SITE_PAIR_FORCES)
            .fill_mask(total_pairs, &mut keep);
        let mut refresh = Vec::new();
        config.sync.fill_mask(total_pairs + DIMS, &mut refresh);
        let mut potential_energy = 0.0f64;

        for step in 0..self.steps {
            if !step_perf.keeps(step, self.steps) {
                continue;
            }
            forces.fill([0.0; DIMS]);
            let step_energy = Self::pair_forces(
                &pos,
                &keep,
                &refresh,
                &mut forces,
                &mut row,
                &mut ops,
                &mut bytes,
            );
            // Integrate.
            for d in 0..DIMS {
                for i in 0..n {
                    vel[d][i] = P::quantize(vel[d][i] + forces[i][d] * 1e-4);
                    pos[d][i] = P::quantize(pos[d][i] + vel[d][i] * 0.01);
                    ops.add_scaled(4);
                }
            }
            potential_energy = step_energy;
        }
        (potential_energy, Cost::new(ops.total(), bytes as f64))
    }

    /// One step's Lennard-Jones 6-12 interactions of every kept pair, added into
    /// `forces`; returns the step's potential energy.
    ///
    /// Each row i runs in two passes. The first computes the pair math of every j > i,
    /// kept or not, into `row`; no value there depends on the order of pairs, so it
    /// vectorizes. The second walks the kept pairs in order and accumulates energy and
    /// forces exactly as one pass would.
    fn pair_forces<P: PrecisionKind>(
        pos: &Coords,
        keep: &[bool],
        refresh: &[bool],
        forces: &mut [[f64; DIMS]],
        row: &mut PairRow,
        ops: &mut OpCount<P>,
        bytes: &mut u64,
    ) -> f64 {
        let [x, y, z] = pos;
        let n = x.len();
        let mut step_energy = 0.0f64;
        let mut first_pair = 0usize;
        for i in 0..n {
            let len = n - i - 1;
            let energy = &mut row.energy[..len];
            let force = &mut row.force[..len];
            let others = x[i + 1..].iter().zip(&y[i + 1..]).zip(&z[i + 1..]);
            for ((e, g), ((xj, yj), zj)) in energy.iter_mut().zip(force.iter_mut()).zip(others) {
                let (dx, dy, dz) = (x[i] - xj, y[i] - yj, z[i] - zj);
                let d2 = (dx * dx + dy * dy + dz * dz).max(0.25);
                let inv6 = 1.0 / (d2 * d2 * d2);
                let inv12 = inv6 * inv6;
                *e = P::quantize(4.0 * (inv12 - inv6));
                let fmag = P::quantize(24.0 * (2.0 * inv12 - inv6) / d2);
                *g = [fmag * dx, fmag * dy, fmag * dz];
            }
            let (done, later) = forces.split_at_mut(i + 1);
            let mut fi = done[i];
            let pairs = keep[first_pair..first_pair + len]
                .iter()
                .zip(refresh[first_pair + 1..].windows(DIMS));
            let math = energy.iter().zip(force.iter()).zip(later);
            for ((&kept, sync), ((&e, g), fj)) in pairs.zip(math) {
                if !kept {
                    continue;
                }
                step_energy += e;
                for d in 0..DIMS {
                    if sync[d] {
                        fi[d] += g[d];
                        fj[d] -= g[d];
                    }
                }
                ops.add_scaled(10 + 4 * DIMS as u64);
                *bytes += 4 * DIMS as u64 * 8;
            }
            done[i] = fi;
            first_pair += len;
        }
        step_energy
    }
}

impl ApproxKernel for WaterNsquaredKernel {
    fn name(&self) -> &'static str {
        "water_nsquared"
    }

    fn suite(&self) -> Suite {
        Suite::Splash2
    }

    fn candidate_configs(&self) -> Vec<ApproxConfig> {
        let mut cfgs = Vec::new();
        for p in [2u32, 3, 4, 8] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_perforation(SITE_PAIR_FORCES, Perforation::SkipEveryNth(p.max(2)))
                    .with_label(format!("pairs-skip1of{p}")),
            );
        }
        for p in [2u32, 4] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_perforation(SITE_PAIR_FORCES, Perforation::KeepEveryNth(p))
                    .with_label(format!("pairs-keep1of{p}")),
            );
        }
        cfgs.push(
            ApproxConfig::precise()
                .with_perforation(SITE_TIME_STEPS, Perforation::SkipEveryNth(5))
                .with_label("steps-skip1of5"),
        );
        cfgs.push(
            ApproxConfig::precise()
                .with_sync(SyncElision::with_staleness(3))
                .with_label("elide-sync-stale3"),
        );
        cfgs.push(
            ApproxConfig::precise()
                .with_precision(Precision::F32)
                .with_label("f32"),
        );
        cfgs
    }

    fn run(&self, config: &ApproxConfig) -> KernelRun {
        let (energy, cost) = self.simulate(config);
        KernelRun::new(cost, KernelOutput::Scalar(energy.abs() + 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precise_energy_is_finite() {
        let run = WaterNsquaredKernel::small(4).run_precise();
        match run.output {
            KernelOutput::Scalar(e) => assert!(e.is_finite() && e > 0.0),
            _ => panic!("unexpected output"),
        }
    }

    #[test]
    fn pair_perforation_scales_work_down() {
        let k = WaterNsquaredKernel::small(4);
        let precise = k.run_precise();
        let half = k.run(
            &ApproxConfig::precise()
                .with_perforation(SITE_PAIR_FORCES, Perforation::KeepEveryNth(2)),
        );
        let ratio = half.cost.ops / precise.cost.ops;
        assert!(ratio < 0.75, "expected large reduction, got ratio {ratio}");
    }

    #[test]
    fn skip_perforation_error_smaller_than_keep() {
        // Seed 2 gives a molecular configuration whose trajectory stays numerically
        // stable under mild (1-in-8 skip) perforation; chaotic configurations can diverge
        // to ~100% error under any perturbation, which would test the weather, not the
        // perforation ordering.
        let k = WaterNsquaredKernel::small(2);
        let precise = k.run_precise();
        let mild = k.run(
            &ApproxConfig::precise()
                .with_perforation(SITE_PAIR_FORCES, Perforation::SkipEveryNth(8)),
        );
        let aggressive = k.run(
            &ApproxConfig::precise()
                .with_perforation(SITE_PAIR_FORCES, Perforation::KeepEveryNth(4)),
        );
        let e_mild = mild.output.inaccuracy_vs(&precise.output);
        let e_aggr = aggressive.output.inaccuracy_vs(&precise.output);
        assert!(
            e_mild <= e_aggr + 5.0,
            "mild {e_mild}% vs aggressive {e_aggr}%"
        );
    }

    #[test]
    fn f32_precision_has_small_error() {
        let k = WaterNsquaredKernel::small(4);
        let precise = k.run_precise();
        let f32run = k.run(&ApproxConfig::precise().with_precision(Precision::F32));
        let inacc = f32run.output.inaccuracy_vs(&precise.output);
        assert!(inacc < 10.0, "f32 error {inacc}%");
    }
}
