//! water_spatial — cell-list (spatial decomposition) molecular-dynamics simulation.
//!
//! Same physics as water_nsquared but neighbour interactions are restricted to adjacent
//! spatial cells, so the interaction count is already small. The paper observes that
//! water_spatial's approximate variants barely reduce execution time (its Fig. 1 points lie
//! on an almost vertical line) — perforating the short cell-neighbour loops removes little
//! work while still perturbing the output. The kernel reproduces that behaviour naturally.
//! Knobs: perforate cell-interaction loop (site 0), perforate time steps (site 1), elide
//! the cell-boundary synchronization, reduce precision.

use crate::data::PointCloud;
use crate::kernel::{ApproxConfig, ApproxKernel, Cost, KernelOutput, KernelRun, Suite};
use crate::techniques::{
    KindF32, KindF64, KindFixed16, OpCount, Perforation, Precision, PrecisionKind, SyncElision,
};

/// Perforable site: per-cell neighbour interactions.
pub const SITE_CELL_INTERACTIONS: u32 = 0;
/// Perforable site: simulation time steps.
pub const SITE_TIME_STEPS: u32 = 1;

/// Coordinates per molecule.
const DIMS: usize = 3;

/// A cell of the spatial grid.
type Cell = (i64, i64, i64);

/// The (dx, dy) offsets of a cell's neighbour rows, in key order. Each row holds the
/// cells (cx + dx, cy + dy, cz - 1..=cz + 1), one contiguous run of the sorted cells.
const NEIGHBOUR_ROWS: [(i64, i64); 9] = [
    (-1, -1),
    (-1, 0),
    (-1, 1),
    (0, -1),
    (0, 0),
    (0, 1),
    (1, -1),
    (1, 0),
    (1, 1),
];

/// Cell-list molecular-dynamics kernel.
#[derive(Debug, Clone)]
pub struct WaterSpatialKernel {
    molecules: PointCloud,
    steps: usize,
    cell_size: f64,
}

/// A step's cell list and the buffers its pair loop reuses across steps.
struct CellList {
    /// `(cell, molecule)` of every molecule, sorted: cells in key order, each cell's
    /// members in index order.
    entries: Vec<(Cell, usize)>,
    /// Each distinct cell of `entries` with the index of its first entry, then a
    /// sentinel whose first entry is `entries.len()`.
    cells: Vec<(Cell, usize)>,
    /// Position and molecule of each entry.
    slots: Vec<([f64; DIMS], usize)>,
    /// Forces on each entry.
    forces: Vec<[f64; DIMS]>,
    /// Perforation decisions of the current cell's neighbour loop.
    keep: Vec<bool>,
    /// Entries that interact with the current member, in neighbour order.
    interacting: Vec<usize>,
}

/// Squared distance, summed over coordinates in order.
#[inline]
fn dist2(a: [f64; DIMS], b: [f64; DIMS]) -> f64 {
    let mut d2 = 0.0;
    for d in 0..DIMS {
        let diff = a[d] - b[d];
        d2 += diff * diff;
    }
    d2
}

impl WaterSpatialKernel {
    /// Creates a kernel instance with explicit sizes.
    pub fn new(seed: u64, n_molecules: usize, steps: usize) -> Self {
        Self {
            molecules: PointCloud::gaussian_mixture(seed, n_molecules, DIMS, 5),
            steps,
            cell_size: 2.5,
        }
    }

    /// Small instance for tests and fast exploration.
    pub fn small(seed: u64) -> Self {
        Self::new(seed, 400, 12)
    }

    fn cell_of(&self, p: &[f64]) -> Cell {
        (
            (p[0] / self.cell_size).floor() as i64,
            (p[1] / self.cell_size).floor() as i64,
            (p[2] / self.cell_size).floor() as i64,
        )
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
        let inter_perf = config.perforation(SITE_CELL_INTERACTIONS);
        let step_perf = config.perforation(SITE_TIME_STEPS);
        let sync = config.sync;
        let mut ops = OpCount::<P>::default();
        let mut bytes = 0u64;

        let mut pos = self.molecules.data.clone();
        let mut vel = vec![0.0f64; n * DIMS];
        let mut energy = 0.0f64;
        let mut forces = vec![0.0f64; n * DIMS];
        let mut cells = CellList {
            entries: (0..n).map(|i| ((0, 0, 0), i)).collect(),
            cells: Vec::with_capacity(n + 1),
            slots: vec![([0.0; DIMS], 0); n],
            forces: vec![[0.0; DIMS]; n],
            keep: Vec::with_capacity(n),
            interacting: vec![0; n],
        };

        for step in 0..self.steps {
            if !step_perf.keeps(step, self.steps) {
                continue;
            }
            // Build cell lists (this work is not perforable — it is the fixed overhead that
            // makes water_spatial's execution time insensitive to approximation).
            // Sorting the (cell, molecule) pairs, which are distinct, yields the cells in
            // key order and each cell's members in index order: the order every
            // perforation decision and floating-point accumulation follows. The entries
            // keep the last step's order, which is nearly sorted already.
            for (cell, i) in &mut cells.entries {
                *cell = self.cell_of(&pos[*i * DIMS..*i * DIMS + DIMS]);
                ops.add(6);
                bytes += 24;
            }
            cells.entries.sort_unstable();
            // With elided cell-boundary synchronization, forces are only recomputed on
            // refresh steps; other steps integrate with the stale force field (the racy
            // shared-state analogue), which also skips the interaction work.
            if sync.refreshes(step) {
                energy = self.cell_forces(
                    &pos,
                    inter_perf,
                    &mut cells,
                    &mut forces,
                    &mut ops,
                    &mut bytes,
                );
            }
            for ((v, p), f) in vel.iter_mut().zip(&mut pos).zip(&forces) {
                *v = P::quantize(*v + f * 1e-4);
                *p = P::quantize(*p + *v * 0.01);
                ops.add_scaled(4);
            }
        }
        (energy, Cost::new(ops.total(), bytes as f64))
    }

    /// One step's interactions between molecules of neighbouring cells, written to
    /// `forces`; returns the step's potential energy.
    ///
    /// Cells are visited in key order. A cell's neighbours are the 9 rows of
    /// [`NEIGHBOUR_ROWS`], each a contiguous run of the sorted entries. The bounds of a
    /// row are found by two cursors over the distinct cells that only move forward as
    /// the visited cell does, and the 9 runs list the neighbour molecules in key order.
    fn cell_forces<P: PrecisionKind>(
        &self,
        pos: &[f64],
        inter_perf: Perforation,
        cells: &mut CellList,
        forces: &mut [f64],
        ops: &mut OpCount<P>,
        bytes: &mut u64,
    ) -> f64 {
        let CellList {
            entries,
            cells,
            slots,
            forces: sorted_forces,
            keep,
            interacting,
        } = cells;
        cells.clear();
        for (a, &(cell, i)) in entries.iter().enumerate() {
            if cells.last().is_none_or(|&(last, _)| last != cell) {
                cells.push((cell, a));
            }
            slots[a] = (std::array::from_fn(|d| pos[i * DIMS + d]), i);
        }
        let n_cells = cells.len();
        cells.push(((i64::MAX, i64::MAX, i64::MAX), entries.len()));
        sorted_forces.fill([0.0; DIMS]);
        let cut2 = self.cell_size * self.cell_size;
        let mut step_energy = 0.0f64;
        // Per row, the cells [row_start, row_end) of the current cell's row.
        let mut row_start = [0usize; 9];
        let mut row_end = [0usize; 9];
        let mut runs: [std::ops::Range<usize>; 9] = std::array::from_fn(|_| 0..0);
        for c in 0..n_cells {
            let ((cx, cy, cz), first) = cells[c];
            let last = cells[c + 1].1;
            ops.add(27);
            let mut neighbours = 0;
            for (r, &(dx, dy)) in NEIGHBOUR_ROWS.iter().enumerate() {
                let lo = (cx + dx, cy + dy, cz - 1);
                let hi = (cx + dx, cy + dy, cz + 1);
                while row_start[r] < n_cells && cells[row_start[r]].0 < lo {
                    row_start[r] += 1;
                }
                row_end[r] = row_end[r].max(row_start[r]);
                while row_end[r] < n_cells && cells[row_end[r]].0 <= hi {
                    row_end[r] += 1;
                }
                runs[r] = cells[row_start[r]].1..cells[row_end[r]].1;
                neighbours += runs[r].len();
            }
            inter_perf.fill_mask(neighbours, keep);
            for a in first..last {
                let (pa, i) = slots[a];
                // The interacting neighbours, branch-free and in key order: a later
                // molecule (by index), kept by perforation, within the cutoff. The k-th
                // later neighbour is perforated by keep[k].
                let mut k = 0usize;
                let mut found = 0usize;
                for run in runs.iter().cloned() {
                    for (b, &(pb, j)) in run.clone().zip(&slots[run]) {
                        let later = j > i;
                        let kept = keep[k];
                        k += usize::from(later);
                        let d2 = dist2(pa, pb).max(0.25);
                        interacting[found] = b;
                        found += usize::from(later & kept & (d2 <= cut2));
                    }
                }
                // The force math of each interacting pair, in the same order.
                for &b in &interacting[..found] {
                    let pb = slots[b].0;
                    let d2 = dist2(pa, pb).max(0.25);
                    let inv6 = 1.0 / (d2 * d2 * d2);
                    let inv12 = inv6 * inv6;
                    step_energy += P::quantize(4.0 * (inv12 - inv6));
                    let fmag = P::quantize(24.0 * (2.0 * inv12 - inv6) / d2);
                    for d in 0..DIMS {
                        let diff = pa[d] - pb[d];
                        sorted_forces[a][d] += fmag * diff;
                        sorted_forces[b][d] -= fmag * diff;
                    }
                    ops.add_scaled(10 + 4 * DIMS as u64);
                    *bytes += 4 * DIMS as u64 * 8;
                }
            }
        }
        for (&(_, i), f) in slots.iter().zip(sorted_forces.iter()) {
            forces[i * DIMS..i * DIMS + DIMS].copy_from_slice(f);
        }
        step_energy
    }
}

impl ApproxKernel for WaterSpatialKernel {
    fn name(&self) -> &'static str {
        "water_spatial"
    }

    fn suite(&self) -> Suite {
        Suite::Splash2
    }

    fn candidate_configs(&self) -> Vec<ApproxConfig> {
        let mut cfgs = Vec::new();
        for p in [2u32, 3, 4] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_perforation(SITE_CELL_INTERACTIONS, Perforation::SkipEveryNth(p.max(2)))
                    .with_label(format!("cells-skip1of{p}")),
            );
            cfgs.push(
                ApproxConfig::precise()
                    .with_perforation(SITE_CELL_INTERACTIONS, Perforation::KeepEveryNth(p))
                    .with_label(format!("cells-keep1of{p}")),
            );
        }
        cfgs.push(
            ApproxConfig::precise()
                .with_sync(SyncElision::with_staleness(2))
                .with_label("elide-sync-stale2"),
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
    fn precise_run_is_finite() {
        let run = WaterSpatialKernel::small(8).run_precise();
        match run.output {
            KernelOutput::Scalar(e) => assert!(e.is_finite()),
            _ => panic!("unexpected output"),
        }
        assert!(run.cost.ops > 0.0);
    }

    #[test]
    fn perforation_saves_less_work_than_in_nsquared() {
        // The defining characteristic of water_spatial in the paper: approximation barely
        // reduces execution time because the cell-list overhead dominates.
        let k = WaterSpatialKernel::small(8);
        let precise = k.run_precise();
        let approx = k.run(
            &ApproxConfig::precise()
                .with_perforation(SITE_CELL_INTERACTIONS, Perforation::KeepEveryNth(4)),
        );
        let ratio = approx.cost.ops / precise.cost.ops;
        assert!(
            ratio > 0.2,
            "cell-list overhead should keep ratio meaningful: {ratio}"
        );
        assert!(ratio < 1.0);
    }

    #[test]
    fn deterministic_output() {
        let k = WaterSpatialKernel::small(8);
        assert_eq!(k.run_precise().output, k.run_precise().output);
    }

    #[test]
    fn all_candidates_reduce_or_preserve_work() {
        let k = WaterSpatialKernel::small(8);
        let precise = k.run_precise();
        for cfg in k.candidate_configs() {
            let run = k.run(&cfg);
            // Synchronization elision perturbs the particle trajectory, which can shift a
            // few particles across cell boundaries and add a handful of neighbour pairs;
            // allow a small tolerance for that second-order effect.
            assert!(
                run.cost.ops <= precise.cost.ops * 1.10,
                "{} increased work beyond tolerance",
                cfg.label
            );
        }
    }
}
