//! SEMPHY — maximum-likelihood phylogenetic tree reconstruction.
//!
//! SEMPHY alternates between estimating a pairwise distance matrix from aligned sequences
//! and improving the tree (structural EM). The kernel computes evolutionary distances from
//! synthetic related sequences, builds a neighbour-joining-style tree, and refines branch
//! lengths iteratively. Knobs: perforate the distance-matrix loop (site 0), perforate the
//! refinement iterations (site 1), sample sequence columns, reduce precision.

use crate::data::{related_sequences, DNA_ALPHABET};
use crate::kernel::{ApproxConfig, ApproxKernel, Cost, KernelOutput, KernelRun, Suite};
use crate::techniques::{Perforation, Precision};

/// Perforable site: pairwise distance estimation.
pub const SITE_DISTANCES: u32 = 0;
/// Perforable site: branch-length refinement iterations.
pub const SITE_REFINEMENT: u32 = 1;

/// Phylogenetic-reconstruction kernel.
#[derive(Debug, Clone)]
pub struct SemphyKernel {
    sequences: Vec<Vec<u8>>,
    refinement_iters: usize,
}

impl SemphyKernel {
    /// Creates a kernel instance with explicit sizes.
    pub fn new(seed: u64, taxa: usize, seq_len: usize) -> Self {
        Self {
            sequences: related_sequences(seed, taxa, seq_len, 0.08, &DNA_ALPHABET),
            refinement_iters: 12,
        }
    }

    /// Small instance for tests and fast exploration.
    pub fn small(seed: u64) -> Self {
        Self::new(seed, 14, 600)
    }

    fn reconstruct(&self, config: &ApproxConfig) -> (Vec<f64>, Cost) {
        let n = self.sequences.len();
        let dist_perf = config.perforation(SITE_DISTANCES);
        let refine_perf = config.perforation(SITE_REFINEMENT);
        let col_sample = Perforation::KeepFraction(config.input_fraction());
        let precision = config.precision;
        let mut cost = Cost::default();

        // Pairwise Jukes-Cantor-style distances.
        let mut dist = vec![0.0f64; n * n];
        let total_pairs = n * n.saturating_sub(1) / 2;
        let mut pair_index = 0usize;
        for a in 0..n {
            for b in (a + 1)..n {
                let keep = dist_perf.keeps(pair_index, total_pairs);
                pair_index += 1;
                let len = self.sequences[a].len().min(self.sequences[b].len());
                let d = if keep && len > 0 {
                    let mut mismatches = 0.0f64;
                    let mut compared = 0.0f64;
                    for i in 0..len {
                        if !col_sample.keeps(i, len) {
                            continue;
                        }
                        compared += 1.0;
                        if self.sequences[a][i] != self.sequences[b][i] {
                            mismatches += 1.0;
                        }
                        cost.ops += 2.0 * precision.op_cost();
                        cost.bytes_touched += 2.0;
                    }
                    let p = (mismatches / compared.max(1.0)).min(0.70);
                    precision.quantize(-0.75 * (1.0 - 4.0 * p / 3.0).ln())
                } else {
                    // Skipped pair: fall back to a crude constant distance.
                    0.5
                };
                dist[a * n + b] = d;
                dist[b * n + a] = d;
            }
        }

        // Greedy neighbour-joining-like clustering: repeatedly join the closest pair and
        // record the join distance (these joins are the tree's branch lengths).
        let mut active: Vec<usize> = (0..n).collect();
        let mut branch_lengths = Vec::new();
        let mut working = dist.clone();
        while active.len() > 1 {
            let mut best = (0usize, 1usize, f64::INFINITY);
            for (ia, &a) in active.iter().enumerate() {
                for &b in active.iter().skip(ia + 1) {
                    let d = working[a * n + b];
                    if d < best.2 {
                        best = (a, b, d);
                    }
                    cost.ops += 1.0;
                }
            }
            let (a, b, d) = best;
            branch_lengths.push(d / 2.0);
            // Merge b into a (average linkage).
            for &c in &active {
                if c != a && c != b {
                    let nd = (working[a * n + c] + working[b * n + c]) / 2.0;
                    working[a * n + c] = nd;
                    working[c * n + a] = nd;
                    cost.ops += 3.0 * precision.op_cost();
                }
            }
            active.retain(|&x| x != b);
        }

        // Iterative branch-length refinement (perforable): smooth adjacent branch lengths
        // toward local consistency (a proxy for likelihood optimization).
        for it in 0..self.refinement_iters {
            if !refine_perf.keeps(it, self.refinement_iters) {
                continue;
            }
            for i in 1..branch_lengths.len() {
                let avg = (branch_lengths[i - 1] + branch_lengths[i]) / 2.0;
                branch_lengths[i] = precision.quantize(branch_lengths[i] * 0.8 + avg * 0.2);
                cost.ops += 4.0 * precision.op_cost();
            }
        }
        (branch_lengths, cost)
    }
}

impl ApproxKernel for SemphyKernel {
    fn name(&self) -> &'static str {
        "semphy"
    }

    fn suite(&self) -> Suite {
        Suite::MineBench
    }

    fn candidate_configs(&self) -> Vec<ApproxConfig> {
        let mut cfgs = Vec::new();
        for p in [2u32, 3, 4] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_perforation(SITE_DISTANCES, Perforation::SkipEveryNth(p.max(2)))
                    .with_label(format!("dist-skip1of{p}")),
            );
        }
        for p in [2u32, 4] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_perforation(SITE_REFINEMENT, Perforation::TruncateBy(p))
                    .with_label(format!("refine-truncate{p}")),
            );
        }
        for f in [0.6, 0.4] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_input_sampling(f)
                    .with_label(format!("cols{:.0}%", f * 100.0)),
            );
        }
        cfgs.push(
            ApproxConfig::precise()
                .with_precision(Precision::F32)
                .with_label("f32"),
        );
        cfgs
    }

    fn run(&self, config: &ApproxConfig) -> KernelRun {
        let (branches, cost) = self.reconstruct(config);
        KernelRun::new(cost, KernelOutput::Vector(branches))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precise_tree_has_expected_join_count() {
        let k = SemphyKernel::small(3);
        let run = k.run_precise();
        match &run.output {
            KernelOutput::Vector(branches) => {
                assert_eq!(branches.len(), 13, "n-1 joins for n taxa");
                assert!(branches.iter().all(|b| b.is_finite() && *b >= 0.0));
            }
            _ => panic!("unexpected output"),
        }
    }

    #[test]
    fn column_sampling_reduces_work() {
        let k = SemphyKernel::small(3);
        let precise = k.run_precise();
        let approx = k.run(&ApproxConfig::precise().with_input_sampling(0.4));
        assert!(approx.cost.ops < precise.cost.ops * 0.8);
    }

    #[test]
    fn column_sampling_has_small_error() {
        let k = SemphyKernel::small(3);
        let precise = k.run_precise();
        let approx = k.run(&ApproxConfig::precise().with_input_sampling(0.6));
        let inacc = approx.output.inaccuracy_vs(&precise.output);
        assert!(inacc < 40.0, "inaccuracy {inacc}%");
    }

    #[test]
    fn distance_perforation_is_cheaper_but_noisier_than_sampling() {
        let k = SemphyKernel::small(3);
        let precise = k.run_precise();
        let perf = k.run(
            &ApproxConfig::precise().with_perforation(SITE_DISTANCES, Perforation::SkipEveryNth(2)),
        );
        assert!(perf.cost.ops < precise.cost.ops);
    }
}
