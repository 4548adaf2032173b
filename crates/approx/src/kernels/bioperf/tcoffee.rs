//! T-Coffee — consistency-based multiple sequence alignment.
//!
//! T-Coffee builds a library of pairwise alignments and re-scores each pairwise alignment
//! using third-sequence consistency (triplet extension), which is the dominant cost.
//! Knobs: perforate the triplet-extension loop (site 0), perforate the library construction
//! loop (site 1), sample sequence columns, reduce precision.
//!
//! The library's pairwise scores come from the shared banded Smith–Waterman (`align`),
//! whose integer DP is exact: the scores and cell counts are those of an `f64` DP.

use super::align::smith_waterman_banded;
use crate::data::{related_sequences, DNA_ALPHABET};
use crate::kernel::{ApproxConfig, ApproxKernel, Cost, KernelOutput, KernelRun, Suite};
use crate::techniques::{Perforation, Precision};

/// Perforable site: triplet consistency-extension loop.
pub const SITE_TRIPLETS: u32 = 0;
/// Perforable site: primary library (pairwise alignment) loop.
pub const SITE_LIBRARY: u32 = 1;

/// Consistency-based multiple-sequence-alignment kernel.
#[derive(Debug, Clone)]
pub struct TCoffeeKernel {
    sequences: Vec<Vec<u8>>,
}

impl TCoffeeKernel {
    /// Creates a kernel instance with explicit sizes.
    pub fn new(seed: u64, n_sequences: usize, seq_len: usize) -> Self {
        Self {
            sequences: related_sequences(seed, n_sequences, seq_len, 0.08, &DNA_ALPHABET),
        }
    }

    /// Small instance for tests and fast exploration.
    pub fn small(seed: u64) -> Self {
        Self::new(seed, 10, 120)
    }

    fn extend(&self, config: &ApproxConfig) -> (Vec<f64>, Cost) {
        let n = self.sequences.len();
        let lib_perf = config.perforation(SITE_LIBRARY);
        let trip_perf = config.perforation(SITE_TRIPLETS);
        let col_fraction = config.input_fraction();
        let precision = config.precision;
        let mut cost = Cost::default();

        // Primary library: pairwise alignment scores.
        let mut library = vec![0.0f64; n * n];
        let total_pairs = n * n.saturating_sub(1) / 2;
        let mut pair_index = 0usize;
        for a in 0..n {
            for b in (a + 1)..n {
                let keep = lib_perf.keeps(pair_index, total_pairs);
                pair_index += 1;
                let la = (self.sequences[a].len() as f64 * col_fraction) as usize;
                let lb = (self.sequences[b].len() as f64 * col_fraction) as usize;
                let sa = &self.sequences[a][..la.max(3)];
                let sb = &self.sequences[b][..lb.max(3)];
                let score = if keep {
                    let (s, cells) = smith_waterman_banded(sa, sb, Some(16));
                    cost.ops += cells as f64 * 4.0 * precision.op_cost();
                    cost.bytes_touched += cells as f64 * 8.0;
                    s
                } else {
                    // Skipped: crude identity estimate over the common prefix.
                    let common = sa.len().min(sb.len());
                    let matches = (0..common).filter(|&i| sa[i] == sb[i]).count();
                    cost.ops += common as f64;
                    matches as f64 * 2.0
                };
                let norm = precision.quantize(score / (2.0 * sa.len().min(sb.len()).max(1) as f64));
                library[a * n + b] = norm;
                library[b * n + a] = norm;
            }
        }

        // Consistency extension: re-score every pair by averaging its direct score with
        // paths through every third sequence (the triplet loop, perforable).
        let mut extended = vec![0.0f64; n * n];
        for a in 0..n {
            for b in (a + 1)..n {
                let mut score = library[a * n + b];
                let mut weight = 1.0;
                let mut considered = 0usize;
                for c in 0..n {
                    if c == a || c == b {
                        continue;
                    }
                    let keep = trip_perf.keeps(considered, n - 2);
                    considered += 1;
                    if !keep {
                        continue;
                    }
                    let through = library[a * n + c].min(library[c * n + b]);
                    score += through;
                    weight += 1.0;
                    cost.ops += 4.0 * precision.op_cost();
                    cost.bytes_touched += 16.0;
                }
                let v = precision.quantize(score / weight);
                extended[a * n + b] = v;
                extended[b * n + a] = v;
            }
        }

        // Output: the upper triangle of the extended library (the alignment scaffold).
        let mut out = Vec::with_capacity(total_pairs);
        for a in 0..n {
            for b in (a + 1)..n {
                out.push(extended[a * n + b]);
            }
        }
        (out, cost)
    }
}

impl ApproxKernel for TCoffeeKernel {
    fn name(&self) -> &'static str {
        "tcoffee"
    }

    fn suite(&self) -> Suite {
        Suite::BioPerf
    }

    fn candidate_configs(&self) -> Vec<ApproxConfig> {
        let mut cfgs = Vec::new();
        for p in [2u32, 3, 4] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_perforation(SITE_TRIPLETS, Perforation::KeepEveryNth(p))
                    .with_label(format!("triplets-keep1of{p}")),
            );
        }
        for p in [2u32, 3] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_perforation(SITE_LIBRARY, Perforation::KeepEveryNth(p))
                    .with_label(format!("library-keep1of{p}")),
            );
        }
        for f in [0.7, 0.5] {
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
        let (scores, cost) = self.extend(config);
        KernelRun::new(cost, KernelOutput::Vector(scores))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precise_library_scores_are_normalized() {
        let k = TCoffeeKernel::small(23);
        let run = k.run_precise();
        match &run.output {
            KernelOutput::Vector(scores) => {
                assert_eq!(scores.len(), 10 * 9 / 2);
                assert!(scores.iter().all(|s| *s >= 0.0 && *s <= 1.5));
                // Related sequences: consistency-extended scores should be well above zero.
                assert!(scores.iter().sum::<f64>() / scores.len() as f64 > 0.2);
            }
            _ => panic!("unexpected output"),
        }
    }

    #[test]
    fn triplet_perforation_reduces_work() {
        let k = TCoffeeKernel::small(23);
        let precise = k.run_precise();
        let approx = k.run(
            &ApproxConfig::precise().with_perforation(SITE_TRIPLETS, Perforation::KeepEveryNth(3)),
        );
        assert!(approx.cost.ops < precise.cost.ops);
    }

    #[test]
    fn library_perforation_is_much_cheaper() {
        let k = TCoffeeKernel::small(23);
        let precise = k.run_precise();
        let approx = k.run(
            &ApproxConfig::precise().with_perforation(SITE_LIBRARY, Perforation::KeepEveryNth(2)),
        );
        assert!(approx.cost.ops < precise.cost.ops * 0.75);
    }

    #[test]
    fn mild_triplet_perforation_has_bounded_error() {
        let k = TCoffeeKernel::small(23);
        let precise = k.run_precise();
        let approx = k.run(
            &ApproxConfig::precise().with_perforation(SITE_TRIPLETS, Perforation::KeepEveryNth(2)),
        );
        let inacc = approx.output.inaccuracy_vs(&precise.output);
        assert!(inacc < 30.0, "inaccuracy {inacc}%");
    }
}
