//! ClustalW — progressive multiple sequence alignment.
//!
//! ClustalW computes all pairwise alignment distances, builds a guide tree, and then
//! progressively aligns sequences following the tree. The dominant cost is the pairwise
//! distance matrix. Knobs: perforate the pairwise-distance loop (site 0, falling back to a
//! cheap k-mer distance for skipped pairs), narrow the alignment band (site 1), sample
//! sequence columns, reduce precision.
//!
//! The pairwise scores come from the shared banded Smith–Waterman (`align`), whose
//! integer DP is exact: the cost counts and distances are those of an `f64` DP.

use super::align::smith_waterman_banded;
use crate::data::{related_sequences, DNA_ALPHABET};
use crate::kernel::{ApproxConfig, ApproxKernel, Cost, KernelOutput, KernelRun, Suite};
use crate::techniques::{Perforation, Precision};

/// Perforable site: pairwise alignment loop.
pub const SITE_PAIRWISE: u32 = 0;
/// Perforable site: alignment band (TruncateBy(p) divides the band by p).
pub const SITE_BAND: u32 = 1;

/// Progressive multiple-sequence-alignment kernel.
#[derive(Debug, Clone)]
pub struct ClustalWKernel {
    sequences: Vec<Vec<u8>>,
    full_band: usize,
}

impl ClustalWKernel {
    /// Creates a kernel instance with explicit sizes.
    pub fn new(seed: u64, n_sequences: usize, seq_len: usize) -> Self {
        Self {
            sequences: related_sequences(seed, n_sequences, seq_len, 0.1, &DNA_ALPHABET),
            full_band: 20,
        }
    }

    /// Small instance for tests and fast exploration.
    pub fn small(seed: u64) -> Self {
        Self::new(seed, 12, 160)
    }

    fn kmer_distance(a: &[u8], b: &[u8]) -> f64 {
        // Cheap 3-mer profile distance used when the exact alignment is perforated away.
        let mut pa = [0.0f64; 64];
        let mut pb = [0.0f64; 64];
        let code = |c: u8| -> usize {
            match c {
                b'A' => 0,
                b'C' => 1,
                b'G' => 2,
                _ => 3,
            }
        };
        for w in a.windows(3) {
            pa[code(w[0]) * 16 + code(w[1]) * 4 + code(w[2])] += 1.0;
        }
        for w in b.windows(3) {
            pb[code(w[0]) * 16 + code(w[1]) * 4 + code(w[2])] += 1.0;
        }
        pa.iter()
            .zip(pb.iter())
            .map(|(x, y)| (x - y).abs())
            .sum::<f64>()
            / (a.len() + b.len()).max(1) as f64
    }

    fn align_all(&self, config: &ApproxConfig) -> (Vec<f64>, Cost) {
        let n = self.sequences.len();
        let pair_perf = config.perforation(SITE_PAIRWISE);
        let band_factor = match config.perforation(SITE_BAND) {
            Perforation::TruncateBy(p) => p.max(1) as usize,
            _ => 1,
        };
        let band = (self.full_band / band_factor).max(2);
        let col_sample = config.input_fraction();
        let precision = config.precision;
        let mut cost = Cost::default();

        // Pairwise distance matrix.
        let total_pairs = n * n.saturating_sub(1) / 2;
        let mut pair_index = 0usize;
        let mut dist = vec![0.0f64; n * n];
        for a in 0..n {
            for b in (a + 1)..n {
                let keep = pair_perf.keeps(pair_index, total_pairs);
                pair_index += 1;
                let la = (self.sequences[a].len() as f64 * col_sample) as usize;
                let lb = (self.sequences[b].len() as f64 * col_sample) as usize;
                let sa = &self.sequences[a][..la.max(3)];
                let sb = &self.sequences[b][..lb.max(3)];
                let d = if keep {
                    let (score, cells) = smith_waterman_banded(sa, sb, Some(band));
                    cost.ops += cells as f64 * 4.0 * precision.op_cost();
                    cost.bytes_touched += cells as f64 * 8.0;
                    let max_score = 2.0 * sa.len().min(sb.len()) as f64;
                    precision.quantize(1.0 - score / max_score.max(1.0))
                } else {
                    cost.ops += (sa.len() + sb.len()) as f64;
                    precision.quantize(Self::kmer_distance(sa, sb))
                };
                dist[a * n + b] = d;
                dist[b * n + a] = d;
            }
        }

        // Guide tree: greedy agglomerative joins; output the join-order distances, which
        // determine the progressive alignment order and are the structural result.
        let mut active: Vec<usize> = (0..n).collect();
        let mut working = dist;
        let mut joins = Vec::new();
        while active.len() > 1 {
            let mut best = (active[0], active[1], f64::INFINITY);
            for (i, &a) in active.iter().enumerate() {
                for &b in active.iter().skip(i + 1) {
                    let d = working[a * n + b];
                    if d < best.2 {
                        best = (a, b, d);
                    }
                    cost.ops += 1.0;
                }
            }
            joins.push(best.2);
            let (a, b, _) = best;
            for &c in &active {
                if c != a && c != b {
                    let nd = (working[a * n + c] + working[b * n + c]) / 2.0;
                    working[a * n + c] = nd;
                    working[c * n + a] = nd;
                }
            }
            active.retain(|&x| x != b);
        }
        (joins, cost)
    }
}

impl ApproxKernel for ClustalWKernel {
    fn name(&self) -> &'static str {
        "clustalw"
    }

    fn suite(&self) -> Suite {
        Suite::BioPerf
    }

    fn candidate_configs(&self) -> Vec<ApproxConfig> {
        let mut cfgs = Vec::new();
        for p in [2u32, 3, 4] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_perforation(SITE_PAIRWISE, Perforation::KeepEveryNth(p))
                    .with_label(format!("pairs-keep1of{p}")),
            );
        }
        for p in [2u32, 4] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_perforation(SITE_BAND, Perforation::TruncateBy(p))
                    .with_label(format!("band/{p}")),
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
        let (joins, cost) = self.align_all(config);
        KernelRun::new(cost, KernelOutput::Vector(joins))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precise_guide_tree_has_expected_joins() {
        let k = ClustalWKernel::small(13);
        let run = k.run_precise();
        match &run.output {
            KernelOutput::Vector(joins) => {
                assert_eq!(joins.len(), 11);
                assert!(joins
                    .iter()
                    .all(|d| d.is_finite() && *d >= 0.0 && *d <= 1.5));
            }
            _ => panic!("unexpected output"),
        }
    }

    #[test]
    fn pair_perforation_reduces_work() {
        let k = ClustalWKernel::small(13);
        let precise = k.run_precise();
        let approx = k.run(
            &ApproxConfig::precise().with_perforation(SITE_PAIRWISE, Perforation::KeepEveryNth(3)),
        );
        assert!(approx.cost.ops < precise.cost.ops * 0.7);
    }

    #[test]
    fn band_narrowing_reduces_work_with_small_error() {
        let k = ClustalWKernel::small(13);
        let precise = k.run_precise();
        let approx =
            k.run(&ApproxConfig::precise().with_perforation(SITE_BAND, Perforation::TruncateBy(2)));
        assert!(approx.cost.ops < precise.cost.ops);
        let inacc = approx.output.inaccuracy_vs(&precise.output);
        assert!(inacc < 50.0, "inaccuracy {inacc}%");
    }

    #[test]
    fn column_sampling_reduces_bytes() {
        let k = ClustalWKernel::small(13);
        let precise = k.run_precise();
        let approx = k.run(&ApproxConfig::precise().with_input_sampling(0.5));
        assert!(approx.cost.bytes_touched < precise.cost.bytes_touched);
    }
}
