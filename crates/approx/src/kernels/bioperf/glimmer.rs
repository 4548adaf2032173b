//! Glimmer — gene finding with interpolated Markov models (IMMs).
//!
//! Glimmer scores candidate open reading frames in a genome with Markov models of coding
//! regions. Knobs: lower the Markov-model order (precision analogue, site 0 as
//! TruncateBy), perforate the candidate-ORF loop (site 1), sample the training region,
//! reduce floating-point precision.
//!
//! A model key is a context of `order` bases plus the next base. With two bits per base
//! a key is an index below 4^(order+1) (4096 at the full order 5), so the counts and the
//! log-probabilities live in dense tables, and a window is scored by rolling the index
//! one base at a time over the genome, which is kept as codes. A key never seen in
//! training reads ln(0.2).

use crate::data::random_sequence;
use crate::kernel::{ApproxConfig, ApproxKernel, Cost, KernelOutput, KernelRun, Suite};
use crate::techniques::{Perforation, Precision};

/// Perforable site: Markov-model order reduction (TruncateBy(p) divides the order by p).
pub const SITE_MODEL_ORDER: u32 = 0;
/// Perforable site: candidate-ORF scoring loop.
pub const SITE_CANDIDATES: u32 = 1;

/// The two-bit codes of A, C, G and T, in `DNA_ALPHABET` order.
const BASE_CODES: [u8; 4] = [0, 1, 2, 3];
/// The code of G.
const G: u8 = 2;

/// Gene-finding kernel with interpolated Markov models.
#[derive(Debug, Clone)]
pub struct GlimmerKernel {
    /// The genome as two-bit base codes: A, C, G, T as 0 to 3.
    codes: Vec<u8>,
    coding_regions: Vec<(usize, usize)>,
    candidates: Vec<(usize, usize)>,
    max_order: usize,
}

impl GlimmerKernel {
    /// Creates a kernel instance with explicit sizes.
    pub fn new(seed: u64, genome_len: usize, n_genes: usize) -> Self {
        // The same draws as a `DNA_ALPHABET` sequence, kept as codes: no value outside the
        // four codes can reach a key and merge it with another.
        let mut codes = random_sequence(seed, genome_len, &BASE_CODES);
        // Insert synthetic "coding" regions with strong codon bias (every third base G).
        let mut coding_regions = Vec::new();
        let gene_len = genome_len / (2 * n_genes);
        for g in 0..n_genes {
            let start = g * 2 * gene_len;
            let end = (start + gene_len).min(genome_len);
            for i in (start..end).step_by(3) {
                codes[i] = G;
            }
            coding_regions.push((start, end));
        }
        // Candidate ORFs: the true genes plus an equal number of random non-coding windows.
        let mut candidates = coding_regions.clone();
        for g in 0..n_genes {
            let start = (g * 2 + 1) * gene_len;
            let end = (start + gene_len).min(genome_len);
            if start < end {
                candidates.push((start, end));
            }
        }
        Self {
            codes,
            coding_regions,
            candidates,
            max_order: 5,
        }
    }

    /// Small instance for tests and fast exploration.
    pub fn small(seed: u64) -> Self {
        Self::new(seed, 6_000, 8)
    }

    /// The model key of every base in `start + order..end`: the index of
    /// `genome[i - order..=i]`, two bits per base with the oldest highest.
    fn keys(&self, start: usize, end: usize, order: usize) -> impl Iterator<Item = usize> + '_ {
        let mask = (1usize << (2 * (order + 1))) - 1;
        self.codes[start..end]
            .iter()
            .scan(0usize, move |key, &code| {
                *key = (*key << 2 | usize::from(code)) & mask;
                Some(*key)
            })
            .skip(order)
    }

    /// Log-probability of every key, indexed as [`Self::keys`] yields them.
    fn train_model(&self, order: usize, train_fraction: f64, cost: &mut Cost) -> Vec<f64> {
        // Count (context, next-base) frequencies over the coding regions; a key's
        // context is its index shifted right by one base.
        let mut counts = vec![0u32; 1 << (2 * (order + 1))];
        let mut context_totals = vec![0u32; 1 << (2 * order)];
        for &(start, end) in &self.coding_regions {
            let span = ((end - start) as f64 * train_fraction) as usize;
            for key in self.keys(start, start + span, order) {
                counts[key] += 1;
                context_totals[key >> 2] += 1;
                cost.ops += 4.0;
                cost.bytes_touched += order as f64 + 1.0;
            }
        }
        // Convert to log-probabilities with add-one smoothing.
        let absent = (0.2f64).ln();
        counts
            .iter()
            .enumerate()
            .map(|(key, &c)| {
                if c == 0 {
                    return absent;
                }
                let total = f64::from(context_totals[key >> 2]);
                ((f64::from(c) + 1.0) / (total + 4.0)).ln()
            })
            .collect()
    }

    fn score_window(
        &self,
        window: (usize, usize),
        order: usize,
        model: &[f64],
        precision: Precision,
        cost: &mut Cost,
    ) -> f64 {
        let (start, end) = window;
        // Log-likelihood ratio against the uniform background.
        let background = (0.25f64).ln();
        let mut score = 0.0;
        for key in self.keys(start, end, order) {
            score += model[key] - background;
            cost.ops += 3.0 * precision.op_cost();
            cost.bytes_touched += order as f64 + 1.0;
        }
        precision.quantize(score / (end - start).max(1) as f64)
    }
}

impl ApproxKernel for GlimmerKernel {
    fn name(&self) -> &'static str {
        "glimmer"
    }

    fn suite(&self) -> Suite {
        Suite::BioPerf
    }

    fn candidate_configs(&self) -> Vec<ApproxConfig> {
        let mut cfgs = Vec::new();
        for p in [2u32, 5] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_perforation(SITE_MODEL_ORDER, Perforation::TruncateBy(p))
                    .with_label(format!("order/{p}")),
            );
        }
        for p in [2u32, 3] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_perforation(SITE_CANDIDATES, Perforation::SkipEveryNth(p.max(2)))
                    .with_label(format!("candidates-skip1of{p}")),
            );
        }
        for f in [0.6, 0.4] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_input_sampling(f)
                    .with_label(format!("train{:.0}%", f * 100.0)),
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
        let order_factor = match config.perforation(SITE_MODEL_ORDER) {
            Perforation::TruncateBy(p) => p.max(1) as usize,
            _ => 1,
        };
        let order = (self.max_order / order_factor).max(1);
        let cand_perf = config.perforation(SITE_CANDIDATES);
        let precision = config.precision;
        let mut cost = Cost::default();
        let model = self.train_model(order, config.input_fraction(), &mut cost);
        let n = self.candidates.len();
        let mut scores = vec![0.0f64; n];
        for (i, &window) in self.candidates.iter().enumerate() {
            if !cand_perf.keeps(i, n) {
                continue;
            }
            scores[i] = self.score_window(window, order, &model, precision, &mut cost);
        }
        KernelRun::new(cost, KernelOutput::Vector(scores))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coding_regions_score_higher_than_noncoding() {
        let k = GlimmerKernel::small(19);
        let run = k.run_precise();
        match &run.output {
            KernelOutput::Vector(scores) => {
                let n_genes = k.coding_regions.len();
                let coding: f64 = scores[..n_genes].iter().sum::<f64>() / n_genes as f64;
                let noncoding: f64 =
                    scores[n_genes..].iter().sum::<f64>() / (scores.len() - n_genes) as f64;
                assert!(
                    coding > noncoding,
                    "coding {coding} vs noncoding {noncoding}"
                );
            }
            _ => panic!("unexpected output"),
        }
    }

    #[test]
    fn lower_order_model_is_cheaper() {
        let k = GlimmerKernel::small(19);
        let precise = k.run_precise();
        let approx = k.run(
            &ApproxConfig::precise().with_perforation(SITE_MODEL_ORDER, Perforation::TruncateBy(5)),
        );
        assert!(approx.cost.bytes_touched < precise.cost.bytes_touched);
    }

    #[test]
    fn training_sampling_reduces_work() {
        let k = GlimmerKernel::small(19);
        let precise = k.run_precise();
        let approx = k.run(&ApproxConfig::precise().with_input_sampling(0.4));
        assert!(approx.cost.ops < precise.cost.ops);
    }

    #[test]
    fn candidate_perforation_leaves_skipped_scores_zero() {
        let k = GlimmerKernel::small(19);
        let approx = k.run(
            &ApproxConfig::precise()
                .with_perforation(SITE_CANDIDATES, Perforation::SkipEveryNth(2)),
        );
        match &approx.output {
            KernelOutput::Vector(scores) => assert!(scores.contains(&0.0)),
            _ => panic!("unexpected output"),
        }
    }
}
