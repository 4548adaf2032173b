//! Fasta — banded Smith–Waterman database search.
//!
//! The FASTA algorithm scores a query against every database sequence using a banded local
//! alignment seeded by k-tuple diagonals. Knobs: perforate the database loop (site 0),
//! narrow the alignment band (site 1 via truncation factors), sample the database, reduce
//! precision (modelled as coarser band selection plus quantized scores).
//!
//! The alignments run the shared banded Smith–Waterman (`align`), whose integer DP is
//! exact: the scores and cell counts are those of an `f64` DP.

use super::align::smith_waterman_banded;
use crate::data::{random_sequence, related_sequences, DNA_ALPHABET};
use crate::kernel::{ApproxConfig, ApproxKernel, Cost, KernelOutput, KernelRun, Suite};
use crate::techniques::{Perforation, Precision};

/// Perforable site: database-sequence loop.
pub const SITE_DATABASE: u32 = 0;
/// Perforable site: alignment band width (TruncateBy(p) divides the band by p).
pub const SITE_BAND: u32 = 1;

/// Banded local-alignment database-search kernel.
#[derive(Debug, Clone)]
pub struct FastaKernel {
    query: Vec<u8>,
    database: Vec<Vec<u8>>,
    full_band: usize,
}

impl FastaKernel {
    /// Creates a kernel instance with explicit sizes.
    pub fn new(seed: u64, query_len: usize, db_sequences: usize, seq_len: usize) -> Self {
        let query = random_sequence(seed, query_len, &DNA_ALPHABET);
        let mut database =
            related_sequences(seed, db_sequences / 2, query_len, 0.12, &DNA_ALPHABET);
        for s in &mut database {
            s.truncate(seq_len.min(s.len()));
        }
        for i in 0..(db_sequences - db_sequences / 2) {
            database.push(random_sequence(
                seed + 900 + i as u64,
                seq_len,
                &DNA_ALPHABET,
            ));
        }
        Self {
            query,
            database,
            full_band: 24,
        }
    }

    /// Small instance for tests and fast exploration.
    pub fn small(seed: u64) -> Self {
        Self::new(seed, 150, 40, 140)
    }
}

impl ApproxKernel for FastaKernel {
    fn name(&self) -> &'static str {
        "fasta"
    }

    fn suite(&self) -> Suite {
        Suite::BioPerf
    }

    fn candidate_configs(&self) -> Vec<ApproxConfig> {
        let mut cfgs = Vec::new();
        for p in [2u32, 3, 4] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_perforation(SITE_BAND, Perforation::TruncateBy(p))
                    .with_label(format!("band/{p}")),
            );
        }
        for p in [2u32, 3] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_perforation(SITE_DATABASE, Perforation::SkipEveryNth(p.max(2)))
                    .with_label(format!("db-skip1of{p}")),
            );
        }
        for f in [0.7, 0.5] {
            cfgs.push(
                ApproxConfig::precise()
                    .with_input_sampling(f)
                    .with_label(format!("db{:.0}%", f * 100.0)),
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
        let db_perf = config.perforation(SITE_DATABASE);
        let band_factor = match config.perforation(SITE_BAND) {
            Perforation::TruncateBy(p) => p.max(1) as usize,
            _ => 1,
        };
        let band = (self.full_band / band_factor).max(2);
        let sample = Perforation::KeepFraction(config.input_fraction());
        let precision = config.precision;
        let mut cost = Cost::default();
        let n = self.database.len();
        let mut scores = vec![0.0f64; n];
        for (d, target) in self.database.iter().enumerate() {
            if !db_perf.keeps(d, n) || !sample.keeps(d, n) {
                continue;
            }
            let (score, cells) = smith_waterman_banded(&self.query, target, Some(band));
            scores[d] = precision.quantize(score);
            cost.ops += cells as f64 * 4.0 * precision.op_cost();
            cost.bytes_touched += cells as f64 * 8.0;
        }
        KernelRun::new(cost, KernelOutput::Vector(scores))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn related_sequences_score_higher_than_noise() {
        let k = FastaKernel::small(31);
        let run = k.run_precise();
        match &run.output {
            KernelOutput::Vector(scores) => {
                let related: f64 = scores[..20].iter().sum::<f64>() / 20.0;
                let noise: f64 = scores[20..].iter().sum::<f64>() / 20.0;
                assert!(related > noise);
            }
            _ => panic!("unexpected output"),
        }
    }

    #[test]
    fn narrower_band_is_cheaper() {
        let k = FastaKernel::small(31);
        let precise = k.run_precise();
        let approx =
            k.run(&ApproxConfig::precise().with_perforation(SITE_BAND, Perforation::TruncateBy(3)));
        assert!(approx.cost.ops < precise.cost.ops * 0.7);
    }

    #[test]
    fn narrower_band_never_increases_scores() {
        let k = FastaKernel::small(31);
        let precise = k.run_precise();
        let approx =
            k.run(&ApproxConfig::precise().with_perforation(SITE_BAND, Perforation::TruncateBy(2)));
        if let (KernelOutput::Vector(p), KernelOutput::Vector(a)) =
            (&precise.output, &approx.output)
        {
            for (x, y) in a.iter().zip(p.iter()) {
                assert!(*x <= *y + 1e-9, "banded score {x} exceeded full score {y}");
            }
        } else {
            panic!("unexpected output kinds");
        }
    }

    #[test]
    fn database_skip_reduces_work() {
        let k = FastaKernel::small(31);
        let precise = k.run_precise();
        let approx = k.run(
            &ApproxConfig::precise().with_perforation(SITE_DATABASE, Perforation::SkipEveryNth(2)),
        );
        assert!(approx.cost.ops < precise.cost.ops);
    }
}
