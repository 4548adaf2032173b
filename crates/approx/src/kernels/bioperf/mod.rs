//! BioPerf-derived kernels: bioinformatics applications.

pub mod blast;
pub mod ce;
pub mod clustalw;
pub mod fasta;
pub mod glimmer;
pub mod grappa;
pub mod hmmer;
pub mod tcoffee;

/// Shared scoring constants and the banded Smith–Waterman used by the alignment kernels.
///
/// Every score is a small integer: a cell is the maximum of a neighbour plus `MATCH`,
/// `MISMATCH` or `GAP` and the floor 0, so it never exceeds `MATCH` times the shorter
/// length. The DP therefore runs on `i32` rows and is exact; the best score converts to
/// `f64` once and has the bits an `f64` DP over the same constants would give (the test
/// module keeps that `f64` DP as the reference).
pub(crate) mod align {
    /// Score for a character match.
    pub const MATCH: i32 = 2;
    /// Penalty for a mismatch.
    pub const MISMATCH: i32 = -1;
    /// Penalty for a gap.
    pub const GAP: i32 = -2;

    /// Banded Smith–Waterman local-alignment score between two sequences.
    ///
    /// `band` limits the anti-diagonal distance considered (None = full matrix). Returns
    /// the best local score and the number of cells evaluated.
    pub fn smith_waterman_banded(a: &[u8], b: &[u8], band: Option<usize>) -> (f64, u64) {
        let n = a.len();
        let m = b.len();
        if n == 0 || m == 0 {
            return (0.0, 0);
        }
        let mut prev = vec![0i32; m + 1];
        let mut curr = vec![0i32; m + 1];
        // The columns each row buffer holds, `(prev, curr)`: zeroing the columns `curr`
        // kept from two rows back leaves it all zero outside the band about to be written.
        let mut held = (1..1, 1..1);
        let mut best = 0i32;
        let mut cells = 0u64;
        for (i, &ai) in (1..=n).zip(a) {
            let (lo, hi) = match band {
                Some(w) => {
                    let centre = i * m / n;
                    (centre.saturating_sub(w).max(1), (centre + w).min(m))
                }
                None => (1, m),
            };
            curr[held.1].fill(0);
            held = (lo..hi + 1, held.0);
            cells += (hi + 1).saturating_sub(lo) as u64;
            let mut left = 0;
            let mut diag = prev[lo - 1];
            let row = curr[lo..=hi].iter_mut().zip(&prev[lo..=hi]);
            for ((cell, &up), &bj) in row.zip(&b[lo - 1..hi]) {
                let s = if ai == bj { MATCH } else { MISMATCH };
                // The left neighbour last: it is the only term that waits on the
                // previous cell.
                let val = (diag + s).max(up + GAP).max(0).max(left + GAP);
                *cell = val;
                best = best.max(val);
                diag = up;
                left = val;
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        (f64::from(best), cells)
    }
}

#[cfg(test)]
mod tests {
    use super::align::*;
    use proptest::prelude::*;

    /// The straightforward `f64` banded Smith–Waterman with its own copy of the scores
    /// (match 2, mismatch -1, gap -2): every row zeroed in full, every cell read from the
    /// two row buffers.
    fn reference_smith_waterman_banded(a: &[u8], b: &[u8], band: Option<usize>) -> (f64, u64) {
        let n = a.len();
        let m = b.len();
        if n == 0 || m == 0 {
            return (0.0, 0);
        }
        let mut prev = vec![0.0f64; m + 1];
        let mut curr = vec![0.0f64; m + 1];
        let mut best = 0.0f64;
        let mut cells = 0u64;
        for i in 1..=n {
            let (lo, hi) = match band {
                Some(w) => {
                    let centre = i * m / n;
                    (centre.saturating_sub(w).max(1), (centre + w).min(m))
                }
                None => (1, m),
            };
            for cell in curr.iter_mut() {
                *cell = 0.0;
            }
            for j in lo..=hi {
                let s = if a[i - 1] == b[j - 1] { 2.0 } else { -1.0 };
                let val = (prev[j - 1] + s)
                    .max(prev[j] - 2.0)
                    .max(curr[j - 1] - 2.0)
                    .max(0.0);
                curr[j] = val;
                if val > best {
                    best = val;
                }
                cells += 1;
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        (best, cells)
    }

    fn dna(codes: &[u8]) -> Vec<u8> {
        codes.iter().map(|&c| b"ACGT"[usize::from(c)]).collect()
    }

    #[test]
    fn identical_sequences_score_length_times_match() {
        let s = b"ACGTACGTACGT";
        let (score, cells) = smith_waterman_banded(s, s, None);
        assert_eq!(score, (s.len() as i32 * MATCH).into());
        assert_eq!(cells, (s.len() * s.len()) as u64);
    }

    #[test]
    fn banding_reduces_cells_and_bounds_score() {
        let a = b"ACGTACGTACGTACGTACGT";
        let b = b"ACGTACGAACGTACGTACGT";
        let (full, full_cells) = smith_waterman_banded(a, b, None);
        let (banded, banded_cells) = smith_waterman_banded(a, b, Some(3));
        assert!(banded_cells < full_cells);
        assert!(banded <= full + 1e-9);
        assert!(banded > 0.0);
    }

    #[test]
    fn empty_sequence_scores_zero() {
        assert_eq!(smith_waterman_banded(b"", b"ACGT", None).0, 0.0);
    }

    proptest! {
        /// Best-score bits and cell counts match the reference for random sequences of
        /// length 0 to 200, full and banded (band 0 to 24; 25 stands for `None`). A
        /// two-letter alphabet as often as a four-letter one, so long matching runs and
        /// high scores occur too.
        #[test]
        fn prop_banded_alignment_matches_the_f64_reference(
            a in proptest::collection::vec(0u8..4, 0..201),
            b in proptest::collection::vec(0u8..4, 0..201),
            band in 0usize..26,
            narrow in any::<bool>(),
        ) {
            let squash = |s: &[u8]| -> Vec<u8> {
                if narrow { s.iter().map(|c| c % 2).collect() } else { s.to_vec() }
            };
            let (a, b) = (dna(&squash(&a)), dna(&squash(&b)));
            let band = (band <= 24).then_some(band);
            let (score, cells) = smith_waterman_banded(&a, &b, band);
            let (want, want_cells) = reference_smith_waterman_banded(&a, &b, band);
            prop_assert_eq!(score.to_bits(), want.to_bits());
            prop_assert_eq!(cells, want_cells);
        }
    }
}
