//! Clean fixture: the idiomatic equivalent of everything `violations.rs` seeds. The
//! integration tests assert this file produces zero findings even under the
//! everything-in-scope configuration.

fn sort_scores(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.total_cmp(b));
}

fn max_score(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn fast_exp(x: f64, scratch: &mut Vec<f64>) -> f64 {
    scratch.clear();
    scratch.extend([1.0, x, x * x / 2.0]);
    scratch.iter().sum()
}

fn stamp_interval(sim_now_s: f64, interval_s: f64) -> u64 {
    ((sim_now_s + interval_s) * 1e9) as u64
}

fn tally(keys: &[u64]) -> usize {
    let mut counts: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for &k in keys {
        *counts.entry(k).or_insert(0) += 1;
    }
    counts.len()
}

#[derive(Debug, Clone, Deserialize)]
#[serde(validate = "ArchiveModel::validate")]
struct ArchiveModel {
    weight: f64,
}

impl ArchiveModel {
    fn validate(&self) -> Result<(), String> {
        if self.weight.is_finite() {
            Ok(())
        } else {
            Err("weight must be finite".to_string())
        }
    }
}
