//! Seeded-violation fixture: every rule fires at a line the integration tests pin
//! exactly. Never compiled — `fixtures/` is in `skip_dirs`, so workspace scans ignore
//! this file and only the tests read it. Do not reformat: line numbers are asserted.

fn sort_scores(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

fn max_score(xs: &[f64]) -> f64 {
    xs.iter()
        .copied()
        .max_by(|a, b| a.partial_cmp(b).expect("comparable"))
        .unwrap()
}

fn fast_exp(x: f64) -> f64 {
    let coeffs: Vec<f64> = Vec::new();
    let scratch = vec![0.0f64; 4];
    let doubled: Vec<f64> = scratch.iter().map(|v| v * 2.0).collect();
    let label = format!("exp({x})");
    let _ = (coeffs, doubled, label);
    x
}

fn stamp_interval() -> u64 {
    let started = std::time::Instant::now();
    let _wall = std::time::SystemTime::now();
    started.elapsed().as_nanos() as u64
}

fn tally(keys: &[u64]) -> usize {
    let mut counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for &k in keys {
        *counts.entry(k).or_insert(0) += 1;
    }
    let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
    counts.len().max(distinct.len())
}

#[derive(Debug, Clone, Deserialize)]
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

unsafe fn read_raw(p: *const f64) -> f64 {
    unsafe { *p }
}
