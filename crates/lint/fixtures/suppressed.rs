//! Pragma-suppression fixture: the same violations as `violations.rs`, each carrying an
//! allow pragma in one of the two supported positions (standalone comment covering the
//! next code line, or trailing on the line itself). The integration tests assert this
//! file produces zero findings.

fn sort_scores(xs: &mut [f64]) {
    // pliant-lint: allow(nan-unsafe-cmp, panic-hygiene): standalone form.
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

fn max_score(xs: &[f64]) -> f64 {
    xs.iter()
        .copied()
        .max_by(|a, b| a.partial_cmp(b).expect("comparable")) // pliant-lint: allow(nan-unsafe-cmp, panic-hygiene): trailing form.
        .unwrap() // pliant-lint: allow(panic-hygiene): trailing form.
}

fn fast_exp(x: f64) -> f64 {
    // pliant-lint: allow(hot-path-alloc): standalone form.
    let coeffs: Vec<f64> = Vec::new();
    let scratch = vec![0.0f64; 4]; // pliant-lint: allow(hot-path-alloc): trailing form.
    let doubled: Vec<f64> = scratch.iter().map(|v| v * 2.0).collect(); // pliant-lint: allow(hot-path-alloc)
    let label = format!("exp({x})"); // pliant-lint: allow(hot-path-alloc)
    let _ = (coeffs, doubled, label);
    x
}

fn stamp_interval() -> u64 {
    // pliant-lint: allow(nondeterminism): standalone form, with an intervening
    // plain comment line between the pragma and the code it covers.
    let started = std::time::Instant::now();
    let _wall = std::time::SystemTime::now(); // pliant-lint: allow(nondeterminism)
    started.elapsed().as_nanos() as u64
}

fn tally(keys: &[u64]) -> usize {
    // pliant-lint: allow(nondeterminism): standalone form.
    let mut counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for &k in keys {
        *counts.entry(k).or_insert(0) += 1;
    }
    let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect(); // pliant-lint: allow(nondeterminism)
    counts.len().max(distinct.len())
}

// pliant-lint: allow(validate-bypass): standalone form covering the derive line.
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

// pliant-lint: allow(unsafe-scope): standalone form.
unsafe fn read_raw(p: *const f64) -> f64 {
    unsafe { *p } // pliant-lint: allow(unsafe-scope): trailing form.
}
