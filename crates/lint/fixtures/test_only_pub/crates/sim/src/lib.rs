//! Mini-workspace fixture for the `test-only-pub` rule: one `pub fn` for each way a
//! function can be used, or not. Never compiled; the integration tests pin its lines.

/// Called only from the unit tests below: flagged.
pub fn only_unit_tested() -> u32 {
    1
}

/// Called only from `crates/sim/tests/api.rs`: flagged.
pub fn only_integration_tested() -> u32 {
    2
}

/// Called from `examples/demo.rs`, which shows it as API.
pub fn shown_in_example(xs: &[u32]) -> u32 {
    first(xs)
}

/// Called from `perfbench/src/main.rs`: the benchmark is a caller.
pub fn benchmarked() -> u32 {
    4
}

/// Imported by `crates/sim/src/main.rs` and passed by name.
pub fn passed_by_name(x: f64) -> f64 {
    x
}

/// Its `check` is named only in the serde attribute.
#[derive(Deserialize)]
#[serde(validate = "Limits::check")]
pub struct Limits {
    max: u32,
}

impl Limits {
    /// Rejects an archive whose limit is zero.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.max == 0 {
            return Err("max must be positive");
        }
        Ok(())
    }
}

/// Nothing calls it, but it is API for a stated reason.
// pliant-lint: allow(test-only-pub) the README shows it as API
pub fn kept_with_pragma() -> u32 {
    5
}

mod reexport;

/// Re-exported, but only `crates/sim/tests/api.rs` calls it: flagged in `reexport.rs`.
pub use reexport::only_reexported;

/// Library code under `crates/sim/src/`, where `panic-hygiene` applies.
fn first(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit() {
        assert_eq!(only_unit_tested(), 1);
    }
}
