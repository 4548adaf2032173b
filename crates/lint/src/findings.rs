//! Diagnostics: the finding type, rule metadata, and output formatting.

use std::fmt;

/// Machine-readable rule identifiers.
pub mod rules {
    /// `partial_cmp` chained into `unwrap()`/`expect()`.
    pub const NAN_UNSAFE_CMP: &str = "nan-unsafe-cmp";
    /// Allocation in a configured hot-path function.
    pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
    /// Wall-clock reads or hash-ordered containers in determinism-sensitive code.
    pub const NONDETERMINISM: &str = "nondeterminism";
    /// `#[derive(Deserialize)]` on a type that defines `fn validate`.
    pub const VALIDATE_BYPASS: &str = "validate-bypass";
    /// `unwrap()`/`expect()` in non-test library code.
    pub const PANIC_HYGIENE: &str = "panic-hygiene";
    /// The `unsafe` keyword outside the files allowed to use it.
    pub const UNSAFE_SCOPE: &str = "unsafe-scope";
    /// A library `pub fn` that no non-test code in the workspace uses.
    pub const TEST_ONLY_PUB: &str = "test-only-pub";
}

/// Static description of one rule, for `--list-rules` and the README catalog.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule identifier (also the name used in `allow(...)` pragmas and `--only`).
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every rule the tool knows, in reporting order.
pub const ALL_RULES: &[RuleInfo] = &[
    RuleInfo {
        id: rules::NAN_UNSAFE_CMP,
        summary: "float comparison via partial_cmp(..).unwrap()/expect(); use f64::total_cmp",
    },
    RuleInfo {
        id: rules::HOT_PATH_ALLOC,
        summary: "allocating construct inside a configured hot-path function",
    },
    RuleInfo {
        id: rules::NONDETERMINISM,
        summary: "wall-clock read outside the benchmark allowlist, or HashMap/HashSet in \
                  determinism-sensitive code",
    },
    RuleInfo {
        id: rules::VALIDATE_BYPASS,
        summary: "#[derive(Deserialize)] on a type that defines fn validate, without a \
                  #[serde(validate = \"...\")] hook that checks archives at the boundary",
    },
    RuleInfo {
        id: rules::PANIC_HYGIENE,
        summary: "unwrap()/expect() in non-test library code of sim/core/cluster/telemetry",
    },
    RuleInfo {
        id: rules::UNSAFE_SCOPE,
        summary: "the unsafe keyword outside the allowlisted files (the AVX2 dispatch of \
                  crates/telemetry/src/simd.rs)",
    },
    RuleInfo {
        id: rules::TEST_ONLY_PUB,
        summary: "pub fn in library code that no non-test code in the workspace names \
                  (directory scans only; matched by name)",
    },
];

/// Whether `id` names a known rule.
pub fn is_known_rule(id: &str) -> bool {
    ALL_RULES.iter().any(|r| r.id == id)
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier.
    pub rule: &'static str,
    /// Path relative to the scan root, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation, including the suggested fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Renders findings as a JSON array (the tool is dependency-free, so this is a minimal
/// hand-rolled serializer; keys are stable and the array is sorted like the text output).
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            escape(&f.path),
            f.line,
            escape(f.rule),
            escape(&f.message)
        ));
        if i + 1 < findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_sorts_keys_stably() {
        let findings = vec![Finding {
            rule: rules::PANIC_HYGIENE,
            path: "a\"b.rs".to_string(),
            line: 3,
            message: "say \"no\"\nplease".to_string(),
        }];
        let json = to_json(&findings);
        assert!(json.contains(r#""path": "a\"b.rs""#));
        assert!(json.contains(r#""line": 3"#));
        assert!(json.contains(r#"say \"no\"\nplease"#));
    }

    #[test]
    fn all_rule_ids_are_unique_and_kebab_case() {
        for (i, a) in ALL_RULES.iter().enumerate() {
            assert!(a.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
            for b in &ALL_RULES[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }
}
