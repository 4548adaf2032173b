//! The six rules, each grounded in a bug class this repository has actually shipped
//! and then fixed reactively (see the README "Static analysis" section for the history).

use crate::analysis::FileAnalysis;
use crate::config::{path_in, path_is_test_code, LintConfig};
use crate::findings::{rules, Finding};
use crate::tokenizer::{Token, TokenKind};

/// Runs every rule over one analyzed file. Findings are sorted by line then rule, with
/// at most one finding per `(rule, line)` pair, and pragma-suppressed findings removed.
pub fn run_rules(a: &FileAnalysis, cfg: &LintConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    nan_unsafe_cmp(a, &mut findings);
    hot_path_alloc(a, cfg, &mut findings);
    nondeterminism(a, cfg, &mut findings);
    validate_bypass(a, cfg, &mut findings);
    panic_hygiene(a, cfg, &mut findings);
    unsafe_scope(a, cfg, &mut findings);

    findings.retain(|f| !a.is_suppressed(f.rule, f.line));
    findings.sort_by(|x, y| (x.line, x.rule).cmp(&(y.line, y.rule)));
    findings.dedup_by(|x, y| x.line == y.line && x.rule == y.rule);
    findings
}

fn emit(findings: &mut Vec<Finding>, rule: &'static str, a: &FileAnalysis, line: u32, msg: String) {
    findings.push(Finding {
        rule,
        path: a.rel_path.clone(),
        line,
        message: msg,
    });
}

/// `x.partial_cmp(y).unwrap()` / `.expect(..)`: panics the moment a NaN reaches the
/// sort/max — the bug class behind the PR 4 quantile panics and the PR 5 pareto sorts.
/// Applies everywhere, including test code (the PR 4 sweep fixed test sorts too).
fn nan_unsafe_cmp(a: &FileAnalysis, findings: &mut Vec<Finding>) {
    let toks = &a.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("partial_cmp")
            || !matches!(toks.get(i + 1), Some(t) if t.is_punct('('))
        {
            continue;
        }
        let close = match matching(toks, i + 1, '(', ')') {
            Some(c) => c,
            None => continue,
        };
        if matches!(toks.get(close + 1), Some(t) if t.is_punct('.'))
            && matches!(toks.get(close + 2), Some(t) if t.is_ident("unwrap") || t.is_ident("expect"))
        {
            emit(
                findings,
                rules::NAN_UNSAFE_CMP,
                a,
                toks[i].line,
                "float comparison panics on NaN; use f64::total_cmp (NaN sorts last) instead \
                 of partial_cmp chained into unwrap/expect"
                    .to_string(),
            );
        }
    }
}

/// Allocating constructs inside the configured hot-path functions. PR 4 made the
/// per-interval loop allocation-free for 2.2-3x throughput; this keeps it that way.
fn hot_path_alloc(a: &FileAnalysis, cfg: &LintConfig, findings: &mut Vec<Finding>) {
    if path_is_test_code(&a.rel_path) {
        return;
    }
    let toks = &a.tokens;
    for i in 0..toks.len() {
        let ctx = &a.context[i];
        if ctx.in_test {
            continue;
        }
        let Some(fi) = ctx.function else { continue };
        let func = &a.functions[fi];
        let hot = cfg.hot_path_fns.iter().any(|entry| {
            if entry.contains("::") {
                *entry == func.qualified
            } else {
                *entry == func.name
            }
        });
        if !hot {
            continue;
        }
        let construct: Option<&str> = if path_call(toks, i, "Vec", "new") {
            Some("Vec::new")
        } else if path_call(toks, i, "Box", "new") {
            Some("Box::new")
        } else if path_call(toks, i, "String", "from") {
            Some("String::from")
        } else if macro_invocation(toks, i, "vec") {
            Some("vec![..]")
        } else if macro_invocation(toks, i, "format") {
            Some("format!")
        } else if method_call(toks, i, "collect") {
            Some(".collect()")
        } else if method_call(toks, i, "to_vec") {
            Some(".to_vec()")
        } else {
            None
        };
        if let Some(what) = construct {
            emit(
                findings,
                rules::HOT_PATH_ALLOC,
                a,
                toks[i].line,
                format!(
                    "`{what}` allocates inside hot-path function `{}`; reuse a caller-provided \
                     buffer instead (see ColocationSim::advance_reusing)",
                    func.qualified
                ),
            );
        }
    }
}

/// Wall-clock reads outside the benchmark allowlist, and hash-ordered containers in
/// determinism-sensitive code: both break the serial==parallel byte-identity guarantee
/// the engine tests pin.
fn nondeterminism(a: &FileAnalysis, cfg: &LintConfig, findings: &mut Vec<Finding>) {
    let toks = &a.tokens;
    if !path_in(&a.rel_path, &cfg.wallclock_allowed) {
        for i in 0..toks.len() {
            if path_call(toks, i, "Instant", "now") {
                emit(
                    findings,
                    rules::NONDETERMINISM,
                    a,
                    toks[i].line,
                    "Instant::now reads the wall clock; simulated components must derive all \
                     timing from simulated time (only the repo benchmark measures real time)"
                        .to_string(),
                );
            } else if toks[i].is_ident("SystemTime") {
                emit(
                    findings,
                    rules::NONDETERMINISM,
                    a,
                    toks[i].line,
                    "SystemTime reads the wall clock; simulated components must be \
                     deterministic in the seed"
                        .to_string(),
                );
            }
        }
    }
    if path_in(&a.rel_path, &cfg.hash_container_scoped) && !path_is_test_code(&a.rel_path) {
        for (i, tok) in toks.iter().enumerate() {
            if a.context[i].in_test {
                continue;
            }
            if tok.is_ident("HashMap") || tok.is_ident("HashSet") {
                emit(
                    findings,
                    rules::NONDETERMINISM,
                    a,
                    tok.line,
                    format!(
                        "`{}` iteration order is nondeterministic and can reach archives, \
                         statistics, or RNG consumption order; use BTreeMap/BTreeSet or a Vec",
                        tok.text
                    ),
                );
            }
        }
    }
}

/// `#[derive(Deserialize)]` on a type that defines `fn validate`, without a
/// `#[serde(validate = "…")]` hook: a deserialized archive bypasses the invariants (the
/// PR 5 InterferenceModel/PowerModel bug). The fix is the hook, which makes the derived
/// `from_value` call the check.
fn validate_bypass(a: &FileAnalysis, cfg: &LintConfig, findings: &mut Vec<Finding>) {
    if path_in(&a.rel_path, &cfg.validate_bypass_exempt) || path_is_test_code(&a.rel_path) {
        return;
    }
    for d in &a.derives {
        if d.in_test || d.validated || !d.traits.iter().any(|t| t == "Deserialize") {
            continue;
        }
        if a.validate_types.contains(&d.type_name) {
            emit(
                findings,
                rules::VALIDATE_BYPASS,
                a,
                d.line,
                format!(
                    "`{0}` defines `fn validate` but derives Deserialize without a hook, so a \
                     deserialized archive bypasses its invariants; add \
                     `#[serde(validate = \"{0}::validate\")]` (see InterferenceModel)",
                    d.type_name
                ),
            );
        }
    }
}

/// `unwrap()`/`expect()` in non-test library code of the simulation crates. Library
/// invariants that genuinely cannot fail are annotated with an allow pragma naming the
/// invariant; everything else should propagate a typed error.
fn panic_hygiene(a: &FileAnalysis, cfg: &LintConfig, findings: &mut Vec<Finding>) {
    if !path_in(&a.rel_path, &cfg.panic_hygiene_scoped) || path_is_test_code(&a.rel_path) {
        return;
    }
    let toks = &a.tokens;
    for i in 0..toks.len() {
        if a.context[i].in_test {
            continue;
        }
        if i >= 1
            && (toks[i].is_ident("unwrap") || toks[i].is_ident("expect"))
            && method_call(toks, i - 1, &toks[i].text)
        {
            emit(
                findings,
                rules::PANIC_HYGIENE,
                a,
                toks[i].line,
                format!(
                    "`.{}()` can panic in library code; propagate a typed error, or annotate \
                     with `// pliant-lint: allow(panic-hygiene)` naming the invariant that \
                     makes it unreachable",
                    toks[i].text
                ),
            );
        }
    }
}

/// The `unsafe` keyword outside [`LintConfig::unsafe_allowed`]. The workspace's one
/// `unsafe` block calls an AVX2 loop after checking the CPU has AVX2; the rule keeps any
/// other `unsafe` from arriving unreviewed, in test code as well.
fn unsafe_scope(a: &FileAnalysis, cfg: &LintConfig, findings: &mut Vec<Finding>) {
    if path_in(&a.rel_path, &cfg.unsafe_allowed) {
        return;
    }
    for tok in a.tokens.iter().filter(|t| t.is_ident("unsafe")) {
        emit(
            findings,
            rules::UNSAFE_SCOPE,
            a,
            tok.line,
            "`unsafe` outside crates/telemetry/src/simd.rs; write it safely, or annotate with \
             `// pliant-lint: allow(unsafe-scope)` naming why it cannot be"
                .to_string(),
        );
    }
}

// --- token-pattern helpers ---------------------------------------------------------

/// `tokens[i..]` spells `first::second` (e.g. `Vec::new`, `Instant::now`).
fn path_call(toks: &[Token], i: usize, first: &str, second: &str) -> bool {
    toks[i].is_ident(first)
        && matches!(toks.get(i + 1), Some(t) if t.is_punct(':'))
        && matches!(toks.get(i + 2), Some(t) if t.is_punct(':'))
        && matches!(toks.get(i + 3), Some(t) if t.is_ident(second))
}

/// `tokens[i..]` spells `name!`.
fn macro_invocation(toks: &[Token], i: usize, name: &str) -> bool {
    toks[i].is_ident(name) && matches!(toks.get(i + 1), Some(t) if t.is_punct('!'))
}

/// `tokens[i..]` spells `.name(` — a method call, not a definition or path.
fn method_call(toks: &[Token], i: usize, name: &str) -> bool {
    i < toks.len()
        && toks[i].is_punct('.')
        && matches!(toks.get(i + 1), Some(t) if t.is_ident(name))
        && matches!(toks.get(i + 2), Some(t) if t.is_punct('('))
}

/// Index of the bracket matching `toks[open]`, or `None` if unbalanced.
fn matching(toks: &[Token], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            if t.is_punct(open_c) {
                depth += 1;
            } else if t.is_punct(close_c) {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
    }
    None
}
