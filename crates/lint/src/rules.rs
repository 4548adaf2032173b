//! The seven rules, each grounded in a bug class this repository has actually shipped
//! and then fixed reactively (see the README "Static analysis" section for the history).

use std::collections::BTreeSet;

use crate::analysis::FileAnalysis;
use crate::config::{path_in, path_is_test_code, path_under_dir, LintConfig};
use crate::findings::{rules, Finding};
use crate::tokenizer::{Token, TokenKind};

/// Runs every rule over one analyzed file. Findings are sorted by line then rule, with
/// at most one finding per `(rule, line)` pair, and pragma-suppressed findings removed.
/// `used` is the workspace's index of used names (`collect_uses`); without it the one
/// cross-file rule, `test-only-pub`, does not run.
pub fn run_rules(
    a: &FileAnalysis,
    cfg: &LintConfig,
    used: Option<&BTreeSet<String>>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    nan_unsafe_cmp(a, &mut findings);
    hot_path_alloc(a, cfg, &mut findings);
    nondeterminism(a, cfg, &mut findings);
    validate_bypass(a, cfg, &mut findings);
    panic_hygiene(a, cfg, &mut findings);
    unsafe_scope(a, cfg, &mut findings);
    if let Some(used) = used {
        test_only_pub(a, cfg, used, &mut findings);
    }

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
    if path_in(&a.rel_path, &cfg.compat_shims) || path_is_test_code(&a.rel_path) {
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

/// A `pub fn` in library code whose name no non-test code in the workspace uses: an API
/// kept alive only by tests (or by nothing) is code the system does not need. Library
/// code is non-test code under `crates/*/src/` and `src/`, minus binaries and
/// [`LintConfig::compat_shims`]. Uses are matched by name only (see
/// [`collect_uses`]), so a function sharing its name with one that is used elsewhere
/// passes (an uncalled `T::new` passes on every other `new` called in the workspace).
fn test_only_pub(
    a: &FileAnalysis,
    cfg: &LintConfig,
    used: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    if !is_library_code(&a.rel_path) || path_in(&a.rel_path, &cfg.compat_shims) {
        return;
    }
    let toks = &a.tokens;
    for i in 0..toks.len() {
        if a.context[i].in_test || !toks[i].is_ident("pub") {
            continue;
        }
        let Some(name) = pub_fn_name(toks, i) else {
            continue;
        };
        if !used.contains(name) {
            emit(
                findings,
                rules::TEST_ONLY_PUB,
                a,
                toks[i].line,
                format!(
                    "`pub fn {name}` has no caller in non-test code of the workspace; delete \
                     it, move it into the test that uses it, or annotate with \
                     `// pliant-lint: allow(test-only-pub)` naming the README section, \
                     example or cross-crate reference test that makes it API"
                ),
            );
        }
    }
}

/// Whether `rel_path` is library source: under `src/` or `crates/<name>/src/`, and not a
/// binary (`bin/`, `main.rs`) or test code.
fn is_library_code(rel_path: &str) -> bool {
    let segments: Vec<&str> = rel_path.split('/').collect();
    let in_src = match segments.as_slice() {
        ["src", rest @ ..] | ["crates", _, "src", rest @ ..] => {
            !rest.contains(&"bin") && rest.last() != Some(&"main.rs")
        }
        _ => false,
    };
    in_src && !path_is_test_code(rel_path)
}

/// The name of the function that a `pub` at `toks[i]` declares, if it does: `pub fn f`,
/// or with qualifiers, `pub const fn f`. A restricted `pub(crate) fn` is not public API.
fn pub_fn_name(toks: &[Token], i: usize) -> Option<&str> {
    let mut j = i + 1;
    while toks
        .get(j)
        .is_some_and(|t| ["const", "async", "unsafe"].iter().any(|q| t.is_ident(q)))
    {
        j += 1;
    }
    if !toks.get(j)?.is_ident("fn") {
        return None;
    }
    toks.get(j + 1)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
}

/// Adds to `used` every name that non-test code in `a` spells the way a function is
/// used: a name followed by `(` or `::<` (not a definition's own name), a name after
/// `::`, any name inside a private `use` item (which covers a function imported and
/// passed by name), and the last `::` segment of a string inside an attribute (which
/// covers `#[serde(validate = "T::f")]`). Comments, doc tests, fields and locals do not
/// count: a field `self.mode` must not hide an unused `fn mode`. Nor does a re-export
/// (`pub use`, `pub(..) use`): it only renames what a caller elsewhere must still use.
/// Files under `tests/` and `benches/` add nothing; `examples/` do, since an example
/// shows API.
pub(crate) fn collect_uses(a: &FileAnalysis, used: &mut BTreeSet<String>) {
    if path_under_dir(&a.rel_path, &["tests/", "benches/"]) {
        return;
    }
    let toks = &a.tokens;
    let punct = |j: usize, c: char| toks.get(j).is_some_and(|t| t.is_punct(c));
    let mut in_use = false;
    let mut in_reexport = false;
    let mut attribute_end = 0usize;
    for (i, tok) in toks.iter().enumerate() {
        if a.context[i].in_test {
            continue;
        }
        match tok.kind {
            TokenKind::Ident if tok.text == "use" => {
                in_use = true;
                in_reexport = is_reexport(toks, i);
            }
            TokenKind::Ident if in_reexport => {}
            TokenKind::Ident => {
                let defined = i >= 1 && toks[i - 1].is_ident("fn");
                let called = punct(i + 1, '(')
                    || (punct(i + 1, ':') && punct(i + 2, ':') && punct(i + 3, '<'));
                let after_path = i >= 2 && punct(i - 1, ':') && punct(i - 2, ':');
                if in_use || after_path || (called && !defined) {
                    used.insert(tok.text.clone());
                }
            }
            TokenKind::Punct if tok.is_punct(';') => {
                in_use = false;
                in_reexport = false;
            }
            TokenKind::Punct if tok.is_punct('#') => {
                let open = if punct(i + 1, '!') { i + 2 } else { i + 1 };
                if punct(open, '[') {
                    attribute_end = matching(toks, open, '[', ']').unwrap_or(toks.len());
                }
            }
            TokenKind::Str if i < attribute_end => {
                let last = tok.text.rsplit("::").next().unwrap_or_default();
                if tok.text.contains("::")
                    && !last.is_empty()
                    && last.chars().all(|c| c.is_alphanumeric() || c == '_')
                {
                    used.insert(last.to_string());
                }
            }
            _ => {}
        }
    }
}

// --- token-pattern helpers ---------------------------------------------------------

/// The `use` at `toks[i]` is a re-export: `pub use` or `pub(..) use`.
fn is_reexport(toks: &[Token], i: usize) -> bool {
    let vis = match i.checked_sub(1).map(|j| &toks[j]) {
        Some(t) if t.is_punct(')') => (0..i - 1).rev().find(|&j| toks[j].is_punct('(')),
        _ => Some(i),
    };
    vis.and_then(|j| j.checked_sub(1))
        .is_some_and(|j| toks[j].is_ident("pub"))
}

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
