//! `pliant-lint` — self-hosted static analysis for the Pliant workspace.
//!
//! Every rule mechanizes a correctness invariant this repository has already shipped a
//! bug against and fixed reactively:
//!
//! * [`findings::rules::NAN_UNSAFE_CMP`] — `partial_cmp(..).unwrap()` float sorts that
//!   panic on NaN (fixed reactively in PR 4 and PR 5, still live in three minebench
//!   kernels when this tool was introduced).
//! * [`findings::rules::HOT_PATH_ALLOC`] — allocations inside the per-interval hot path
//!   that PR 4 made allocation-free for a 2.2-3x speedup.
//! * [`findings::rules::NONDETERMINISM`] — wall-clock reads and hash-ordered iteration,
//!   which threaten the serial==parallel byte-identity guarantee.
//! * [`findings::rules::VALIDATE_BYPASS`] — serde-derived `Deserialize` on types with a
//!   `validate()` method (the PR 5 `InterferenceModel`/`PowerModel` bug).
//! * [`findings::rules::PANIC_HYGIENE`] — `unwrap()`/`expect()` in non-test library code
//!   of the simulation crates.
//! * [`findings::rules::UNSAFE_SCOPE`] — the `unsafe` keyword outside the one module that
//!   needs it, the AVX2 dispatch in `crates/telemetry/src/simd.rs`.
//!
//! The tool is dependency-free (std only) with its own small Rust lexer — consistent
//! with the workspace's offline compat-shim environment — and deny-by-default:
//! violations either get fixed or carry an explicit
//! `// pliant-lint: allow(<rule>) <justification>` pragma.
//!
//! # Example
//!
//! ```
//! use pliant_lint::{config::LintConfig, lint_source};
//!
//! let findings = lint_source(
//!     "crates/sim/src/example.rs",
//!     "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
//!     &LintConfig::repo_default(),
//! );
//! assert_eq!(findings.len(), 2); // nan-unsafe-cmp + panic-hygiene
//! assert_eq!(findings[0].rule, "nan-unsafe-cmp");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod config;
pub mod findings;
pub mod rules;
pub mod tokenizer;

use std::io;
use std::path::{Path, PathBuf};

use config::LintConfig;
use findings::Finding;

/// Lints one in-memory source file. `rel_path` is the diagnostic path and drives the
/// path-scoped rules.
pub fn lint_source(rel_path: &str, source: &str, cfg: &LintConfig) -> Vec<Finding> {
    let analysis = analysis::analyze(rel_path, source);
    rules::run_rules(&analysis, cfg)
}

/// Recursively collects the `.rs` files under `root` (or `root` itself if it is a
/// file), skipping [`LintConfig::skip_dirs`], in sorted order so output and exit codes
/// are deterministic.
pub fn collect_rs_files(root: &Path, cfg: &LintConfig) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    if root.is_file() {
        files.push(root.to_path_buf());
        return Ok(files);
    }
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if !cfg.skip_dirs.iter().any(|d| d == name) {
                    stack.push(path);
                }
            } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints every `.rs` file under `root`. Diagnostic paths are reported relative to
/// `root`, so path-scoped rules expect `root` to be the workspace root.
pub fn lint_path(root: &Path, cfg: &LintConfig) -> io::Result<Vec<Finding>> {
    let mut all = Vec::new();
    for file in collect_rs_files(root, cfg)? {
        let rel = diagnostic_path(root, &file);
        let source = std::fs::read_to_string(&file)?;
        all.extend(lint_source(&rel, &source, cfg));
    }
    Ok(all)
}

/// The `/`-separated path of `file` relative to `root` (or `file` itself when it is not
/// under `root`), with any leading `./` stripped.
fn diagnostic_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    let joined = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/");
    joined.strip_prefix("./").unwrap_or(&joined).to_string()
}
