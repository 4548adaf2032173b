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
//! * [`findings::rules::TEST_ONLY_PUB`] — a library `pub fn` that only tests call, or
//!   nothing at all (53 of them when the rule arrived). The one cross-file rule: it runs
//!   on directory and file scans ([`lint_paths`]), not on [`lint_source`].
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

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

use analysis::FileAnalysis;
use config::LintConfig;
use findings::Finding;

/// Lints one in-memory source file with every single-file rule. `rel_path` is the
/// diagnostic path and drives the path-scoped rules.
// pliant-lint: allow(test-only-pub) the crate docs' example shows it as the single-file API
pub fn lint_source(rel_path: &str, source: &str, cfg: &LintConfig) -> Vec<Finding> {
    let analysis = analysis::analyze(rel_path, source);
    rules::run_rules(&analysis, cfg, None)
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

/// Lints every `.rs` file under each of `roots` (directories, or single files) with
/// every rule.
///
/// Diagnostic paths, which the path-scoped rules match, are relative to a base: the
/// current directory when a root is relative or an absolute path under it
/// (`crates/sim` and `$PWD/crates/sim` report `crates/sim/src/colocation.rs`, as `.`
/// does), or else the root itself (its directory, for a file). `test-only-pub` looks
/// for uses in every `.rs` file under that base, so run the tool from the workspace
/// root. Each file under a base is read and analyzed once, however many roots share the
/// base. An error names the root it arose under.
pub fn lint_paths<P: AsRef<Path>>(roots: &[P], cfg: &LintConfig) -> io::Result<Vec<Finding>> {
    let cwd = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    let mut workspaces: BTreeMap<PathBuf, Workspace> = BTreeMap::new();
    let mut all = Vec::new();
    for root in roots {
        let root = root.as_ref();
        let in_root = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", root.display()));
        let under_cwd = cwd.as_deref().and_then(|cwd| relative_to(root, cwd));
        let root = under_cwd.as_deref().unwrap_or(root);
        let files = collect_rs_files(root, cfg).map_err(in_root)?;
        let base = match root.is_absolute() {
            false => Path::new("."),
            true if root.is_file() => root.parent().unwrap_or(root),
            true => root,
        };
        if !workspaces.contains_key(base) {
            let ws = Workspace::index(base, cfg).map_err(in_root)?;
            workspaces.insert(base.to_path_buf(), ws);
        }
        let ws = &workspaces[base];
        for file in files {
            let rel = diagnostic_path(base, &file);
            // A root inside a skipped directory (`fixtures/`) is not in the index.
            let outside;
            let analysis = match ws.files.get(&rel) {
                Some(a) => a,
                None => {
                    outside = analyze_file(&rel, &file).map_err(in_root)?;
                    &outside
                }
            };
            all.extend(rules::run_rules(analysis, cfg, Some(&ws.used)));
        }
    }
    Ok(all)
}

/// The relative form of an absolute `root` that lies under the canonical `cwd` (`.` for
/// `cwd` itself), compared in canonical form so that `..` and symbolic links resolve;
/// `None` otherwise.
fn relative_to(root: &Path, cwd: &Path) -> Option<PathBuf> {
    if !root.is_absolute() {
        return None;
    }
    let canonical = root.canonicalize().ok()?;
    let rel = canonical.strip_prefix(cwd).ok()?;
    Some(if rel.as_os_str().is_empty() {
        PathBuf::from(".")
    } else {
        rel.to_path_buf()
    })
}

/// Every `.rs` file under a scan base, analyzed, keyed by diagnostic path, and the
/// names their non-test code uses.
struct Workspace {
    files: BTreeMap<String, FileAnalysis>,
    used: BTreeSet<String>,
}

impl Workspace {
    fn index(base: &Path, cfg: &LintConfig) -> io::Result<Self> {
        let mut ws = Workspace {
            files: BTreeMap::new(),
            used: BTreeSet::new(),
        };
        for file in collect_rs_files(base, cfg)? {
            let rel = diagnostic_path(base, &file);
            let analysis = analyze_file(&rel, &file)?;
            rules::collect_uses(&analysis, &mut ws.used);
            ws.files.insert(rel, analysis);
        }
        Ok(ws)
    }
}

fn analyze_file(rel_path: &str, file: &Path) -> io::Result<FileAnalysis> {
    Ok(analysis::analyze(rel_path, &std::fs::read_to_string(file)?))
}

/// The `/`-separated path of `file` relative to `base` (or `file` itself when it is not
/// under `base`), with any leading `./` stripped.
fn diagnostic_path(base: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(base).unwrap_or(file);
    let joined = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/");
    joined.strip_prefix("./").unwrap_or(&joined).to_string()
}
