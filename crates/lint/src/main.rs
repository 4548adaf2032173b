//! CLI for `pliant-lint`.
//!
//! ```text
//! pliant-lint [OPTIONS] [PATH...]
//!
//! Options:
//!   --check            CI mode: exit nonzero when there are findings
//!   --json             emit findings as a JSON array instead of text
//!   --only RULES       run only the comma-separated rules
//!   --skip RULES       run all rules except the comma-separated ones
//!   --list-rules       print the rule catalog and exit
//! ```
//!
//! With no path, the current directory is scanned. Paths are scanned recursively for
//! `.rs` files (skipping `target/`, `.git/`, and `fixtures/`). A relative path is
//! reported as given, relative to the current directory (an absolute one relative to
//! itself), and `test-only-pub` looks for uses under the current directory, so run the
//! tool from the workspace root for the path-scoped rules to apply as configured.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

use pliant_lint::config::LintConfig;
use pliant_lint::findings::{is_known_rule, to_json, Finding, ALL_RULES};
use pliant_lint::lint_paths;

fn main() -> ExitCode {
    let mut check = false;
    let mut json = false;
    let mut only: Option<BTreeSet<String>> = None;
    let mut skip: BTreeSet<String> = BTreeSet::new();
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--json" => json = true,
            "--list-rules" => {
                for rule in ALL_RULES {
                    println!("{:18} {}", rule.id, rule.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--only" | "--skip" => {
                let Some(list) = args.next() else {
                    eprintln!("error: {arg} requires a comma-separated rule list");
                    return ExitCode::from(2);
                };
                let rules: BTreeSet<String> =
                    list.split(',').map(|r| r.trim().to_string()).collect();
                for r in &rules {
                    if !is_known_rule(r) {
                        eprintln!("error: unknown rule `{r}` (try --list-rules)");
                        return ExitCode::from(2);
                    }
                }
                if arg == "--only" {
                    only = Some(rules);
                } else {
                    skip.extend(rules);
                }
            }
            "--help" | "-h" => {
                println!(
                    "pliant-lint [--check] [--json] [--only RULES] [--skip RULES] \
                     [--list-rules] [PATH...]"
                );
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("error: unknown option `{arg}` (try --help)");
                return ExitCode::from(2);
            }
            _ => paths.push(PathBuf::from(arg)),
        }
    }
    if paths.is_empty() {
        paths.push(PathBuf::from("."));
    }

    let cfg = LintConfig::repo_default();
    let mut findings: Vec<Finding> = match lint_paths(&paths, &cfg) {
        Ok(found) => found,
        Err(e) => {
            eprintln!("error: cannot lint {e}");
            return ExitCode::from(2);
        }
    };

    findings.retain(|f| only.as_ref().is_none_or(|o| o.contains(f.rule)) && !skip.contains(f.rule));
    findings
        .sort_by(|x, y| (x.path.as_str(), x.line, x.rule).cmp(&(y.path.as_str(), y.line, y.rule)));

    if json {
        println!("{}", to_json(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
        if findings.is_empty() {
            eprintln!("pliant-lint: no findings");
        } else {
            eprintln!("pliant-lint: {} finding(s)", findings.len());
        }
    }

    if check && !findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
