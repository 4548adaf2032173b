//! The command line of the figure binaries and `pliant-trace`.
//!
//! Each binary declares the flags it reads, each written as `--name` for a switch or
//! `--name VALUE` for a flag that takes a value, and [`Cli::parse`] accepts exactly
//! those. An undeclared flag, a flag given twice, a value flag without a value (it is
//! the last argument, or the next one starts with `--`) and a stray positional
//! argument are errors: the binary exits with status 2, naming the flag and listing
//! the accepted ones, before it runs anything. An unparsable value exits the same way
//! when the binary reads it, which every binary does before its first run.

use std::str::FromStr;

use serde::Serialize;

/// Prints `error: {message}` and exits with status 2, the status of every
/// command-line error.
pub fn reject(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// One binary's parsed command line; see the module docs.
#[derive(Debug)]
pub struct Cli {
    given: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

impl Cli {
    /// Parses a figure binary's arguments against `--json` plus `flags`, exiting with
    /// status 2 on any error.
    pub fn figure(flags: &[&'static str]) -> Cli {
        let flags = [&["--json"], flags].concat();
        Cli::parse(std::env::args().skip(1), &flags, false).unwrap_or_else(|e| reject(e))
    }

    /// Parses the arguments of a binary with subcommands: the first names one of
    /// `commands`, each listed with the flags it declares, and positional arguments
    /// may follow. Returns `None` when the first argument names no subcommand, and
    /// exits with status 2 on any other error.
    pub fn subcommand(commands: &[(&'static str, &[&'static str])]) -> Option<(&'static str, Cli)> {
        let mut args = std::env::args().skip(1);
        let given = args.next()?;
        let &(name, flags) = commands.iter().find(|(name, _)| *name == given)?;
        Some((
            name,
            Cli::parse(args, flags, true).unwrap_or_else(|e| reject(e)),
        ))
    }

    /// Parses `args` against the declared `flags`, keeping positional arguments when
    /// `positionals` is set and rejecting them otherwise.
    ///
    /// # Errors
    ///
    /// Returns the message to print when an argument breaks a rule of the module docs.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        flags: &[&'static str],
        positionals: bool,
    ) -> Result<Cli, String> {
        let fail = |problem: String| {
            let accepted = if flags.is_empty() {
                "none".to_string()
            } else {
                flags.join(", ")
            };
            Err(format!("{problem} (accepted flags: {accepted})"))
        };
        let mut cli = Cli {
            given: Vec::new(),
            positionals: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                if !positionals {
                    return fail(format!("unexpected argument `{arg}`"));
                }
                cli.positionals.push(arg);
                continue;
            }
            let Some(spec) = flags
                .iter()
                .find(|spec| spec.split(' ').next() == Some(&*arg))
            else {
                return fail(format!("unknown flag {arg}"));
            };
            if cli.given.iter().any(|(name, _)| *name == arg) {
                return fail(format!("{arg} is given twice"));
            }
            let (name, value) = match spec.split_once(' ') {
                None => (*spec, None),
                Some((name, _)) => match args.next() {
                    Some(value) if !value.starts_with("--") => (name, Some(value)),
                    _ => return fail(format!("{arg} expects a value")),
                },
            };
            cli.given.push((name, value));
        }
        Ok(cli)
    }

    /// Whether the flag `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|(given, _)| *given == name)
    }

    /// The value of the flag `name`, or `None` when it was not given.
    pub fn text(&self, name: &str) -> Option<&str> {
        let (_, value) = self.given.iter().find(|(given, _)| *given == name)?;
        value.as_deref()
    }

    /// The value of the flag `name` parsed as `T`, or `None` when it was not given.
    /// Exits with status 2 on an unparsable value.
    pub fn value<T: FromStr>(&self, name: &str) -> Option<T> {
        let value = self.text(name)?;
        Some(
            value
                .parse()
                .unwrap_or_else(|_| reject(format!("invalid value `{value}` for {name}"))),
        )
    }

    /// Like [`Self::value`], and exits with status 2 on a value below `min`; `why`
    /// names what sets that floor.
    pub fn at_least(&self, name: &str, min: usize, why: &str) -> Option<usize> {
        let value = self.value(name)?;
        if value < min {
            reject(format!("{name} must be at least {min} ({why})"));
        }
        Some(value)
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Prints `figure` as one pretty JSON document under `--json`, and otherwise
    /// runs `report`, which prints it as text.
    pub fn emit<F: Serialize>(&self, figure: &F, report: impl FnOnce(&F)) {
        if self.switch("--json") {
            println!(
                "{}",
                serde_json::to_string_pretty(figure).expect("figures serialize")
            );
        } else {
            report(figure);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: [&str; 3] = ["--json", "--seed N", "--full"];

    fn parse(args: &[&str], positionals: bool) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|a| a.to_string()), &FLAGS, positionals)
    }

    #[test]
    fn declared_flags_are_read_back() {
        let cli = parse(&["--seed", "9", "--json"], false).expect("declared flags parse");
        assert!(cli.switch("--json"));
        assert!(!cli.switch("--full"));
        assert_eq!(cli.text("--seed"), Some("9"));
        assert_eq!(cli.value::<u64>("--seed"), Some(9));
        assert_eq!(cli.value::<u64>("--other"), None);
        let empty = parse(&[], false).expect("no arguments parse");
        assert!(!empty.switch("--json"));
        assert_eq!(empty.value::<u64>("--seed"), None);
    }

    #[test]
    fn undeclared_flags_are_rejected_with_the_accepted_list() {
        let err = parse(&["--json", "--bogus"], false).expect_err("undeclared flag");
        assert!(err.contains("unknown flag --bogus"), "{err}");
        assert!(err.contains("--json, --seed N, --full"), "{err}");
        let none = Cli::parse(["--kind".to_string()], &[], true).expect_err("no flags");
        assert!(none.contains("accepted flags: none"), "{none}");
    }

    #[test]
    fn repeated_flags_are_rejected() {
        let err = parse(&["--seed", "2", "--seed", "0"], false).expect_err("repeated");
        assert!(err.contains("--seed is given twice"), "{err}");
        let err = parse(&["--json", "--json"], false).expect_err("repeated switch");
        assert!(err.contains("--json is given twice"), "{err}");
    }

    #[test]
    fn a_value_flag_without_a_value_is_rejected() {
        for args in [&["--seed"][..], &["--seed", "--json"][..]] {
            let err = parse(args, false).expect_err("missing value");
            assert!(err.contains("--seed expects a value"), "{args:?}: {err}");
        }
        // A value may start with a single dash.
        let cli = parse(&["--seed", "-1"], false).expect("negative value");
        assert_eq!(cli.value::<i64>("--seed"), Some(-1));
    }

    #[test]
    fn positionals_are_kept_only_where_allowed() {
        let err = parse(&["--json", "stray"], false).expect_err("stray positional");
        assert!(err.contains("unexpected argument `stray`"), "{err}");
        let cli = parse(&["a.jsonl", "--seed", "3", "b.jsonl"], true).expect("positionals");
        assert_eq!(cli.positionals(), ["a.jsonl", "b.jsonl"]);
        assert_eq!(cli.text("--seed"), Some("3"));
    }
}
