//! `pliant-trace`: inspect the JSONL decision-event streams the `--trace` flags of
//! the fleet figure binaries export (see `pliant_telemetry::obs`).
//!
//! Subcommands:
//!
//! * `summary FILE` — per-kind event counts (raw and replica-weighted), interval
//!   coverage, and the run's shape from its `FleetStart` record.
//! * `filter FILE [--kind K] [--node N] [--from-interval A] [--to-interval B]` —
//!   re-emit matching records as JSONL (composable with itself and other tools).
//! * `diff A B` — compare two streams' per-kind counters; exits 1 when the weighted
//!   counters differ (0 when the two runs recorded the same logical decision counts).
//! * `explain FILE --violation N [--node M] [--window W]` — the causal window query:
//!   show everything that happened to the violating node (and the fleet) around the
//!   `N`-th QoS violation (on node `M`, when given), `W` intervals to each side.
//! * `narrative FILE...` — reconstruct the machines-needed narrative from the logs
//!   alone: per file, the fleet size and QoS verdict from `FleetStart` +
//!   `IntervalSummary` records; across files, the smallest passing fleet.
//!
//! Each subcommand accepts only the flags listed with it; any other flag, a repeated
//! one, a missing or unparsable value or a wrong number of files exits with status 2.
//!
//! Input must be JSON Lines (one `EventRecord` per line). Chrome trace-event `.json`
//! exports are for Perfetto; re-export with a non-`.json` extension to inspect here.

use std::io::{BufRead, BufReader};

use pliant_bench::cli::{reject, Cli};
use pliant_bench::print_table;
use pliant_telemetry::obs::{Event, EventKind, EventRecord, MetricsRegistry};

fn usage() -> ! {
    eprintln!(
        "usage: pliant-trace <summary|filter|diff|explain|narrative> [options] FILE...\n\
         \n\
         summary FILE                         per-kind counts and run shape\n\
         filter FILE [--kind K] [--node N]\n\
         \x20      [--from-interval A] [--to-interval B]   re-emit matching JSONL\n\
         diff A B                             compare per-kind counters (exit 1 on drift)\n\
         explain FILE --violation N\n\
         \x20      [--node M] [--window W]    events around the N-th QoS violation\n\
         narrative FILE...                    machines-needed story from the logs alone"
    );
    std::process::exit(2);
}

fn load(path: &str) -> Vec<EventRecord> {
    if path.ends_with(".json") {
        reject(format!(
            "{path} looks like a Chrome trace-event export (for Perfetto); \
             pliant-trace reads the JSONL format — re-export with a non-.json extension"
        ));
    }
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("error: cannot open {path}: {e}");
        std::process::exit(1);
    });
    let mut records = Vec::new();
    for (ln, line) in BufReader::new(file).lines().enumerate() {
        let line = line.unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        });
        if line.trim().is_empty() {
            continue;
        }
        let record: EventRecord = serde_json::from_str(&line).unwrap_or_else(|e| {
            eprintln!("error: {path}:{}: not an event record: {e}", ln + 1);
            std::process::exit(1);
        });
        records.push(record);
    }
    records
}

/// Per-kind (raw, weighted) counters over a record slice: the run's own registry,
/// rebuilt from the retained records.
fn count_kinds(records: &[EventRecord]) -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    for r in records {
        registry.record(r.event.kind(), r.weight);
    }
    registry
}

fn describe(r: &EventRecord) -> String {
    let who = match r.source {
        0 => "fleet".to_string(),
        s => format!("node {}", s - 1),
    };
    format!(
        "[{:>5}] t={:>8.2}s  {:<8} {:?}",
        r.interval, r.time_s, who, r.event
    )
}

fn cmd_summary(records: &[EventRecord], path: &str) {
    println!("{path}: {} records", records.len());
    if let Some(r) = records
        .iter()
        .find(|r| r.event.kind() == EventKind::FleetStart)
    {
        if let Event::FleetStart {
            nodes,
            instances,
            slots_per_node,
            qos_target_s,
        } = r.event
        {
            println!(
                "fleet: {nodes} logical nodes on {instances} simulated instances, \
                 {slots_per_node} batch slots/node, QoS target {:.1} ms",
                qos_target_s * 1e3
            );
        }
    }
    if let (Some(first), Some(last)) = (records.first(), records.last()) {
        println!(
            "intervals {}..{} ({:.1}s..{:.1}s of sim time)",
            first.interval, last.interval, first.time_s, last.time_s
        );
    }
    println!();
    let registry = count_kinds(records);
    let rows: Vec<Vec<String>> = EventKind::ALL
        .into_iter()
        .filter(|&k| registry.count(k) > 0)
        .map(|k| {
            vec![
                k.name().to_string(),
                registry.count(k).to_string(),
                registry.weighted(k).to_string(),
            ]
        })
        .collect();
    print_table(&["event", "records", "weighted"], &rows);
}

fn cmd_filter(path: &str, cli: &Cli) {
    let kind = cli.text("--kind").map(|v| {
        EventKind::parse(v).unwrap_or_else(|| {
            reject(format!(
                "unknown event kind {v} (expected one of: {})",
                EventKind::ALL.map(|k| k.name()).join(", ")
            ))
        })
    });
    let node: Option<u32> = cli.value("--node");
    let from: u32 = cli.value("--from-interval").unwrap_or(0);
    let to: u32 = cli.value("--to-interval").unwrap_or(u32::MAX);
    for r in &load(path) {
        if r.interval < from || r.interval > to {
            continue;
        }
        if let Some(k) = kind {
            if r.event.kind() != k {
                continue;
            }
        }
        if let Some(n) = node {
            if r.event.node() != Some(n) {
                continue;
            }
        }
        println!("{}", serde_json::to_string(r).expect("records serialize"));
    }
}

fn cmd_diff(a_path: &str, b_path: &str) {
    let a = count_kinds(&load(a_path));
    let b = count_kinds(&load(b_path));
    let mut drifted = false;
    let rows: Vec<Vec<String>> = EventKind::ALL
        .into_iter()
        .filter(|&k| a.count(k) > 0 || b.count(k) > 0)
        .map(|k| {
            let delta = b.weighted(k) as i64 - a.weighted(k) as i64;
            if delta != 0 {
                drifted = true;
            }
            vec![
                k.name().to_string(),
                format!("{} ({}w)", a.count(k), a.weighted(k)),
                format!("{} ({}w)", b.count(k), b.weighted(k)),
                format!("{delta:+}"),
            ]
        })
        .collect();
    print_table(&["event", a_path, b_path, "weighted delta"], &rows);
    if drifted {
        println!("\nstreams differ (weighted logical event counts drifted)");
        std::process::exit(1);
    }
    println!("\nstreams agree on every weighted logical event count");
}

fn cmd_explain(path: &str, cli: &Cli) {
    let ordinal: usize = cli
        .value("--violation")
        .unwrap_or_else(|| reject("explain requires --violation N (1-based)"));
    let node: Option<u32> = cli.value("--node");
    let window: u32 = cli.value("--window").unwrap_or(3);
    if ordinal == 0 {
        reject("--violation is 1-based");
    }
    let records = load(path);
    let target = records
        .iter()
        .filter(|r| r.event.kind() == EventKind::QosViolation)
        .filter(|r| node.is_none() || r.event.node() == node)
        .nth(ordinal - 1)
        .unwrap_or_else(|| {
            let scope = node.map_or(String::new(), |n| format!(" on node {n}"));
            eprintln!("error: the log holds no {ordinal}-th QoS violation{scope}");
            std::process::exit(1);
        });
    let violating_node = target.event.node();
    let lo = target.interval.saturating_sub(window);
    let hi = target.interval.saturating_add(window);
    println!(
        "QoS violation #{ordinal}{}: interval {}, t={:.2}s",
        violating_node.map_or(String::new(), |n| format!(" (node {n})")),
        target.interval,
        target.time_s
    );
    println!("causal window: intervals {lo}..{hi}, the node's events plus fleet events\n");
    for r in &records {
        if r.interval < lo || r.interval > hi {
            continue;
        }
        // Keep the violating node's own chain and every fleet-scope event (interval
        // rollups, placements onto the node are node-scoped and already kept).
        let keep = match r.event.node() {
            Some(n) => Some(n) == violating_node,
            None => true,
        };
        if !keep {
            continue;
        }
        let marker = if std::ptr::eq(r, target) {
            " <-- here"
        } else {
            ""
        };
        println!("{}{marker}", describe(r));
    }
}

/// One run's machines-needed verdict, reconstructed purely from its event stream.
struct RunVerdict {
    path: String,
    nodes: u32,
    busy: u64,
    violating: u64,
    qos_met: bool,
}

fn verdict(path: &str) -> RunVerdict {
    let records = load(path);
    let nodes = records
        .iter()
        .find_map(|r| match r.event {
            Event::FleetStart { nodes, .. } => Some(nodes),
            _ => None,
        })
        .unwrap_or_else(|| {
            eprintln!("error: {path} has no FleetStart record; was it traced from the start?");
            std::process::exit(1);
        });
    let mut busy = 0u64;
    let mut violating = 0u64;
    for r in &records {
        if let Event::IntervalSummary {
            busy: b,
            violating: v,
            ..
        } = r.event
        {
            busy += b as u64;
            violating += v as u64;
        }
    }
    // The same 5%-of-busy-node-intervals allowance ClusterOutcome::qos_met applies.
    let qos_met = violating as f64 <= 0.05 * busy as f64 && busy > 0;
    RunVerdict {
        path: path.to_string(),
        nodes,
        busy,
        violating,
        qos_met,
    }
}

fn cmd_narrative(paths: &[String]) {
    let verdicts: Vec<RunVerdict> = paths.iter().map(|p| verdict(p)).collect();
    let rows: Vec<Vec<String>> = verdicts
        .iter()
        .map(|v| {
            vec![
                v.path.clone(),
                v.nodes.to_string(),
                v.busy.to_string(),
                v.violating.to_string(),
                format!(
                    "{:.1}%",
                    100.0 * v.violating as f64 / (v.busy.max(1)) as f64
                ),
                if v.qos_met { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "log",
            "machines",
            "busy node-intervals",
            "violating",
            "violation rate",
            "QoS met",
        ],
        &rows,
    );
    match verdicts.iter().filter(|v| v.qos_met).map(|v| v.nodes).min() {
        Some(n) => println!("\nmachines needed (smallest passing fleet in these logs): {n}"),
        None => println!("\nno fleet in these logs met the 5% QoS allowance"),
    }
}

fn main() {
    let Some((cmd, cli)) = Cli::subcommand(&[
        ("summary", &[]),
        (
            "filter",
            &[
                "--kind K",
                "--node N",
                "--from-interval A",
                "--to-interval B",
            ],
        ),
        ("diff", &[]),
        ("explain", &["--violation N", "--node M", "--window W"]),
        ("narrative", &[]),
    ]) else {
        usage()
    };
    match (cmd, cli.positionals()) {
        ("summary", [path]) => cmd_summary(&load(path), path),
        ("filter", [path]) => cmd_filter(path, &cli),
        ("diff", [a, b]) => cmd_diff(a, b),
        ("explain", [path]) => cmd_explain(path, &cli),
        ("narrative", paths) if !paths.is_empty() => cmd_narrative(paths),
        _ => usage(),
    }
}
