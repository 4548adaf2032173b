//! Regenerates Figure 10: the breakdown of colocations where approximation alone was
//! enough to restore QoS versus those needing 1, 2, 3, or 4+ reclaimed cores.
//!
//! The paper aggregates over 1-, 2-, and 3-application mixes; this harness runs all
//! single-application colocations plus a deterministic subset of 2- and 3-way mixes
//! (`--combos N` to change the subset size). Mixes run as one application-set sweep per
//! service with independent per-cell seeds, since the cells are aggregated as independent
//! experiments.
//!
//! Usage: `fig10_breakdown [--json] [--combos N]`

use std::collections::BTreeMap;

use pliant_approx::catalog::AppId;
use pliant_bench::{print_table, Cli};
use pliant_core::engine::Engine;
use pliant_core::experiment::{classify_effort, EffortClass};
use pliant_core::scenario::Scenario;
use pliant_core::suite::{SeedMode, Suite};
use pliant_workloads::service::ServiceId;
use serde::Serialize;

#[derive(Serialize)]
struct BreakdownRow {
    service: String,
    approximation_only: f64,
    one_core: f64,
    two_cores: f64,
    three_cores: f64,
    four_plus_cores: f64,
    experiments: usize,
}

fn mixes(combos: usize) -> Vec<Vec<AppId>> {
    let apps = AppId::all();
    let mut mixes: Vec<Vec<AppId>> = apps.iter().map(|&a| vec![a]).collect();
    // Deterministic 2- and 3-way subsets spread across the application list.
    for i in 0..combos {
        let a = apps[(i * 5) % apps.len()];
        let b = apps[(i * 7 + 3) % apps.len()];
        if a != b {
            mixes.push(vec![a, b]);
        }
        let c = apps[(i * 11 + 6) % apps.len()];
        if a != b && b != c && a != c {
            mixes.push(vec![a, b, c]);
        }
    }
    mixes
}

fn main() {
    let cli = Cli::figure(&["--combos N"]);
    let combos: usize = cli.value("--combos").unwrap_or(12);

    let suite = Suite::new(
        Scenario::builder(ServiceId::Nginx)
            .app(AppId::Canneal)
            .horizon_intervals(50)
            .seed(500)
            .build(),
    )
    .named("fig10")
    .seed_mode(SeedMode::Independent)
    .for_each_service(ServiceId::all())
    .for_each_app_set(mixes(combos));

    let engine = Engine::new().parallel();
    let cells = engine.run_collect(&suite);

    let mut rows: Vec<BreakdownRow> = Vec::new();
    for service in ServiceId::all() {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut total = 0usize;
        for cell in cells.iter().filter(|c| c.scenario.service == service) {
            let key = match classify_effort(&cell.outcome) {
                EffortClass::ApproximationOnly => "approx",
                EffortClass::Cores(1) => "1 core",
                EffortClass::Cores(2) => "2 cores",
                EffortClass::Cores(_) => "3 cores",
                EffortClass::FourPlusCores => "4+ cores",
            };
            *counts.entry(key).or_insert(0) += 1;
            total += 1;
        }
        let frac = |k: &str| *counts.get(k).unwrap_or(&0) as f64 / total.max(1) as f64;
        rows.push(BreakdownRow {
            service: service.name().to_string(),
            approximation_only: frac("approx"),
            one_core: frac("1 core"),
            two_cores: frac("2 cores"),
            three_cores: frac("3 cores"),
            four_plus_cores: frac("4+ cores"),
            experiments: total,
        });
    }

    cli.emit(&rows, |rows| {
        println!("Figure 10: what it took to restore QoS (fraction of colocations)\n");
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.service.clone(),
                    format!("{:.0}%", r.approximation_only * 100.0),
                    format!("{:.0}%", r.one_core * 100.0),
                    format!("{:.0}%", r.two_cores * 100.0),
                    format!("{:.0}%", r.three_cores * 100.0),
                    format!("{:.0}%", r.four_plus_cores * 100.0),
                    r.experiments.to_string(),
                ]
            })
            .collect();
        print_table(
            &[
                "service",
                "approx only",
                "1 core",
                "2 cores",
                "3 cores",
                "4+ cores",
                "experiments",
            ],
            &table,
        );
    });
}
