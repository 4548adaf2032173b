//! Regenerates Figure 7: distribution summaries (violin plots) of tail latency, execution
//! time, and inaccuracy when each interactive service is co-located with one, two, or
//! three approximate applications.
//!
//! The paper runs every 2- and 3-way combination of the 24 applications; by default this
//! harness samples a deterministic subset per mix size to keep the run short. Pass
//! `--combos N` to change the subset size or `--full` to run every combination. Each
//! (service, mix-size) stratum is one application-set sweep with independent per-cell
//! seeds, executed in parallel.
//!
//! Usage: `fig7_violins [--json] [--combos N] [--full]`

use pliant_approx::catalog::AppId;
use pliant_bench::{print_table, Cli};
use pliant_core::engine::Engine;
use pliant_core::scenario::Scenario;
use pliant_core::suite::{SeedMode, Suite};
use pliant_telemetry::violin::ViolinSummary;
use pliant_workloads::service::ServiceId;
use serde::Serialize;

#[derive(Serialize)]
struct ViolinRow {
    service: String,
    apps_per_node: usize,
    metric: String,
    summary: ViolinSummary,
}

fn combinations(apps: &[AppId], k: usize, limit: Option<usize>) -> Vec<Vec<AppId>> {
    // Deterministic enumeration of k-combinations, optionally truncated with a stride so
    // the subset spans the whole application list rather than only its prefix.
    let mut all = Vec::new();
    let n = apps.len();
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        all.push(idx.iter().map(|&i| apps[i]).collect::<Vec<_>>());
        // Advance the combination indices.
        let mut i = k;
        loop {
            if i == 0 {
                return match limit {
                    Some(l) if all.len() > l => {
                        let stride = all.len().div_ceil(l);
                        all.into_iter().step_by(stride).collect()
                    }
                    _ => all,
                };
            }
            i -= 1;
            if idx[i] != i + n - k {
                idx[i] += 1;
                for j in i + 1..k {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

fn main() {
    let cli = Cli::figure(&["--full", "--combos N"]);
    let full = cli.switch("--full");
    let combos = cli
        .at_least("--combos", 1, "a sample needs a combination")
        .unwrap_or(20);
    let limit = if full { None } else { Some(combos) };

    let apps = AppId::all();
    let engine = Engine::new().parallel();

    let mut rows: Vec<ViolinRow> = Vec::new();
    for service in ServiceId::all() {
        for k in 1..=3usize {
            let mix_sets = combinations(&apps, k, if k == 1 { None } else { limit });
            let suite = Suite::new(
                Scenario::builder(service)
                    .app(apps[0])
                    .horizon_intervals(50)
                    .seed(1000)
                    .build(),
            )
            .named(format!("fig7/{}way", k))
            .seed_mode(SeedMode::Independent)
            .for_each_app_set(mix_sets);

            let mut latency_ratios = Vec::new();
            let mut exec_times = Vec::new();
            let mut inaccuracies = Vec::new();
            for cell in engine.run_collect(&suite) {
                latency_ratios.push(cell.outcome.tail_latency_ratio);
                for app in &cell.outcome.app_outcomes {
                    exec_times.push(app.relative_execution_time);
                    inaccuracies.push(app.inaccuracy_pct);
                }
            }
            rows.push(ViolinRow {
                service: service.name().to_string(),
                apps_per_node: k,
                metric: "tail_latency_vs_qos".to_string(),
                summary: ViolinSummary::from_samples("tail latency / QoS", &latency_ratios, 16),
            });
            rows.push(ViolinRow {
                service: service.name().to_string(),
                apps_per_node: k,
                metric: "relative_execution_time".to_string(),
                summary: ViolinSummary::from_samples("relative execution time", &exec_times, 16),
            });
            rows.push(ViolinRow {
                service: service.name().to_string(),
                apps_per_node: k,
                metric: "inaccuracy_pct".to_string(),
                summary: ViolinSummary::from_samples("inaccuracy (%)", &inaccuracies, 16),
            });
        }
    }

    cli.emit(&rows, |rows| {
        println!("Figure 7: violin summaries across 1-, 2-, and 3-application colocations\n");
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.service.clone(),
                    r.apps_per_node.to_string(),
                    r.metric.clone(),
                    format!("{:.3}", r.summary.min),
                    format!("{:.3}", r.summary.q1),
                    format!("{:.3}", r.summary.median),
                    format!("{:.3}", r.summary.q3),
                    format!("{:.3}", r.summary.max),
                ]
            })
            .collect();
        print_table(
            &[
                "service",
                "apps/node",
                "metric",
                "min",
                "q1",
                "median",
                "q3",
                "max",
            ],
            &table,
        );
    });
}
