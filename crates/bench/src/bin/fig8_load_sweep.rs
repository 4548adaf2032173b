//! Regenerates Figure 8: Pliant across input-load levels (40%–100% of saturation) for each
//! interactive service and every approximate application.
//!
//! One suite — service × application × load — executed in parallel.
//!
//! Usage: `fig8_load_sweep [--json] [--apps N]`

use pliant_approx::catalog::AppId;
use pliant_bench::{print_table, Cli};
use pliant_core::engine::Engine;
use pliant_core::scenario::Scenario;
use pliant_core::suite::Suite;
use pliant_workloads::service::ServiceId;
use serde::Serialize;

#[derive(Serialize)]
struct LoadRow {
    service: String,
    app: String,
    load_fraction: f64,
    qps: f64,
    tail_latency_vs_qos: f64,
    qos_violation_fraction: f64,
    relative_execution_time: f64,
    inaccuracy_pct: f64,
    max_cores_reclaimed: u32,
}

fn main() {
    let cli = Cli::figure(&["--apps N"]);
    let app_limit = cli
        .at_least("--apps", 1, "the sweep needs an application")
        .unwrap_or(24);

    let loads = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    let apps: Vec<AppId> = AppId::all().into_iter().take(app_limit).collect();

    let suite = Suite::new(
        Scenario::builder(ServiceId::Nginx)
            .app(apps[0])
            .horizon_intervals(40)
            .build(),
    )
    .named("fig8")
    .for_each_service(ServiceId::all())
    .for_each_app(apps)
    .sweep_loads(loads);

    let results = Engine::new().parallel().run_collect(&suite);

    let rows: Vec<LoadRow> = results
        .iter()
        .map(|cell| {
            let service = cell.scenario.service;
            let profile = pliant_workloads::service::ServiceProfile::paper_default(service);
            let a = &cell.outcome.app_outcomes[0];
            LoadRow {
                service: service.name().to_string(),
                app: cell.scenario.apps[0].name().to_string(),
                load_fraction: cell.scenario.load_fraction,
                qps: profile.qps_at_load(cell.scenario.load_fraction),
                tail_latency_vs_qos: cell.outcome.tail_latency_ratio,
                qos_violation_fraction: cell.outcome.qos_violation_fraction,
                relative_execution_time: a.relative_execution_time,
                inaccuracy_pct: a.inaccuracy_pct,
                max_cores_reclaimed: cell.outcome.max_extra_service_cores,
            }
        })
        .collect();

    cli.emit(&rows, |rows| {
        println!("Figure 8: Pliant across input load levels\n");
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.service.clone(),
                    r.app.clone(),
                    format!("{:.0}%", r.load_fraction * 100.0),
                    format!("{:.0}", r.qps),
                    format!("{:.2}", r.tail_latency_vs_qos),
                    format!("{:.2}", r.relative_execution_time),
                    format!("{:.1}", r.inaccuracy_pct),
                    r.max_cores_reclaimed.to_string(),
                ]
            })
            .collect();
        print_table(
            &[
                "service",
                "app",
                "load",
                "QPS",
                "p99/QoS",
                "rel. exec",
                "inacc(%)",
                "max cores",
            ],
            &table,
        );
    });
}
