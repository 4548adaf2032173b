//! Regenerates Figure 9: sensitivity to the decision-interval length, with memcached as
//! the interactive service and six representative approximate applications.
//!
//! One suite — application × decision interval — with a fixed 60 s wall-clock horizon, so
//! coarse-interval cells simulate the same amount of service time as fine-interval cells.
//!
//! Usage: `fig9_decision_interval [--json]`

use pliant_bench::{interval_sensitivity_apps, print_table, Cli};
use pliant_core::engine::Engine;
use pliant_core::scenario::Scenario;
use pliant_core::suite::Suite;
use pliant_workloads::service::ServiceId;
use serde::Serialize;

#[derive(Serialize)]
struct IntervalRow {
    app: String,
    decision_interval_s: f64,
    tail_latency_vs_qos: f64,
    qos_violation_fraction: f64,
    relative_execution_time: f64,
    inaccuracy_pct: f64,
}

fn main() {
    let cli = Cli::figure(&[]);
    let intervals = [0.2, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];

    let suite = Suite::new(
        Scenario::builder(ServiceId::Memcached)
            .app(interval_sensitivity_apps()[0])
            .horizon_seconds(60.0)
            .build(),
    )
    .named("fig9")
    .for_each_app(interval_sensitivity_apps())
    .sweep_decision_intervals_s(intervals);

    let results = Engine::new().parallel().run_collect(&suite);

    let rows: Vec<IntervalRow> = results
        .iter()
        .map(|cell| {
            let a = &cell.outcome.app_outcomes[0];
            IntervalRow {
                app: cell.scenario.apps[0].name().to_string(),
                decision_interval_s: cell.scenario.decision_interval_s,
                tail_latency_vs_qos: cell.outcome.tail_latency_ratio,
                qos_violation_fraction: cell.outcome.qos_violation_fraction,
                relative_execution_time: a.relative_execution_time,
                inaccuracy_pct: a.inaccuracy_pct,
            }
        })
        .collect();

    cli.emit(&rows, |rows| {
        println!("Figure 9: decision-interval sensitivity (memcached, equal 60s wall clock)\n");
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.app.clone(),
                    format!("{:.1}s", r.decision_interval_s),
                    format!("{:.2}", r.tail_latency_vs_qos),
                    format!("{:.0}%", r.qos_violation_fraction * 100.0),
                    format!("{:.2}", r.relative_execution_time),
                    format!("{:.1}", r.inaccuracy_pct),
                ]
            })
            .collect();
        print_table(
            &[
                "app",
                "interval",
                "p99/QoS",
                "violations",
                "rel. exec",
                "inacc(%)",
            ],
            &table,
        );
    });
}
