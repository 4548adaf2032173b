//! Regenerates Figure 4: Pliant's dynamic behaviour over time.
//!
//! For each interactive service co-located with each of four representative approximate
//! applications (canneal, raytrace, Bayesian, SNP), prints the per-interval tail latency,
//! cores reclaimed by the service, and the active approximate variant.
//!
//! Usage: `fig4_dynamic_behavior [--json]`

use pliant_bench::{dynamic_behavior_apps, format_latency, print_table, Cli};
use pliant_core::engine::Engine;
use pliant_core::scenario::Scenario;
use pliant_core::suite::Suite;
use pliant_workloads::service::ServiceId;
use serde::Serialize;

#[derive(Serialize)]
struct TraceRow {
    time_s: f64,
    p99_latency_s: f64,
    qos_target_s: f64,
    reclaimed_cores: f64,
    variant: f64,
}

#[derive(Serialize)]
struct TraceResult {
    service: String,
    app: String,
    rows: Vec<TraceRow>,
}

fn main() {
    let cli = Cli::figure(&[]);

    let suite = Suite::new(
        Scenario::builder(ServiceId::Nginx)
            .app(dynamic_behavior_apps()[0])
            .horizon_intervals(60)
            .build(),
    )
    .named("fig4")
    .for_each_service(ServiceId::all())
    .for_each_app(dynamic_behavior_apps());

    let cells = Engine::new().parallel().run_collect(&suite);

    let results: Vec<TraceResult> = cells
        .iter()
        .map(|cell| {
            let app = cell.scenario.apps[0];
            let outcome = &cell.outcome;
            let latency = outcome.trace.get("p99_latency_s").expect("latency series");
            let cores = outcome
                .trace
                .get(&format!("reclaimed_{}", app.name()))
                .expect("reclaimed series");
            let variant = outcome
                .trace
                .get(&format!("variant_{}", app.name()))
                .expect("variant series");
            let rows: Vec<TraceRow> = latency
                .points()
                .iter()
                .zip(cores.points().iter())
                .zip(variant.points().iter())
                .map(|((l, c), v)| TraceRow {
                    time_s: l.time_s,
                    p99_latency_s: l.value,
                    qos_target_s: outcome.qos_target_s,
                    reclaimed_cores: c.value,
                    variant: v.value,
                })
                .collect();
            TraceResult {
                service: cell.scenario.service.name().to_string(),
                app: app.name().to_string(),
                rows,
            }
        })
        .collect();

    cli.emit(&results, |results| {
        println!("Figure 4: Pliant dynamic behaviour (tail latency, reclaimed cores, variant)\n");
        for r in results {
            let service: ServiceId = ServiceId::all()
                .into_iter()
                .find(|s| s.name() == r.service)
                .expect("known service");
            println!(
                "== {} + {} (QoS {}) ==",
                r.service,
                r.app,
                format_latency(service, r.rows[0].qos_target_s)
            );
            let rows: Vec<Vec<String>> = r
                .rows
                .iter()
                .map(|row| {
                    vec![
                        format!("{:.0}", row.time_s),
                        format_latency(service, row.p99_latency_s),
                        format!("{:.0}", row.reclaimed_cores),
                        if row.variant == 0.0 {
                            "precise".to_string()
                        } else {
                            format!("v{:.0}", row.variant)
                        },
                    ]
                })
                .collect();
            print_table(&["t(s)", "p99", "cores reclaimed", "variant"], &rows);
            println!();
        }
    });
}
