//! Regenerates Figure 6: Pliant managing two approximate applications (canneal and
//! Bayesian) co-located with each interactive service.
//!
//! Usage: `fig6_multi_app [--json]`

use pliant_approx::catalog::AppId;
use pliant_bench::{format_latency, print_table, Cli};
use pliant_core::engine::Engine;
use pliant_core::scenario::Scenario;
use pliant_core::suite::Suite;
use pliant_workloads::service::ServiceId;
use serde::Serialize;

#[derive(Serialize)]
struct MultiTraceRow {
    time_s: f64,
    p99_latency_s: f64,
    canneal_variant: f64,
    canneal_reclaimed: f64,
    bayesian_variant: f64,
    bayesian_reclaimed: f64,
}

#[derive(Serialize)]
struct MultiTrace {
    service: String,
    qos_target_s: f64,
    rows: Vec<MultiTraceRow>,
    canneal_inaccuracy_pct: f64,
    bayesian_inaccuracy_pct: f64,
}

fn main() {
    let cli = Cli::figure(&[]);

    let suite = Suite::new(
        Scenario::builder(ServiceId::Nginx)
            .apps([AppId::Canneal, AppId::Bayesian])
            .horizon_intervals(60)
            .build(),
    )
    .named("fig6")
    .for_each_service(ServiceId::all());

    let cells = Engine::new().parallel().run_collect(&suite);

    let results: Vec<MultiTrace> = cells
        .iter()
        .map(|cell| {
            let outcome = &cell.outcome;
            let latency = outcome.trace.get("p99_latency_s").expect("latency series");
            let cv = outcome
                .trace
                .get("variant_canneal")
                .expect("canneal variant series");
            let cr = outcome
                .trace
                .get("reclaimed_canneal")
                .expect("canneal reclaimed series");
            let bv = outcome
                .trace
                .get("variant_bayesian")
                .expect("bayesian variant series");
            let br = outcome
                .trace
                .get("reclaimed_bayesian")
                .expect("bayesian reclaimed series");
            let rows: Vec<MultiTraceRow> = (0..latency.len())
                .map(|i| MultiTraceRow {
                    time_s: latency.points()[i].time_s,
                    p99_latency_s: latency.points()[i].value,
                    canneal_variant: cv.points()[i].value,
                    canneal_reclaimed: cr.points()[i].value,
                    bayesian_variant: bv.points()[i].value,
                    bayesian_reclaimed: br.points()[i].value,
                })
                .collect();
            MultiTrace {
                service: cell.scenario.service.name().to_string(),
                qos_target_s: outcome.qos_target_s,
                rows,
                canneal_inaccuracy_pct: outcome.app_outcomes[0].inaccuracy_pct,
                bayesian_inaccuracy_pct: outcome.app_outcomes[1].inaccuracy_pct,
            }
        })
        .collect();

    cli.emit(&results, |results| {
        println!("Figure 6: multi-application colocation (canneal + Bayesian)\n");
        for r in results {
            let service = ServiceId::all()
                .into_iter()
                .find(|s| s.name() == r.service)
                .expect("known service");
            println!(
                "== {} (QoS {}) — final inaccuracy: canneal {:.1}%, bayesian {:.1}% ==",
                r.service,
                format_latency(service, r.qos_target_s),
                r.canneal_inaccuracy_pct,
                r.bayesian_inaccuracy_pct
            );
            let rows: Vec<Vec<String>> = r
                .rows
                .iter()
                .map(|row| {
                    vec![
                        format!("{:.0}", row.time_s),
                        format_latency(service, row.p99_latency_s),
                        if row.canneal_variant == 0.0 {
                            "precise".into()
                        } else {
                            format!("v{:.0}", row.canneal_variant)
                        },
                        format!("{:.0}", row.canneal_reclaimed),
                        if row.bayesian_variant == 0.0 {
                            "precise".into()
                        } else {
                            format!("v{:.0}", row.bayesian_variant)
                        },
                        format!("{:.0}", row.bayesian_reclaimed),
                    ]
                })
                .collect();
            print_table(
                &[
                    "t(s)",
                    "p99",
                    "canneal variant",
                    "canneal cores",
                    "bayesian variant",
                    "bayesian cores",
                ],
                &rows,
            );
            println!();
        }
    });
}
