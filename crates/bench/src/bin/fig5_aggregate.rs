//! Regenerates Figure 5 and the §6.2 headline numbers: Pliant vs the Precise baseline
//! across all 24 approximate applications and all three interactive services.
//!
//! The whole figure is one suite — service × application × {Precise, Pliant} — executed
//! in parallel with common random numbers, so each (precise, pliant) pair sees identical
//! workload randomness.
//!
//! Usage: `fig5_aggregate [--json] [--summary]`

use pliant_approx::catalog::AppId;
use pliant_bench::{print_table, Cli, ComparisonRow};
use pliant_core::engine::Engine;
use pliant_core::policy::PolicyKind;
use pliant_core::scenario::Scenario;
use pliant_core::suite::Suite;
use pliant_workloads::service::ServiceId;

fn main() {
    let cli = Cli::figure(&["--summary"]);
    let summary_only = cli.switch("--summary");

    let apps = AppId::all();
    let suite = Suite::new(
        Scenario::builder(ServiceId::Nginx)
            .app(apps[0])
            .horizon_intervals(70)
            .build(),
    )
    .named("fig5")
    .for_each_service(ServiceId::all())
    .for_each_app(apps)
    .sweep_policies([PolicyKind::Precise, PolicyKind::Pliant]);

    let results = Engine::new().parallel().run_collect(&suite);

    // Cells arrive in grid order: for each service, for each app, [precise, pliant].
    let all_rows: Vec<ComparisonRow> = results
        .chunks_exact(2)
        .map(|pair| {
            ComparisonRow::from_outcomes(
                pair[0].scenario.apps[0],
                &pair[0].outcome,
                &pair[1].outcome,
            )
        })
        .collect();

    cli.emit(&all_rows, |all_rows| {
        if !summary_only {
            println!("Figure 5: Precise vs Pliant (tail latency ratio = p99 / QoS)\n");
            for service in ServiceId::all() {
                println!("== {} ==", service.name());
                let rows: Vec<Vec<String>> = all_rows
                    .iter()
                    .filter(|r| r.service == service.name())
                    .map(|r| {
                        vec![
                            r.app.clone(),
                            format!("{:.2}", r.precise_tail_ratio),
                            format!("{:.2}", r.pliant_tail_ratio),
                            format!("{:.2}", r.pliant_relative_exec_time),
                            format!("{:.1}", r.pliant_inaccuracy_pct),
                            format!("{:.1}%", r.instrumentation_overhead * 100.0),
                            r.max_cores_reclaimed.to_string(),
                        ]
                    })
                    .collect();
                print_table(
                    &[
                        "app",
                        "precise p99/QoS",
                        "pliant p99/QoS",
                        "rel. exec time",
                        "inaccuracy(%)",
                        "instr. overhead",
                        "max cores",
                    ],
                    &rows,
                );
                println!();
            }
        }

        // §6.2 headline numbers.
        let pliant_met = all_rows
            .iter()
            .filter(|r| r.pliant_tail_ratio <= 1.05)
            .count();
        let precise_violating = all_rows
            .iter()
            .filter(|r| r.precise_tail_ratio > 1.0)
            .count();
        let mean_inacc: f64 = all_rows
            .iter()
            .map(|r| r.pliant_inaccuracy_pct)
            .sum::<f64>()
            / all_rows.len() as f64;
        let max_inacc = all_rows
            .iter()
            .map(|r| r.pliant_inaccuracy_pct)
            .fold(0.0f64, f64::max);
        let mean_overhead: f64 = all_rows
            .iter()
            .map(|r| r.instrumentation_overhead)
            .sum::<f64>()
            / all_rows.len() as f64;
        let max_overhead = all_rows
            .iter()
            .map(|r| r.instrumentation_overhead)
            .fold(0.0f64, f64::max);
        let precise_range = (
            all_rows
                .iter()
                .map(|r| r.precise_tail_ratio)
                .fold(f64::INFINITY, f64::min),
            all_rows
                .iter()
                .map(|r| r.precise_tail_ratio)
                .fold(0.0f64, f64::max),
        );

        println!("Section 6.2 headline summary");
        println!(
            "  colocations where Pliant keeps p99 within ~QoS : {}/{}",
            pliant_met,
            all_rows.len()
        );
        println!(
            "  colocations where Precise violates QoS          : {}/{}",
            precise_violating,
            all_rows.len()
        );
        println!(
            "  Precise tail-latency ratio range                : {:.2}x - {:.2}x",
            precise_range.0, precise_range.1
        );
        println!(
            "  mean / max output-quality loss under Pliant     : {:.1}% / {:.1}%",
            mean_inacc, max_inacc
        );
        println!(
            "  mean / max dynamic-instrumentation overhead      : {:.1}% / {:.1}%",
            mean_overhead * 100.0,
            max_overhead * 100.0
        );
    });
}
