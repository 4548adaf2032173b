//! Load-transient figure: Pliant riding a flash crowd.
//!
//! The paper's headline claim is that approximation absorbs *load fluctuations*. This
//! binary drives one interactive service through a flash crowd (steady base load, a steep
//! ramp to saturation, a hold, and a decay back) under both the Precise baseline and
//! Pliant, with common random numbers so both policies see the identical arrival stream.
//! It prints the interval-by-interval timeline under Pliant — offered load, tail latency,
//! active variant, reclaimed cores — followed by the per-phase QoS summary of both
//! policies (violation rate during ramp-up vs. peak vs. steady state).
//!
//! Usage: `fig_load_transient [--json] [--service nginx|memcached|mongodb]`

use pliant_approx::catalog::AppId;
use pliant_bench::cli::{reject, Cli};
use pliant_bench::{format_latency, print_table};
use pliant_core::engine::Engine;
use pliant_core::experiment::PhaseQosStats;
use pliant_core::policy::PolicyKind;
use pliant_core::scenario::Scenario;
use pliant_core::suite::Suite;
use pliant_workloads::profile::LoadProfile;
use pliant_workloads::service::ServiceId;
use serde::Serialize;

/// The flash crowd every run uses: steady at 35% of saturation, a 2 s ramp to full
/// saturation at t = 10 s, an 8 s hold, and a 2 s decay back. Compressed so the
/// co-scheduled application stays alive through the recovery tail.
fn flash_crowd() -> LoadProfile {
    LoadProfile::FlashCrowd {
        base: 0.35,
        peak: 1.0,
        start_s: 10.0,
        ramp_s: 2.0,
        hold_s: 8.0,
        decay_s: 2.0,
    }
}

#[derive(Serialize)]
struct TimelineRow {
    time_s: f64,
    offered_load: f64,
    p99_latency_s: f64,
    qos_target_s: f64,
    variant: f64,
    cores_reclaimed: f64,
}

#[derive(Serialize)]
struct TransientResult {
    service: String,
    app: String,
    policy: String,
    phase_qos: Vec<PhaseQosStats>,
    timeline: Vec<TimelineRow>,
}

fn main() {
    let cli = Cli::figure(&["--service nginx|memcached|mongodb"]);
    let service = cli
        .text("--service")
        .map(|name| {
            ServiceId::all()
                .into_iter()
                .find(|s| s.name() == name)
                .unwrap_or_else(|| reject(format!("unknown service `{name}`")))
        })
        .unwrap_or(ServiceId::Memcached);
    let app = AppId::Bayesian;

    let base = Scenario::builder(service)
        .app(app)
        .load_profile(flash_crowd())
        .horizon_seconds(45.0)
        .stop_when_apps_finish(false)
        .seed(77)
        .build();
    let suite = Suite::new(base)
        .named("load-transient")
        .sweep_policies([PolicyKind::Precise, PolicyKind::Pliant]);
    let cells = Engine::new().parallel().run_collect(&suite);

    let results: Vec<TransientResult> = cells
        .iter()
        .map(|cell| {
            let outcome = &cell.outcome;
            let latency = outcome.trace.get("p99_latency_s").expect("latency series");
            let load = outcome.trace.get("offered_load").expect("load series");
            let variant = outcome
                .trace
                .get(&format!("variant_{}", app.name()))
                .expect("variant series");
            let reclaimed = outcome
                .trace
                .get(&format!("reclaimed_{}", app.name()))
                .expect("reclaimed series");
            let timeline: Vec<TimelineRow> = latency
                .points()
                .iter()
                .zip(load.points())
                .zip(variant.points())
                .zip(reclaimed.points())
                .map(|(((l, ld), v), r)| TimelineRow {
                    time_s: l.time_s,
                    offered_load: ld.value,
                    p99_latency_s: l.value,
                    qos_target_s: outcome.qos_target_s,
                    variant: v.value,
                    cores_reclaimed: r.value,
                })
                .collect();
            TransientResult {
                service: service.name().to_string(),
                app: app.name().to_string(),
                policy: cell.scenario.policy.to_string(),
                phase_qos: outcome.phase_qos.clone(),
                timeline,
            }
        })
        .collect();

    cli.emit(&results, |results| {
        println!(
            "Load transient: {} + {} through a flash crowd ({})\n",
            service.name(),
            app.name(),
            flash_crowd().describe()
        );

        let pliant = results
            .iter()
            .find(|r| r.policy == "pliant")
            .expect("pliant cell");
        println!("Pliant timeline (every 3rd interval):");
        let rows: Vec<Vec<String>> = pliant
            .timeline
            .iter()
            .step_by(3)
            .map(|row| {
                vec![
                    format!("{:.0}", row.time_s),
                    format!("{:.0}%", row.offered_load * 100.0),
                    format_latency(service, row.p99_latency_s),
                    if row.variant == 0.0 {
                        "precise".to_string()
                    } else {
                        format!("v{:.0}", row.variant)
                    },
                    format!("{:.0}", row.cores_reclaimed),
                ]
            })
            .collect();
        print_table(
            &["t(s)", "load", "p99", "variant", "cores reclaimed"],
            &rows,
        );

        println!("\nPer-phase QoS (violation rate during ramp vs. steady state):");
        let mut phase_rows: Vec<Vec<String>> = Vec::new();
        for r in results {
            for p in &r.phase_qos {
                phase_rows.push(vec![
                    r.policy.clone(),
                    p.phase.name().to_string(),
                    p.intervals.to_string(),
                    format!("{:.0}%", p.mean_offered_load * 100.0),
                    format!("{:.0}%", p.qos_violation_fraction * 100.0),
                    format_latency(service, p.mean_p99_s),
                ]);
            }
        }
        print_table(
            &[
                "policy",
                "phase",
                "intervals",
                "mean load",
                "violations",
                "mean p99",
            ],
            &phase_rows,
        );
    });
}
