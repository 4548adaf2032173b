//! Regenerates Figure 1: the approximation design-space exploration.
//!
//! Odd rows of the paper's figure: for each of the 24 applications, the trade-off between
//! relative execution time and output inaccuracy across examined approximate variants,
//! with the near-pareto variants marked as selected.
//!
//! Even rows: the tail latency (relative to QoS) of each interactive service when
//! statically co-located with the precise version and with each selected variant. Each
//! static pin is expressed as a scenario run against a bridged single-variant catalog
//! (the same [`pliant_explore::bridge`] path the DSE-to-runtime pipeline uses).
//!
//! Usage: `fig1_design_space [--json] [--skip-colocation]`

use pliant_approx::catalog::{AppId, Catalog};
use pliant_approx::kernels::kernel_for;
use pliant_bench::{print_table, Cli};
use pliant_core::engine::Engine;
use pliant_core::policy::PolicyKind;
use pliant_core::scenario::Scenario;
use pliant_explore::{bridge, explore_kernel, ExplorationConfig};
use pliant_workloads::service::ServiceId;
use serde::Serialize;

#[derive(Serialize)]
struct AppDesignSpace {
    app: String,
    points: Vec<PointRow>,
    selected_variants: usize,
    colocation: Vec<ColocationRow>,
}

#[derive(Serialize)]
struct PointRow {
    label: String,
    inaccuracy_pct: f64,
    relative_time: f64,
    kind: String,
}

#[derive(Serialize)]
struct ColocationRow {
    service: String,
    variant: String,
    tail_latency_vs_qos: f64,
}

fn main() {
    let cli = Cli::figure(&["--skip-colocation"]);
    let skip_colocation = cli.switch("--skip-colocation");
    let catalog = Catalog::default();
    let dse_config = ExplorationConfig::default();

    let mut results: Vec<AppDesignSpace> = Vec::new();
    for app in AppId::all() {
        // Odd rows: kernel-level design-space exploration.
        let kernel = kernel_for(app, 2024);
        let exploration = explore_kernel(kernel.as_ref(), &dse_config);
        let points: Vec<PointRow> = exploration
            .measurements
            .iter()
            .map(|m| PointRow {
                label: m.label.clone(),
                inaccuracy_pct: m.inaccuracy_pct,
                relative_time: m.relative_time,
                kind: format!("{:?}", m.kind),
            })
            .collect();

        // Even rows: static colocation of precise + each catalog variant with each
        // service. Pinning a variant = bridging a single-variant catalog into an engine
        // and running the static most-approximate policy over it.
        let mut colocation = Vec::new();
        if !skip_colocation {
            let profile = catalog.profile(app).expect("catalog covers all apps");
            for service in ServiceId::all() {
                for variant in std::iter::once(None).chain((0..profile.variant_count()).map(Some)) {
                    let (engine, policy) = match variant {
                        None => (
                            Engine::new().with_catalog(catalog.clone()),
                            PolicyKind::Precise,
                        ),
                        Some(v) => {
                            let chosen = profile.variants[v].clone();
                            let single = bridge::catalog_with_variants(&catalog, app, vec![chosen]);
                            (
                                Engine::new().with_catalog(single),
                                PolicyKind::StaticMostApproximate,
                            )
                        }
                    };
                    let scenario = Scenario::builder(service)
                        .app(app)
                        .policy(policy)
                        .instrumented(variant.is_some())
                        .horizon_intervals(25)
                        .seed(7)
                        .build();
                    let outcome = engine.run_scenario(&scenario);
                    colocation.push(ColocationRow {
                        service: service.name().to_string(),
                        variant: variant.map_or("precise".to_string(), |v| format!("v{}", v + 1)),
                        tail_latency_vs_qos: outcome.tail_latency_ratio,
                    });
                }
            }
        }

        results.push(AppDesignSpace {
            app: app.name().to_string(),
            selected_variants: exploration.selected_count(),
            points,
            colocation,
        });
    }

    cli.emit(&results, |results| {
        println!("Figure 1 (odd rows): execution time vs. inaccuracy per application\n");
        for r in results {
            println!(
                "== {} ({} selected variants) ==",
                r.app, r.selected_variants
            );
            let rows: Vec<Vec<String>> = r
                .points
                .iter()
                .map(|p| {
                    vec![
                        p.label.clone(),
                        format!("{:.2}", p.inaccuracy_pct),
                        format!("{:.3}", p.relative_time),
                        p.kind.clone(),
                    ]
                })
                .collect();
            print_table(&["variant", "inaccuracy(%)", "rel. time", "kind"], &rows);
            println!();
        }

        if !skip_colocation {
            println!("Figure 1 (even rows): tail latency vs. QoS per selected variant\n");
            for r in results {
                println!("== {} ==", r.app);
                let rows: Vec<Vec<String>> = r
                    .colocation
                    .iter()
                    .map(|c| {
                        vec![
                            c.service.clone(),
                            c.variant.clone(),
                            format!("{:.2}", c.tail_latency_vs_qos),
                        ]
                    })
                    .collect();
                print_table(&["service", "variant", "tail latency / QoS"], &rows);
                println!();
            }
        }
    });
}
