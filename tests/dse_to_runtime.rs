//! Integration test: the full Pliant pipeline from offline design-space exploration over a
//! real kernel to an online co-location managed with the explored variants, bridged
//! through `pliant_explore::bridge` and run on an engine with the bridged catalog.

use pliant::approx::catalog::{AppId, Catalog};
use pliant::approx::kernels::kernel_for;
use pliant::explore::bridge;
use pliant::prelude::*;

#[test]
fn explored_variants_flow_into_the_runtime_catalog() {
    // 1. Offline: explore the kmeans kernel.
    let kernel = kernel_for(AppId::KMeans, 77);
    let exploration = explore_kernel(kernel.as_ref(), &ExplorationConfig::default());
    let variants = exploration.selected_variants();
    assert!(
        !variants.is_empty(),
        "kmeans must yield admissible variants"
    );
    for v in &variants {
        assert!(v.inaccuracy_pct <= 5.0);
        assert!(v.exec_time_factor < 1.0);
    }

    // 2. Bridge: replace kmeans' calibrated variant table with the measured one.
    let catalog = bridge::catalog_with_variants(&Catalog::default(), AppId::KMeans, variants);

    // 3. Online: run the colocation against the bridged catalog under Pliant.
    let scenario = Scenario::builder(ServiceId::Nginx)
        .app(AppId::KMeans)
        .policy(PolicyKind::Pliant)
        .horizon_intervals(50)
        .seed(101)
        .build();
    let outcome = Engine::new().with_catalog(catalog).run_scenario(&scenario);

    assert!(
        outcome.tail_latency_ratio < 1.3,
        "bridged variants must still control tail latency"
    );
    assert!(outcome.app_outcomes[0].inaccuracy_pct <= 5.0);
}

#[test]
fn every_application_has_both_a_kernel_and_a_catalog_entry() {
    let catalog = Catalog::default();
    for app in AppId::all() {
        let kernel = kernel_for(app, 1);
        assert_eq!(
            kernel.name(),
            app.name(),
            "kernel/catalog naming must agree"
        );
        let profile = catalog.profile(app).expect("catalog entry");
        assert!(
            profile.variant_count() >= 2,
            "{app} needs at least two variants for incremental control"
        );
        assert!(!kernel.candidate_configs().is_empty());
    }
}

#[test]
fn exploration_is_deterministic_in_the_seed() {
    let a = explore_kernel(
        kernel_for(AppId::Fasta, 5).as_ref(),
        &ExplorationConfig::default(),
    );
    let b = explore_kernel(
        kernel_for(AppId::Fasta, 5).as_ref(),
        &ExplorationConfig::default(),
    );
    assert_eq!(a.selected, b.selected);
    assert_eq!(a.measurements.len(), b.measurements.len());
}
