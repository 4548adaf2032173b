//! Criterion bench: co-location experiments (the engine behind Figs. 4–10) and the
//! discrete-event queue simulator it is validated against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pliant_approx::catalog::AppId;
use pliant_core::policy::PolicyKind;
use pliant_core::scenario::Scenario;
use pliant_sim::events::{simulate, EventSimConfig};
use pliant_workloads::service::{ServiceId, ServiceProfile};

fn bench_colocation(c: &mut Criterion) {
    let mut group = c.benchmark_group("colocation_experiment");
    group.sample_size(10);
    for (service, app) in [
        (ServiceId::Memcached, AppId::Canneal),
        (ServiceId::Nginx, AppId::Bayesian),
        (ServiceId::MongoDb, AppId::Snp),
    ] {
        let scenario = Scenario::builder(service)
            .app(app)
            .policy(PolicyKind::Pliant)
            .horizon_intervals(40)
            .build();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}+{}", service.name(), app.name())),
            &scenario,
            |b, scenario| b.iter(|| scenario.run()),
        );
    }
    group.finish();

    let mut des = c.benchmark_group("discrete_event_queue");
    des.sample_size(10);
    let svc = ServiceProfile::paper_default(ServiceId::MongoDb);
    des.bench_function("mongodb_1s_75pct_load", |b| {
        let cfg = EventSimConfig {
            qps: svc.qps_at_load(0.75),
            workers: 8,
            capacity_slowdown: 1.2,
            duration_s: 1.0,
            seed: 3,
        };
        b.iter(|| simulate(&svc, &cfg));
    });
    des.finish();
}

criterion_group!(benches, bench_colocation);
criterion_main!(benches);
