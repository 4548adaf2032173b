//! Dynamic-behaviour walkthrough (the scenario of the paper's Fig. 4, middle row): drive
//! the co-location simulator manually with the Pliant monitor + controller and print what
//! the runtime does interval by interval while memcached shares the node with canneal.
//!
//! Run with: `cargo run --example memcached_colocation`

use pliant::prelude::*;
use pliant::runtime::actuator::Actuator;
use pliant::runtime::monitor::PerformanceMonitor;
use pliant::runtime::multi::MultiAppController;
use pliant::runtime::MonitorConfig;

fn main() {
    let catalog = Catalog::default();
    let service = ServiceId::Memcached;
    let app = AppId::Canneal;
    let config = ColocationConfig::paper_default(service, &[app], 21);
    let mut sim = ColocationSim::new(config, &catalog);

    let variant_count = catalog.profile(app).unwrap().variant_count();
    let mut controller = MultiAppController::new(
        ControllerConfig::default(),
        &[variant_count],
        &[sim.app(0).cores()],
        0,
    );
    let mut monitor = PerformanceMonitor::new(
        MonitorConfig::for_qos(ServiceProfile::paper_default(service).qos_target_s),
        99,
    );
    let mut actuator = Actuator::new();

    println!("t(s)  p99(us)  QoS(us)  variant   cores-reclaimed  action");
    println!("----  -------  -------  --------  ---------------  ------------------");
    for _ in 0..45 {
        let obs = sim.advance(1.0);
        let report = monitor.observe_interval(&obs.latency_samples_s);
        let actions = controller.decide(&report);
        let action_text = if actions.is_empty() {
            "hold".to_string()
        } else {
            format!("{:?}", actions[0])
        };
        let status = &obs.apps[0];
        println!(
            "{:>4.0}  {:>7.0}  {:>7.0}  {:>8}  {:>15}  {}",
            obs.time_s,
            obs.p99_latency_s * 1e6,
            obs.qos_target_s * 1e6,
            status
                .variant
                .map_or("precise".to_string(), |v| format!("v{}", v + 1)),
            status.cores_reclaimed,
            action_text
        );
        actuator.apply_all(&mut sim, &actions);
        if obs.all_apps_finished {
            break;
        }
    }

    let final_state = sim.app(0);
    println!("\ncanneal finished: {}", final_state.is_finished());
    println!(
        "canneal execution time vs nominal: {:.2}x",
        final_state.relative_execution_time()
    );
    println!(
        "canneal output-quality loss: {:.1}%",
        final_state.inaccuracy_pct()
    );
    println!("actuator stats: {:?}", actuator.stats());
}
