//! Regenerates Table 1: the platform specification the simulator models.

use pliant_bench::{print_table, Cli};
use pliant_sim::server::ServerSpec;

fn main() {
    let cli = Cli::figure(&[]);
    let spec = ServerSpec::paper_platform();
    cli.emit(&spec, |spec| {
        println!("Table 1: Platform Specification (modelled)\n");
        let rows: Vec<Vec<String>> = spec
            .table1_rows()
            .into_iter()
            .map(|(k, v)| vec![k, v])
            .collect();
        print_table(&["Field", "Value"], &rows);
        println!(
            "\nUsable cores for colocation: {} (of {} per socket; {} reserved for soft IRQ)",
            spec.usable_cores(),
            spec.cores_per_socket,
            spec.irq_cores
        );
    });
}
