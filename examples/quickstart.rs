//! Quickstart: sort 1M keys on a simulated 4-machine cluster.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd_core::{DistSorter, LoadStats, SortConfig};
use pgxd_datagen::{generate_partitioned, Distribution};

fn main() {
    let machines = 4;
    let n = 1_000_000;

    // Every machine starts with its own shard of the input.
    let shards = generate_partitioned(Distribution::Uniform, n, machines, 42);

    // A cluster is p machines, each with its own worker pool, connected by
    // a buffered message fabric (256 KiB request buffers, as in PGX.D).
    let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
    let sorter = DistSorter::new(SortConfig::default());

    // SPMD: the closure runs once per machine.
    let report = cluster.run(|ctx| {
        let local = shards[ctx.id()].clone();
        let part = sorter.sort(ctx, local);
        (part.len(), part.range().map(|(lo, hi)| (*lo, *hi)))
    });

    println!(
        "sorted {n} keys across {machines} machines in {:?}",
        report.wall_time
    );
    println!(
        "communication: {} bytes in {} messages (modeled wire time {:?})",
        report.comm.bytes_sent, report.comm.messages_sent, report.comm.modeled_wire_time
    );

    let loads = LoadStats::new(report.results.iter().map(|r| r.0).collect());
    println!("\nper-machine load:");
    for (m, (count, range)) in report.results.iter().enumerate() {
        let (lo, hi) = range.expect("non-empty machine");
        println!(
            "  machine {m}: {count} keys ({:.3}% of total), range [{lo}, {hi}]",
            loads.shares()[m] * 100.0
        );
    }
    println!(
        "\nimbalance factor: {:.4} (1.0 = perfect)",
        loads.imbalance_factor()
    );

    println!("\nstep breakdown (max across machines):");
    for step in pgxd_core::steps::ALL {
        println!(
            "  {:<12} {:?}",
            step,
            report.steps.max_across_machines(step)
        );
    }
}
