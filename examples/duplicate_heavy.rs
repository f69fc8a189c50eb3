//! The paper's headline scenario: sorting data with many duplicated
//! entries. Runs the same exponential workload with the investigator on
//! and off to show the load-balance difference (Fig. 3b vs Fig. 3c).
//!
//! ```text
//! cargo run --release --example duplicate_heavy
//! ```

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd_core::{DistSorter, LoadStats, SortConfig};
use pgxd_datagen::{generate_partitioned, Distribution};

fn run(investigator: bool, shards: &[Vec<u64>], machines: usize) -> LoadStats {
    let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
    let sorter = DistSorter::new(SortConfig::default().investigator(investigator));
    let report = cluster.run(|ctx| {
        let local = shards[ctx.id()].clone();
        sorter.sort(ctx, local).len()
    });
    LoadStats::new(report.results)
}

fn main() {
    let machines = 8;
    let n = 800_000;
    let shards = generate_partitioned(Distribution::Exponential, n, machines, 123);

    let distinct: std::collections::HashSet<u64> = shards.iter().flatten().copied().collect();
    println!(
        "exponential workload: {n} keys, only {} distinct values ({:.1}x duplication)",
        distinct.len(),
        n as f64 / distinct.len() as f64
    );

    for investigator in [false, true] {
        let stats = run(investigator, &shards, machines);
        println!(
            "\ninvestigator {}:",
            if investigator {
                "ON  (Fig. 3c)"
            } else {
                "OFF (Fig. 3b, naive sample sort)"
            }
        );
        print!("  per-machine loads:");
        for c in &stats.counts {
            print!(" {c}");
        }
        println!();
        println!(
            "  min {} / max {} — load difference {}, imbalance factor {:.2}",
            stats.min(),
            stats.max(),
            stats.load_difference(),
            stats.imbalance_factor()
        );
    }
    println!(
        "\nThe investigator divides each duplicated splitter's equal-key range evenly\n\
         across the destinations it spans, so duplication no longer collapses the load."
    );
}
