//! Graph-flavoured usage (the paper's motivating scenario): generate a
//! power-law graph, load it through the data manager's partitioning path
//! (contiguous vertex ownership, ghost-node selection, edge chunking —
//! §III), and sort vertices by degree with provenance — then read off the
//! top hubs, tracing each sorted entry back to its vertex.
//!
//! ```text
//! cargo run --release --example graph_degree_sort
//! ```

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd_core::DistSorter;
use pgxd_datagen::partition::{crossing_edges_without_ghosts, partition_graph, PartitionConfig};
use pgxd_datagen::rmat::{rmat_edges, RmatConfig};

fn main() {
    let machines = 4;
    let config = RmatConfig::new(15, 8, 7); // 32k vertices, 256k edges
    let num_v = config.num_vertices();

    // Load the graph the PGX.D way: partition it across machines with
    // ghost-node selection and edge chunking.
    let edges = rmat_edges(&config);
    let partitions = partition_graph(num_v, &edges, &PartitionConfig::new(machines));

    let naive_crossing = crossing_edges_without_ghosts(num_v, &edges, machines);
    let ghosted_crossing: usize = partitions.iter().map(|p| p.crossing_edges).sum();
    println!(
        "R-MAT graph: {num_v} vertices, {} edges across {machines} machines",
        edges.len()
    );
    println!(
        "ghost-node selection: {} ghosts cut crossing edges {naive_crossing} -> {ghosted_crossing} \
         ({:.1}% reduction)",
        partitions[0].ghosts.len(),
        100.0 * (1.0 - ghosted_crossing as f64 / naive_crossing.max(1) as f64)
    );
    println!(
        "edge chunking: machine 0 scheduled {} chunks of <= 4096 edges",
        partitions[0].chunks.len()
    );

    let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
    let sorter = DistSorter::default();
    let partitions_ref = &partitions;

    let report = cluster.run(|ctx| {
        // Each machine extracts the out-degrees of its owned vertices from
        // its local CSR — the "sort data of their multiple graphs" use case.
        let part = &partitions_ref[ctx.id()];
        let degrees: Vec<u64> = part.csr.degrees();

        // Provenance-tracking sort: each output item remembers its origin
        // machine and local index, i.e. its vertex id.
        sorter.sort_keyed(ctx, &degrees).data
    });

    // The global top lives at the tail of the highest machines; walk the
    // concatenated output backwards for the 10 highest-degree vertices.
    let all: Vec<_> = report.results.iter().flatten().collect();
    println!("\ntop-10 hubs (degree, global vertex id):");
    for item in all.iter().rev().take(10) {
        let owner = &partitions[item.origin as usize];
        let vertex = owner.vertex_base + item.index as usize;
        println!("  degree {:>6} vertex {:>8}", item.key, vertex);
        assert_eq!(
            owner.csr.degree(item.index as usize) as u64,
            item.key,
            "provenance must resolve"
        );
    }

    assert_eq!(all.len(), num_v);
    println!(
        "\nsorted {} vertex degrees in {:?}",
        all.len(),
        report.wall_time
    );
}
