//! The generic-API tour: sorting records by an extracted key, descending
//! order, key/payload pairs, and the post-sort analytics (quantiles,
//! histogram) — the "high-level API exposed to the user, which is generic
//! and works with any data type and is able to sort different data
//! simultaneously" of §VI.
//!
//! ```text
//! cargo run --release --example multi_sort
//! ```

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd_core::api::{global_histogram, global_quantiles};
use pgxd_core::DistSorter;
use pgxd_datagen::{generate_partitioned, Distribution};

/// An application record: not `Ord` itself (it has a float), sorted by
/// whichever field the caller extracts.
#[derive(Clone, Copy, Debug)]
struct Event {
    timestamp: u64,
    device: u32,
    reading: f32,
}

fn main() {
    let machines = 4;
    let n = 200_000;
    let ts = generate_partitioned(Distribution::Exponential, n, machines, 99);

    let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
    let sorter = DistSorter::default();
    let ts_ref = &ts;

    let report = cluster.run(|ctx| {
        let events: Vec<Event> = ts_ref[ctx.id()]
            .iter()
            .enumerate()
            .map(|(i, &t)| Event {
                timestamp: t,
                device: (ctx.id() * 1000 + i) as u32,
                reading: (t % 360) as f32,
            })
            .collect();

        // 1. Sort whole records by timestamp (records carry a float — no
        //    Ord needed on the payload).
        let by_time = sorter.sort_records(ctx, events.clone(), |e| e.timestamp);

        // 2. Same keys descending (largest timestamps on machine 0).
        let newest_first =
            sorter.sort_descending(ctx, events.iter().map(|e| e.timestamp).collect());

        // 3. Key/payload pairs: timestamp plus device id travel together.
        let pairs: Vec<(u64, u32)> = events.iter().map(|e| (e.timestamp, e.device)).collect();
        let keyed = sorter.sort_pairs(ctx, pairs);

        // 4. Two *different* datasets sorted simultaneously through one
        //    shared set of collectives (§VI: "sort different data
        //    simultaneously").
        let timestamps: Vec<u64> = events.iter().map(|e| e.timestamp).collect();
        let devices: Vec<u64> = events.iter().map(|e| e.device as u64).collect();
        let mut batch = sorter.sort_batch(ctx, vec![timestamps.clone(), devices]);
        let devices_sorted = batch.pop().unwrap();
        let plain = batch.pop().unwrap();
        assert!(pgxd_core::api::verify_globally_sorted(ctx, &plain));
        assert!(pgxd_core::api::verify_globally_sorted(ctx, &devices_sorted));

        // 5. Post-sort analytics on the primary order.
        let quartiles = global_quantiles(ctx, &plain, 4);
        let hist = global_histogram(ctx, &plain, 0, 30_000, 10);

        // Payload fields stay attached through the exchange.
        let earliest_reading = by_time.data.first().map(|(k, e)| {
            assert_eq!(e.reading, (k % 360) as f32);
            e.reading
        });

        (
            by_time.len(),
            newest_first.data.first().copied(),
            keyed.len(),
            quartiles,
            hist,
            earliest_reading,
        )
    });

    let (first_len, newest_head, keyed_len, quartiles, hist, earliest_reading) = &report.results[0];
    let total: usize = report.results.iter().map(|r| r.0).sum();
    assert_eq!(total, n);
    let _ = (first_len, keyed_len);

    println!("sorted {n} telemetry events three ways on {machines} machines");
    println!(
        "earliest event's sensor reading (rode along with its key): {:?}",
        earliest_reading.unwrap()
    );
    println!(
        "descending head (largest timestamp, machine 0): {:?}",
        newest_head.unwrap()
    );
    println!("timestamp quartiles: {quartiles:?}");
    println!("histogram over [0, 30000) in 10 buckets:");
    let max = *hist.iter().max().unwrap() as f64;
    for (b, &count) in hist.iter().enumerate() {
        let bar = "#".repeat((40.0 * count as f64 / max) as usize);
        println!(
            "  [{:>5}..{:>5}) {:>7}  {bar}",
            b * 3000,
            (b + 1) * 3000,
            count
        );
    }
}
