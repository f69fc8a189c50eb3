//! Experiment execution: generate a workload, run a sorter on a simulated
//! cluster, collect timing/communication/load results.

use crate::json::Json;
use pgxd::cluster::{Cluster, ClusterConfig, RunReport};
use pgxd::trace::{TraceConfig, TraceLog};
use pgxd_baselines::SparkEngine;
use pgxd_core::{DistSorter, SortConfig};
use pgxd_datagen::{generate_partitioned, partition_even, twitter_like_keys, Distribution};
use std::time::Duration;

/// Seed used by every experiment unless overridden.
pub const DEFAULT_SEED: u64 = 20170529; // IPPS 2017 kickoff, why not

/// Default worker threads per simulated machine.
pub const DEFAULT_WORKERS: usize = 2;

/// What data a run sorts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// `n` keys from one of the Fig. 4 distributions.
    Dist {
        /// Which distribution.
        dist: Distribution,
        /// Total keys across the cluster.
        n: usize,
        /// RNG seed.
        seed: u64,
    },
    /// R-MAT edge-destination keys (the Twitter stand-in, Fig. 8).
    Twitter {
        /// log2 vertex count.
        scale: u32,
        /// Edges per vertex.
        edge_factor: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl Workload {
    /// Human-readable label for tables.
    pub fn label(&self) -> String {
        match self {
            Workload::Dist { dist, n, .. } => format!("{} (n={n})", dist.name()),
            Workload::Twitter { scale, edge_factor, .. } => {
                format!("twitter-like (rmat s={scale} ef={edge_factor})")
            }
        }
    }

    /// Materializes the per-machine input shards.
    pub fn generate(&self, machines: usize) -> Vec<Vec<u64>> {
        match *self {
            Workload::Dist { dist, n, seed } => generate_partitioned(dist, n, machines, seed),
            Workload::Twitter { scale, edge_factor, seed } => {
                let keys = twitter_like_keys(scale, edge_factor, seed);
                partition_even(&keys, machines)
            }
        }
    }
}

/// What each machine's closure returns from a measured run: its final
/// element count and `(min, max)` key.
pub type MachineOutput = (usize, Option<(u64, u64)>);

/// Everything one run produces.
#[derive(Debug, Clone)]
pub struct ExpResult {
    /// Which sorter ("pgxd" or "spark").
    pub system: String,
    /// Workload label (distribution + size, or twitter config).
    pub workload: String,
    /// Sample-size factor used (PGX.D only; 1.0 = the paper's X rule).
    pub sample_factor: f64,
    /// Machine count.
    pub machines: usize,
    /// Worker threads per machine.
    pub workers: usize,
    /// Total keys sorted.
    pub total_keys: usize,
    /// Measured wall time of the cluster run, seconds.
    pub wall_secs: f64,
    /// Per-step wall time (max across machines), seconds, in step order.
    pub step_secs: Vec<(String, f64)>,
    /// Per-step median across machines, seconds, in step order.
    pub step_secs_p50: Vec<(String, f64)>,
    /// Per-step 95th percentile across machines, seconds, in step order.
    pub step_secs_p95: Vec<(String, f64)>,
    /// Bytes the fabric carried.
    pub comm_bytes: u64,
    /// Packets the fabric carried.
    pub comm_messages: u64,
    /// Wire time the network model charges for the aggregate traffic,
    /// seconds.
    pub modeled_comm_secs: f64,
    /// Bytes addressed to the most-loaded receiver (hotspot view).
    pub max_recv_bytes: u64,
    /// Wire time of the hotspot receiver's inbound link, seconds — the
    /// Fig. 9 communication-overhead metric (bad splitters overload one
    /// link even when aggregate volume is unchanged).
    pub bottleneck_comm_secs: f64,
    /// Exchange data chunks handed to the fabric.
    pub exchange_chunks_sent: u64,
    /// Spent chunk buffers returned to the pool after placement.
    pub exchange_chunks_recycled: u64,
    /// Chunk-buffer acquisitions served from recycled memory.
    pub exchange_pool_hits: u64,
    /// Chunk-buffer acquisitions that fell back to a fresh allocation.
    pub exchange_pool_misses: u64,
    /// Payload bytes memcpy-placed into exchange output buffers.
    pub exchange_bytes_placed: u64,
    /// Bytes addressed to each receiving machine, by id — the Fig. 9
    /// per-receiver skew view.
    pub per_dst_bytes: Vec<u64>,
    /// Final element count per machine (load balance).
    pub sizes: Vec<usize>,
    /// Final `(min, max)` key per machine (`None` = empty machine).
    pub ranges: Vec<Option<(u64, u64)>>,
}

impl ExpResult {
    /// The record of one measured run: the one place a [`RunReport`]
    /// becomes an `ExpResult`. The max / p50 / p95 series of `step_names`
    /// all come from [`pgxd::StepReport`] — the harness computes no
    /// percentiles of its own.
    pub fn from_report(
        system: &str,
        workload: &Workload,
        sample_factor: f64,
        workers: usize,
        step_names: &[&'static str],
        report: &RunReport<MachineOutput>,
    ) -> ExpResult {
        let series = |of: fn(&pgxd::StepReport, &str) -> Duration| -> Vec<(String, f64)> {
            step_names
                .iter()
                .map(|&n| (n.to_string(), of(&report.steps, n).as_secs_f64()))
                .collect()
        };
        ExpResult {
            system: system.into(),
            workload: workload.label(),
            sample_factor,
            machines: report.results.len(),
            workers,
            total_keys: report.results.iter().map(|r| r.0).sum(),
            wall_secs: report.wall_time.as_secs_f64(),
            step_secs: series(pgxd::StepReport::max_across_machines),
            step_secs_p50: series(pgxd::StepReport::p50_across_machines),
            step_secs_p95: series(pgxd::StepReport::p95_across_machines),
            comm_bytes: report.comm.bytes_sent,
            comm_messages: report.comm.messages_sent,
            modeled_comm_secs: report.comm.modeled_wire_time.as_secs_f64(),
            max_recv_bytes: report.comm.max_recv_bytes,
            bottleneck_comm_secs: report.comm.bottleneck_wire_time.as_secs_f64(),
            exchange_chunks_sent: report.comm.exchange.chunks_sent,
            exchange_chunks_recycled: report.comm.exchange.chunks_recycled,
            exchange_pool_hits: report.comm.exchange.pool_hits,
            exchange_pool_misses: report.comm.exchange.pool_misses,
            exchange_bytes_placed: report.comm.exchange.bytes_placed,
            per_dst_bytes: report.per_dst_bytes.clone(),
            sizes: report.results.iter().map(|r| r.0).collect(),
            ranges: report.results.iter().map(|r| r.1).collect(),
        }
    }

    /// The record as `results/*.json` holds it, every field under its own
    /// name.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("system", self.system.as_str().into()),
            ("workload", self.workload.as_str().into()),
            ("sample_factor", self.sample_factor.into()),
            ("machines", self.machines.into()),
            ("workers", self.workers.into()),
            ("total_keys", self.total_keys.into()),
            ("wall_secs", self.wall_secs.into()),
            ("step_secs", self.step_secs.clone().into()),
            ("step_secs_p50", self.step_secs_p50.clone().into()),
            ("step_secs_p95", self.step_secs_p95.clone().into()),
            ("comm_bytes", self.comm_bytes.into()),
            ("comm_messages", self.comm_messages.into()),
            ("modeled_comm_secs", self.modeled_comm_secs.into()),
            ("max_recv_bytes", self.max_recv_bytes.into()),
            ("bottleneck_comm_secs", self.bottleneck_comm_secs.into()),
            ("exchange_chunks_sent", self.exchange_chunks_sent.into()),
            ("exchange_chunks_recycled", self.exchange_chunks_recycled.into()),
            ("exchange_pool_hits", self.exchange_pool_hits.into()),
            ("exchange_pool_misses", self.exchange_pool_misses.into()),
            ("exchange_bytes_placed", self.exchange_bytes_placed.into()),
            ("per_dst_bytes", self.per_dst_bytes.clone().into()),
            ("sizes", self.sizes.clone().into()),
            ("ranges", self.ranges.clone().into()),
        ])
    }

    /// Perfect-overlap scaling model for Fig. 6 shape on small hosts:
    /// `wall / p + modeled_comm`. See the crate docs.
    pub fn scaled_time(&self) -> f64 {
        self.wall_secs / self.machines as f64 + self.modeled_comm_secs
    }

    /// Per-machine shares of the total (Table II).
    pub fn shares(&self) -> Vec<f64> {
        pgxd_core::LoadStats::new(self.sizes.clone()).shares()
    }

    /// Max − min load (Fig. 10).
    pub fn load_difference(&self) -> usize {
        pgxd_core::LoadStats::new(self.sizes.clone()).load_difference()
    }

    /// Sorted-output sanity: ranges ascend with machine id.
    pub fn ranges_ascending(&self) -> bool {
        pgxd_core::RangeStats::new(self.ranges.clone()).is_ascending()
    }

    /// Fraction of chunk-buffer acquisitions served from the pool
    /// (0.0 when the run recorded no pool activity).
    pub fn exchange_pool_hit_rate(&self) -> f64 {
        let total = self.exchange_pool_hits + self.exchange_pool_misses;
        if total == 0 {
            0.0
        } else {
            self.exchange_pool_hits as f64 / total as f64
        }
    }
}

/// Runs the PGX.D distributed sort on `workload` and collects results.
pub fn run_pgxd_sort(
    workload: &Workload,
    machines: usize,
    workers: usize,
    config: SortConfig,
) -> ExpResult {
    run_pgxd_sort_buf(workload, machines, workers, config, pgxd::DEFAULT_BUFFER_BYTES)
}

/// [`run_pgxd_sort`] with an explicit data-manager buffer size — the
/// §IV-B 256 KiB tuning ablation.
pub fn run_pgxd_sort_buf(
    workload: &Workload,
    machines: usize,
    workers: usize,
    config: SortConfig,
    buffer_bytes: usize,
) -> ExpResult {
    run_pgxd_sort_traced(
        workload,
        machines,
        workers,
        config,
        buffer_bytes,
        TraceConfig::disabled(),
    )
    .0
}

/// [`run_pgxd_sort_buf`] with structured tracing: when `trace` is enabled
/// the returned [`TraceLog`] carries the run's per-machine timeline
/// (`exp trace` and the `--trace` flag feed it to the exporters).
pub fn run_pgxd_sort_traced(
    workload: &Workload,
    machines: usize,
    workers: usize,
    config: SortConfig,
    buffer_bytes: usize,
    trace: TraceConfig,
) -> (ExpResult, Option<TraceLog>) {
    let parts = workload.generate(machines);
    let cluster = Cluster::new(
        ClusterConfig::new(machines)
            .workers_per_machine(workers)
            .buffer_bytes(buffer_bytes)
            .trace(trace),
    );
    let sorter = DistSorter::new(config);
    let report = cluster.run(|ctx| {
        let local = parts[ctx.id()].clone();
        let part = sorter.sort(ctx, local);
        (part.len(), part.range().map(|(a, b)| (*a, *b)))
    });
    let result = ExpResult::from_report(
        "pgxd",
        workload,
        config.sample_factor,
        workers,
        &pgxd_core::steps::ALL,
        &report,
    );
    (result, report.trace)
}

/// Runs the Spark-sim `sortByKey` on `workload` and collects results.
pub fn run_spark_sort(workload: &Workload, machines: usize, workers: usize) -> ExpResult {
    let parts = workload.generate(machines);
    let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(workers));
    let engine = SparkEngine::default();
    let report = cluster.run(|ctx| {
        let local = parts[ctx.id()].clone();
        let out = engine.sort_by_key(ctx, local);
        let range = out
            .data
            .first()
            .map(|lo| (*lo, *out.data.last().unwrap()));
        (out.data.len(), range)
    });
    ExpResult::from_report(
        "spark",
        workload,
        0.0,
        workers,
        &pgxd_baselines::spark::stages::ALL,
        &report,
    )
}

/// Format a `Duration`-in-seconds compactly for tables.
pub fn fmt_secs(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else if secs >= 1e-3 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.1}µs", secs * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pgxd_run_produces_consistent_result() {
        let workload = Workload::Dist {
            dist: Distribution::Uniform,
            n: 10_000,
            seed: 1,
        };
        let r = run_pgxd_sort(&workload, 4, 1, SortConfig::default());
        assert_eq!(r.total_keys, 10_000);
        assert_eq!(r.sizes.iter().sum::<usize>(), 10_000);
        assert!(r.ranges_ascending());
        assert_eq!(r.step_secs.len(), 6);
        assert!(r.wall_secs > 0.0);
        let shares: f64 = r.shares().iter().sum();
        assert!((shares - 1.0).abs() < 1e-9);
    }

    #[test]
    fn result_json_keeps_every_field_name() {
        let workload = Workload::Dist {
            dist: Distribution::Uniform,
            n: 10_000,
            seed: 1,
        };
        let r = run_pgxd_sort(&workload, 4, 1, SortConfig::default());
        let Json::Object(fields) = r.to_json() else {
            panic!("a result is a JSON object");
        };
        let names: Vec<&str> = fields.iter().map(|(name, _)| *name).collect();
        // The names the committed `results/*.json` have always carried, in
        // their order, then the ones later PRs appended.
        let expected = [
            "system",
            "workload",
            "sample_factor",
            "machines",
            "workers",
            "total_keys",
            "wall_secs",
            "step_secs",
            "step_secs_p50",
            "step_secs_p95",
            "comm_bytes",
            "comm_messages",
            "modeled_comm_secs",
            "max_recv_bytes",
            "bottleneck_comm_secs",
            "exchange_chunks_sent",
            "exchange_chunks_recycled",
            "exchange_pool_hits",
            "exchange_pool_misses",
            "exchange_bytes_placed",
            "per_dst_bytes",
            "sizes",
            "ranges",
        ];
        assert_eq!(names, expected);
        let text = r.to_json().pretty();
        assert!(text.contains("\"system\": \"pgxd\""));
        assert!(text.contains("\"workload\": \"uniform (n=10000)\""));
        assert!(text.contains("\"total_keys\": 10000"));
        assert!(text.contains("\"local_sort\","));
    }

    #[test]
    fn spark_run_produces_consistent_result() {
        let workload = Workload::Dist {
            dist: Distribution::Normal,
            n: 10_000,
            seed: 2,
        };
        let r = run_spark_sort(&workload, 3, 1);
        assert_eq!(r.sizes.iter().sum::<usize>(), 10_000);
        assert!(r.ranges_ascending());
        assert_eq!(r.step_secs.len(), 3);
    }

    #[test]
    fn twitter_workload_generates() {
        let workload = Workload::Twitter {
            scale: 10,
            edge_factor: 4,
            seed: 3,
        };
        let parts = workload.generate(4);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 1024 * 4);
        let r = run_pgxd_sort(&workload, 4, 1, SortConfig::default());
        assert!(r.ranges_ascending());
    }

    #[test]
    fn scaled_time_decreases_with_p_for_same_wall() {
        let mk = |p: usize| ExpResult {
            system: "pgxd".into(),
            workload: "synthetic".into(),
            sample_factor: 1.0,
            machines: p,
            workers: 1,
            total_keys: 0,
            wall_secs: 10.0,
            step_secs: vec![],
            step_secs_p50: vec![],
            step_secs_p95: vec![],
            comm_bytes: 0,
            comm_messages: 0,
            modeled_comm_secs: 0.1,
            max_recv_bytes: 0,
            bottleneck_comm_secs: 0.0,
            exchange_chunks_sent: 0,
            exchange_chunks_recycled: 0,
            exchange_pool_hits: 0,
            exchange_pool_misses: 0,
            exchange_bytes_placed: 0,
            per_dst_bytes: vec![],
            sizes: vec![],
            ranges: vec![],
        };
        assert!(mk(8).scaled_time() > mk(16).scaled_time());
    }

    #[test]
    fn pgxd_result_carries_exchange_counters() {
        let workload = Workload::Dist {
            dist: Distribution::Uniform,
            n: 20_000,
            seed: 4,
        };
        let r = run_pgxd_sort(&workload, 4, 2, SortConfig::default());
        assert!(r.exchange_chunks_sent > 0);
        assert!(r.exchange_bytes_placed > 0);
        let rate = r.exchange_pool_hit_rate();
        assert!((0.0..=1.0).contains(&rate));
        // Per-receiver accounting covers every byte the fabric carried.
        assert_eq!(r.per_dst_bytes.len(), 4);
        assert_eq!(r.per_dst_bytes.iter().sum::<u64>(), r.comm_bytes);
    }

    #[test]
    fn percentile_steps_are_ordered_and_aligned() {
        let workload = Workload::Dist {
            dist: Distribution::Uniform,
            n: 10_000,
            seed: 5,
        };
        let r = run_pgxd_sort(&workload, 4, 1, SortConfig::default());
        assert_eq!(r.step_secs_p50.len(), r.step_secs.len());
        assert_eq!(r.step_secs_p95.len(), r.step_secs.len());
        for ((name, max), ((n50, p50), (n95, p95))) in r
            .step_secs
            .iter()
            .zip(r.step_secs_p50.iter().zip(&r.step_secs_p95))
        {
            assert_eq!(name, n50);
            assert_eq!(name, n95);
            assert!(p50 <= p95 && p95 <= max, "{name}: {p50} ≤ {p95} ≤ {max}");
        }
    }

    #[test]
    fn traced_run_captures_all_steps_on_every_machine() {
        let workload = Workload::Dist {
            dist: Distribution::Uniform,
            n: 20_000,
            seed: 6,
        };
        let (r, log) = run_pgxd_sort_traced(
            &workload,
            3,
            2,
            SortConfig::default(),
            pgxd::DEFAULT_BUFFER_BYTES,
            TraceConfig::enabled(),
        );
        assert!(r.ranges_ascending());
        let log = log.expect("enabled tracing must return a log");
        let gantt = log.step_gantt();
        for m in 0..3u32 {
            for step in pgxd_core::steps::ALL {
                assert!(
                    gantt.iter().any(|row| row.machine == m && row.name == step),
                    "machine {m} missing step span {step}"
                );
            }
        }
        // The untraced variant of the same run returns no log.
        let untraced = run_pgxd_sort_traced(
            &workload,
            3,
            2,
            SortConfig::default(),
            pgxd::DEFAULT_BUFFER_BYTES,
            TraceConfig::disabled(),
        );
        assert!(untraced.1.is_none());
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(2.5), "2.500s");
        assert_eq!(fmt_secs(0.0025), "2.50ms");
        assert_eq!(fmt_secs(0.0000005), "0.5µs");
    }
}
