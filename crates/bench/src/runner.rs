//! Experiment execution: one runner per system sorts a workload's shards
//! on a simulated cluster, and the run's [`RunReport`] is its record.

use crate::json::Json;
use pgxd::cluster::{Cluster, ClusterConfig, RunReport};
use pgxd::{MachineCtx, StepReport};
use pgxd_baselines::SparkEngine;
use pgxd_core::{DistSorter, LoadStats, RangeStats, SortConfig};
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
            Workload::Twitter {
                scale, edge_factor, ..
            } => {
                format!("twitter-like (rmat s={scale} ef={edge_factor})")
            }
        }
    }

    /// Materializes the per-machine input shards.
    pub fn generate(&self, machines: usize) -> Vec<Vec<u64>> {
        match *self {
            Workload::Dist { dist, n, seed } => generate_partitioned(dist, n, machines, seed),
            Workload::Twitter {
                scale,
                edge_factor,
                seed,
            } => {
                let keys = twitter_like_keys(scale, edge_factor, seed);
                partition_even(&keys, machines)
            }
        }
    }
}

/// What each machine's closure returns from a measured run: its final
/// element count and `(min, max)` key.
pub type MachineOutput = (usize, Option<(u64, u64)>);

/// One run: the labels `exp` files it under, and the run's own report.
/// Every count and time of the record is read from `report`.
#[derive(Debug)]
pub struct ExpResult {
    /// Which sorter ("pgxd" or "spark").
    pub system: &'static str,
    /// Workload label (distribution + size, or twitter config).
    pub workload: String,
    /// Sample-size factor the run applied (1.0 = the paper's X rule);
    /// `None` when no factor applies: Spark, or a fixed sample count.
    pub sample_factor: Option<f64>,
    /// Worker threads per machine.
    pub workers: usize,
    /// What the cluster run reported.
    pub report: RunReport<MachineOutput>,
}

impl ExpResult {
    /// Final element count per machine (Table II, Fig. 10).
    pub fn load(&self) -> LoadStats {
        LoadStats::new(self.report.results.iter().map(|r| r.0).collect())
    }

    /// Final `(min, max)` key per machine, `None` for an empty machine
    /// (Table III).
    pub fn ranges(&self) -> RangeStats<u64> {
        RangeStats::new(self.report.results.iter().map(|r| r.1).collect())
    }

    /// Measured wall time of the cluster run, seconds.
    pub fn wall_secs(&self) -> f64 {
        self.report.wall_time.as_secs_f64()
    }

    /// The record as `results/*.json` holds it: the one place its field
    /// names are written. The max / p50 / p95 step series all come from
    /// [`StepReport`] — the harness computes no percentiles of its own.
    pub fn to_json(&self) -> Json {
        let (report, comm, x) = (&self.report, &self.report.comm, &self.report.comm.exchange);
        let series = |of: fn(&StepReport, &str) -> Duration| -> Json {
            let steps = &report.steps;
            let named: Vec<(&str, f64)> = steps
                .step_names()
                .into_iter()
                .map(|n| (n, of(steps, n).as_secs_f64()))
                .collect();
            named.into()
        };
        let load = self.load();
        Json::Object(vec![
            ("system", self.system.into()),
            ("workload", self.workload.as_str().into()),
            ("sample_factor", self.sample_factor.into()),
            ("machines", report.results.len().into()),
            ("workers", self.workers.into()),
            ("total_keys", load.total().into()),
            ("wall_secs", self.wall_secs().into()),
            ("step_secs", series(StepReport::max_across_machines)),
            ("step_secs_p50", series(StepReport::p50_across_machines)),
            ("step_secs_p95", series(StepReport::p95_across_machines)),
            ("comm_bytes", comm.bytes_sent.into()),
            ("comm_messages", comm.messages_sent.into()),
            (
                "modeled_comm_secs",
                comm.modeled_wire_time.as_secs_f64().into(),
            ),
            ("max_recv_bytes", comm.max_recv_bytes.into()),
            (
                "bottleneck_comm_secs",
                comm.bottleneck_wire_time.as_secs_f64().into(),
            ),
            ("exchange_chunks_sent", x.chunks_sent.into()),
            ("exchange_bytes_placed", x.bytes_placed.into()),
            ("per_dst_bytes", report.per_dst_bytes.clone().into()),
            ("sizes", load.counts.into()),
            ("ranges", self.ranges().ranges.into()),
        ])
    }

    /// Perfect-overlap scaling model for Fig. 6 shape on small hosts:
    /// `wall / p + modeled_comm`. See the crate docs.
    pub fn scaled_time(&self) -> f64 {
        self.wall_secs() / self.report.results.len() as f64
            + self.report.comm.modeled_wire_time.as_secs_f64()
    }
}

/// Runs the PGX.D distributed sort of `workload`, whose per-machine shards
/// are `parts`, on a cluster built from `cluster`.
pub fn run_pgxd(
    workload: &Workload,
    parts: &[Vec<u64>],
    cluster: ClusterConfig,
    config: SortConfig,
) -> ExpResult {
    let sorter = DistSorter::new(config);
    let report = run_shards(parts, cluster, |ctx, local| {
        let part = sorter.sort(ctx, local);
        (part.len(), part.range().map(|(a, b)| (*a, *b)))
    });
    ExpResult {
        system: "pgxd",
        workload: workload.label(),
        sample_factor: config
            .fixed_samples_per_machine
            .is_none()
            .then_some(config.sample_factor),
        workers: cluster.workers_per_machine,
        report,
    }
}

/// Runs the Spark-sim `sortByKey` of `workload`, whose per-machine shards
/// are `parts`, on a cluster built from `cluster`.
pub fn run_spark(workload: &Workload, parts: &[Vec<u64>], cluster: ClusterConfig) -> ExpResult {
    let engine = SparkEngine::default();
    let report = run_shards(parts, cluster, |ctx, local| {
        let data = engine.sort_by_key(ctx, local).data;
        (
            data.len(),
            data.first().zip(data.last()).map(|(a, b)| (*a, *b)),
        )
    });
    ExpResult {
        system: "spark",
        workload: workload.label(),
        sample_factor: None,
        workers: cluster.workers_per_machine,
        report,
    }
}

/// Runs `sort` on every machine over a copy of its shard of `parts`. The
/// copy is made inside the run, so a caller's memory region around this
/// call counts it and not the input's generation.
///
/// Every run is checked once it is over, outside its timed region: the
/// machines hold as many keys as the shards did, and their `(min, max)`
/// ranges ascend with machine id. Each machine's own order is the
/// sorter's concern (its tests and the benchmark's validator).
fn run_shards(
    parts: &[Vec<u64>],
    cluster: ClusterConfig,
    sort: impl Fn(&mut MachineCtx, Vec<u64>) -> MachineOutput + Sync,
) -> RunReport<MachineOutput> {
    assert_eq!(parts.len(), cluster.machines, "one shard per machine");
    let report = Cluster::new(cluster).run(|ctx| {
        let local = parts[ctx.id()].clone();
        sort(ctx, local)
    });
    let held: usize = report.results.iter().map(|r| r.0).sum();
    assert_eq!(
        held,
        parts.iter().map(Vec::len).sum::<usize>(),
        "sort must conserve keys"
    );
    let ranges = RangeStats::new(report.results.iter().map(|r| r.1).collect());
    assert!(
        ranges.is_ascending(),
        "machine ranges must ascend with machine id"
    );
    report
}

/// Format a duration compactly for tables.
pub fn fmt_secs(d: Duration) -> String {
    let secs = d.as_secs_f64();
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
    use pgxd::trace::TraceConfig;
    use pgxd::CommSummary;

    /// `machines` × `workers` with default buffers and no trace: the run
    /// shape most tests below want.
    fn run_pgxd_sort(
        workload: &Workload,
        machines: usize,
        workers: usize,
        config: SortConfig,
    ) -> ExpResult {
        let cluster = ClusterConfig::new(machines).workers_per_machine(workers);
        run_pgxd(workload, &workload.generate(machines), cluster, config)
    }

    #[test]
    fn pgxd_run_produces_consistent_result() {
        let workload = Workload::Dist {
            dist: Distribution::Uniform,
            n: 10_000,
            seed: 1,
        };
        let r = run_pgxd_sort(&workload, 4, 1, SortConfig::default());
        assert_eq!(r.load().total(), 10_000);
        assert_eq!(r.load().counts.len(), 4);
        assert!(r.ranges().is_ascending());
        assert_eq!(r.report.steps.step_names(), pgxd_core::steps::ALL);
        assert!(r.wall_secs() > 0.0);
        let shares: f64 = r.load().shares().iter().sum();
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
        let cluster = ClusterConfig::new(3).workers_per_machine(1);
        let r = run_spark(&workload, &workload.generate(3), cluster);
        assert_eq!(r.load().total(), 10_000);
        assert!(r.ranges().is_ascending());
        assert_eq!(
            r.report.steps.step_names(),
            pgxd_baselines::spark::stages::ALL
        );
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
        assert!(r.ranges().is_ascending());
    }

    #[test]
    fn scaled_time_decreases_with_p_for_same_wall() {
        let mk = |p: usize| ExpResult {
            system: "pgxd",
            workload: "synthetic".into(),
            sample_factor: Some(1.0),
            workers: 1,
            report: RunReport {
                results: vec![(0, None); p],
                comm: CommSummary {
                    modeled_wire_time: Duration::from_millis(100),
                    ..CommSummary::default()
                },
                steps: pgxd::StepReport::default(),
                wall_time: Duration::from_secs(10),
                trace: None,
                per_dst_bytes: vec![],
            },
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
        let comm = &r.report.comm;
        assert!(comm.exchange.chunks_sent > 0);
        assert!(comm.exchange.bytes_placed > 0);
        // Per-receiver accounting covers every byte the fabric carried.
        assert_eq!(r.report.per_dst_bytes.len(), 4);
        assert_eq!(r.report.per_dst_bytes.iter().sum::<u64>(), comm.bytes_sent);
    }

    #[test]
    fn percentile_steps_are_ordered_and_aligned() {
        let workload = Workload::Dist {
            dist: Distribution::Uniform,
            n: 10_000,
            seed: 5,
        };
        let r = run_pgxd_sort(&workload, 4, 1, SortConfig::default());
        let steps = &r.report.steps;
        let names = steps.step_names();
        assert_eq!(names.len(), 6);
        for name in names {
            let max = steps.max_across_machines(name);
            let p50 = steps.p50_across_machines(name);
            let p95 = steps.p95_across_machines(name);
            assert!(
                p50 <= p95 && p95 <= max,
                "{name}: {p50:?} ≤ {p95:?} ≤ {max:?}"
            );
        }
        // The record's three series are those, under the same step names.
        let text = r.to_json().pretty();
        for series in ["step_secs", "step_secs_p50", "step_secs_p95"] {
            assert!(text.contains(&format!("\"{series}\": [\n    [\n      \"local_sort\",")));
        }
    }

    #[test]
    fn traced_run_captures_all_steps_on_every_machine() {
        let workload = Workload::Dist {
            dist: Distribution::Uniform,
            n: 20_000,
            seed: 6,
        };
        let traced = |trace: TraceConfig| {
            let cluster = ClusterConfig::new(3).workers_per_machine(2).trace(trace);
            run_pgxd(
                &workload,
                &workload.generate(3),
                cluster,
                SortConfig::default(),
            )
        };
        let r = traced(TraceConfig::enabled());
        assert!(r.ranges().is_ascending());
        let log = r.report.trace.expect("enabled tracing must return a log");
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
        assert!(traced(TraceConfig::disabled()).report.trace.is_none());
    }

    #[test]
    fn no_applied_factor_is_recorded_as_null() {
        let workload = Workload::Dist {
            dist: Distribution::RightSkewed,
            n: 10_000,
            seed: 7,
        };
        let factor = |r: &ExpResult| {
            let Json::Object(fields) = r.to_json() else {
                panic!("a result is a JSON object");
            };
            let (_, value) = fields
                .into_iter()
                .find(|(name, _)| *name == "sample_factor")
                .unwrap();
            value.pretty()
        };
        let fixed = run_pgxd_sort(&workload, 4, 1, SortConfig::default().fixed_samples(4));
        assert_eq!(factor(&fixed), "null");
        let ruled = run_pgxd_sort(&workload, 4, 1, SortConfig::default().sample_factor(0.4));
        assert_eq!(factor(&ruled), "0.4");
        let spark = run_spark(&workload, &workload.generate(4), ClusterConfig::new(4));
        assert_eq!(factor(&spark), "null");
    }

    #[test]
    #[should_panic(expected = "sort must conserve keys")]
    fn a_run_that_loses_keys_is_rejected() {
        run_shards(
            &[vec![1, 2], vec![3]],
            ClusterConfig::new(2),
            |_, mut local| {
                local.pop();
                (local.len(), local.first().map(|&k| (k, k)))
            },
        );
    }

    #[test]
    #[should_panic(expected = "machine ranges must ascend")]
    fn a_run_out_of_order_is_rejected() {
        run_shards(&[vec![5], vec![1]], ClusterConfig::new(2), |_, local| {
            (local.len(), Some((local[0], local[0])))
        });
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(Duration::from_secs_f64(2.5)), "2.500s");
        assert_eq!(fmt_secs(Duration::from_micros(2500)), "2.50ms");
        assert_eq!(fmt_secs(Duration::from_nanos(500)), "0.5µs");
    }
}
