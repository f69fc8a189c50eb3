//! A Spark-1.6-style `sortByKey` (the paper's comparison system, §II/§V).
//!
//! Spark's distributed sort runs three bulk-synchronous stages:
//!
//! 1. **sample** — the driver draws samples from every partition and
//!    computes range-partitioner bounds (no duplicate-splitter handling —
//!    repeated bounds leave partitions empty, Spark's real behaviour);
//! 2. **map** — every input partition assigns each record to an output
//!    partition by binary-searching the bounds, and *serializes* it into
//!    that partition's shuffle buffer (the shuffle write);
//! 3. **reduce** — output partitions fetch their shuffle blocks,
//!    *deserialize*, and sort with TimSort.
//!
//! A barrier separates every stage (the bulk-synchronous model the paper
//! contrasts PGX.D's relaxed execution with). All costs are real: records
//! round-trip through the [`Record`] codec, stage results materialize,
//! and no computation overlaps communication.
//!
//! Mapping onto the simulator: each machine hosts
//! [`SparkEngine::partitions_per_machine`] input partitions and owns the
//! same number of output partitions (machine `m` owns output partitions
//! `m·k..(m+1)·k`), so "tasks" parallelize on the machine's worker pool
//! exactly like Spark tasks parallelize on executor cores.

use crate::serialize::{decode_all, encode_all, Record};
use pgxd::machine::MachineCtx;
use pgxd_algos::exec::even_chunk_bounds;
use pgxd_algos::search::upper_bound;
use pgxd_algos::timsort::timsort;

/// Stage names recorded in the machine step timer.
pub mod stages {
    /// Driver sampling + bounds computation.
    pub const SAMPLE: &str = "spark_sample";
    /// Map-side partition + serialized shuffle write.
    pub const MAP_SHUFFLE: &str = "spark_map_shuffle";
    /// Reduce-side fetch + deserialize + TimSort.
    pub const REDUCE_SORT: &str = "spark_reduce_sort";
    /// All three, in order.
    pub const ALL: [&str; 3] = [SAMPLE, MAP_SHUFFLE, REDUCE_SORT];
}

/// The Spark-like engine.
#[derive(Debug, Clone, Copy)]
pub struct SparkEngine {
    /// Input (and output) partitions hosted per machine — Spark tasks per
    /// executor. Defaults to 4.
    pub partitions_per_machine: usize,
    /// Samples drawn per input partition for the range partitioner.
    /// Spark's `sampleSizePerPartitionHint`-ish default: 20.
    pub samples_per_partition: usize,
}

impl Default for SparkEngine {
    fn default() -> Self {
        SparkEngine {
            partitions_per_machine: 4,
            samples_per_partition: 20,
        }
    }
}

/// Monotonic id so concurrent sorts never share shuffle files.
static SHUFFLE_NONCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Round-trips one machine's framed shuffle output through local files
/// (one per destination), returning the re-read blocks. Models the map
/// task's shuffle-file write plus the fetch-time read.
fn spill_blocks_to_disk(machine: usize, blocks: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    let nonce = SHUFFLE_NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pgxd-spark-shuffle-{}", std::process::id()));
    if std::fs::create_dir_all(&dir).is_err() {
        return blocks; // no usable temp dir: degrade to in-memory shuffle
    }
    blocks
        .into_iter()
        .enumerate()
        .map(|(dst, block)| {
            if block.is_empty() {
                return block;
            }
            let path = dir.join(format!("m{machine}-d{dst}-{nonce}.shuffle"));
            match std::fs::write(&path, &block) {
                Ok(()) => {
                    let back = std::fs::read(&path).unwrap_or(block);
                    let _ = std::fs::remove_file(&path);
                    back
                }
                Err(_) => block,
            }
        })
        .collect()
}

/// One machine's slice of the Spark sort output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparkSortResult<R> {
    /// The machine's output partitions, concatenated in partition order
    /// (globally sorted across machines by construction).
    pub data: Vec<R>,
    /// The range-partitioner bounds the driver computed.
    pub bounds: Vec<R>,
}

impl SparkEngine {
    /// Creates an engine with the given partitions per machine.
    pub fn new(partitions_per_machine: usize) -> Self {
        SparkEngine {
            partitions_per_machine: partitions_per_machine.max(1),
            ..Default::default()
        }
    }

    /// The bulk-synchronous `sortByKey`. SPMD: call from every machine
    /// with its local shard.
    pub fn sort_by_key<R: Record>(
        &self,
        ctx: &mut MachineCtx,
        local: Vec<R>,
    ) -> SparkSortResult<R> {
        let p = ctx.num_machines();
        let k = self.partitions_per_machine;
        let num_output = p * k;

        // ---- Stage 1: sample → driver → bounds -------------------------
        let bounds = ctx.step(stages::SAMPLE, |ctx| {
            // Spark's `sortByKey` runs a separate sampling *job* whose
            // `sketch()` fully scans every partition with reservoir
            // sampling — a whole extra pass over the input, which we pay
            // here too (deterministic xorshift stands in for the RNG).
            let mut samples: Vec<R> = Vec::new();
            let chunk_bounds = even_chunk_bounds(local.len(), k);
            for (t, w) in chunk_bounds.windows(2).enumerate() {
                let part = &local[w[0]..w[1]];
                let want = self.samples_per_partition.min(part.len());
                if want == 0 {
                    continue;
                }
                let mut reservoir: Vec<R> = part[..want].to_vec();
                let mut x: u64 = 0x9e3779b97f4a7c15 ^ ((ctx.id() * k + t) as u64);
                for (seen, &record) in part.iter().enumerate().skip(want) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let slot = (x % (seen as u64 + 1)) as usize;
                    if slot < want {
                        reservoir[slot] = record;
                    }
                }
                samples.extend_from_slice(&reservoir);
            }
            // Samples travel serialized, like Spark rows.
            let gathered = ctx.gather_to_master(encode_all(&samples));
            let bounds_bytes = gathered.map(|rows| {
                let mut all: Vec<R> = rows.iter().flat_map(|b| decode_all::<R>(b)).collect();
                timsort(&mut all);
                let m = all.len();
                let bounds: Vec<R> = if m == 0 {
                    Vec::new()
                } else {
                    (0..num_output - 1)
                        .map(|j| all[(j + 1) * m / num_output])
                        .collect()
                };
                encode_all(&bounds)
            });
            let bounds = decode_all::<R>(&ctx.broadcast_from_master(bounds_bytes));
            ctx.barrier(); // stage boundary
            bounds
        });

        // ---- Stage 2: map-side partition + shuffle write ---------------
        // Per destination *machine*: framed bytes
        // [u32 partition_id, u64 byte_len, payload]*.
        let shuffle_blocks = ctx.step(stages::MAP_SHUFFLE, |ctx| {
            let chunk_bounds = even_chunk_bounds(local.len(), k);
            // One map task per input partition, on the worker pool.
            let mut per_task: Vec<Vec<Vec<u8>>> = vec![Vec::new(); k];
            {
                let bounds_ref = &bounds;
                let local_ref = &local;
                let cb = &chunk_bounds;
                let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = per_task
                    .iter_mut()
                    .enumerate()
                    .map(|(t, out)| {
                        Box::new(move || {
                            let part = &local_ref[cb[t]..cb[t + 1]];
                            let mut buffers: Vec<Vec<u8>> = vec![Vec::new(); num_output];
                            for &record in part {
                                // Spark: binary search of the bounds per
                                // record (data is unsorted).
                                let pid = upper_bound(bounds_ref, &record).min(num_output - 1);
                                record.encode(&mut buffers[pid]);
                            }
                            *out = buffers;
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                ctx.tasks().run_tasks(tasks);
            }
            // Frame per destination machine (owner of pid = pid / k).
            let mut framed: Vec<Vec<u8>> = vec![Vec::new(); p];
            for task_buffers in per_task {
                for (pid, payload) in task_buffers.into_iter().enumerate() {
                    if payload.is_empty() {
                        continue;
                    }
                    let dst = pid / k;
                    let frame = &mut framed[dst];
                    frame.extend_from_slice(&(pid as u32).to_le_bytes());
                    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                    frame.extend_from_slice(&payload);
                }
            }
            // Spark's sort shuffle materializes map output as local
            // shuffle files; reducers read them at fetch time.
            let framed = spill_blocks_to_disk(ctx.id(), framed);
            ctx.barrier(); // map stage completes before any fetch
            framed
        });

        // ---- Stage 3: shuffle fetch + deserialize + TimSort ------------
        let data = ctx.step(stages::REDUCE_SORT, |ctx| {
            let blocks = ctx.all_to_all(shuffle_blocks);
            // Parse frames into per-owned-partition byte blobs.
            let my_first_pid = ctx.id() * k;
            let mut per_partition: Vec<Vec<u8>> = vec![Vec::new(); k];
            for block in &blocks {
                let mut cursor = &block[..];
                while !cursor.is_empty() {
                    let mut pid_bytes = [0u8; 4];
                    pid_bytes.copy_from_slice(&cursor[..4]);
                    let pid = u32::from_le_bytes(pid_bytes) as usize;
                    let mut len_bytes = [0u8; 8];
                    len_bytes.copy_from_slice(&cursor[4..12]);
                    let len = u64::from_le_bytes(len_bytes) as usize;
                    per_partition[pid - my_first_pid].extend_from_slice(&cursor[12..12 + len]);
                    cursor = &cursor[12 + len..];
                }
            }
            // One reduce task per owned partition: deserialize + TimSort.
            let mut sorted_parts: Vec<Vec<R>> = vec![Vec::new(); k];
            {
                let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = sorted_parts
                    .iter_mut()
                    .zip(per_partition.iter())
                    .map(|(out, blob)| {
                        Box::new(move || {
                            let mut records = decode_all::<R>(blob);
                            timsort(&mut records);
                            *out = records;
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                ctx.tasks().run_tasks(tasks);
            }
            ctx.barrier(); // job end
            sorted_parts.concat()
        });

        SparkSortResult { data, bounds }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgxd::cluster::{Cluster, ClusterConfig};
    use pgxd_datagen::{generate_partitioned, Distribution};

    fn run_spark(
        machines: usize,
        dist: Distribution,
        n: usize,
        seed: u64,
    ) -> (Vec<Vec<u64>>, Vec<u64>, pgxd::CommSummary) {
        let parts = generate_partitioned(dist, n, machines, seed);
        let mut expect: Vec<u64> = parts.concat();
        expect.sort_unstable();
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
        let engine = SparkEngine::default();
        let report = cluster.run(|ctx| {
            let local = parts[ctx.id()].clone();
            engine.sort_by_key(ctx, local).data
        });
        (report.results, expect, report.comm)
    }

    #[test]
    fn sorts_all_distributions() {
        for dist in Distribution::ALL {
            let (results, expect, _) = run_spark(4, dist, 20_000, 3);
            assert_eq!(results.concat(), expect, "{}", dist.name());
        }
    }

    #[test]
    fn sorts_various_machine_counts() {
        for machines in [1usize, 2, 3, 5, 8] {
            let (results, expect, _) = run_spark(machines, Distribution::Uniform, 10_000, 5);
            assert_eq!(results.concat(), expect, "p={machines}");
        }
    }

    #[test]
    fn all_equal_keys_collapse_to_one_partition() {
        // Spark's range partitioner has no investigator: every record goes
        // to the single partition owning the repeated bound.
        let machines = 4;
        let parts: Vec<Vec<u64>> = (0..machines).map(|_| vec![7u64; 1000]).collect();
        let cluster = Cluster::new(ClusterConfig::new(machines));
        let engine = SparkEngine::default();
        let report = cluster.run(|ctx| {
            let local = parts[ctx.id()].clone();
            engine.sort_by_key(ctx, local).data.len()
        });
        let max = *report.results.iter().max().unwrap();
        assert_eq!(max, machines * 1000, "{:?}", report.results);
    }

    #[test]
    fn tiny_inputs() {
        for n in [0usize, 1, 5] {
            let (results, expect, _) = run_spark(3, Distribution::Uniform, n, 7);
            assert_eq!(results.concat(), expect, "n={n}");
        }
    }

    #[test]
    fn records_stage_times() {
        let parts = generate_partitioned(Distribution::Uniform, 5000, 2, 9);
        let cluster = Cluster::new(ClusterConfig::new(2));
        let engine = SparkEngine::default();
        let report = cluster.run(|ctx| {
            let _ = engine.sort_by_key(ctx, parts[ctx.id()].clone());
        });
        let names = report.steps.step_names();
        for s in stages::ALL {
            assert!(names.contains(&s), "missing stage {s}");
        }
    }

    #[test]
    fn shuffle_bytes_exceed_payload() {
        // Serialization + framing: the shuffle must move at least the raw
        // payload volume of the records that changed machines.
        let n = 40_000;
        let (results, expect, comm) = run_spark(4, Distribution::Uniform, n, 11);
        assert_eq!(results.concat(), expect);
        // ~3/4 of records cross machines on uniform data.
        assert!(comm.bytes_sent as usize > n / 2 * 8, "{comm:?}");
    }

    #[test]
    fn pairs_sort_by_key_component() {
        let machines = 3;
        let parts = generate_partitioned(Distribution::Normal, 6000, machines, 13);
        let cluster = Cluster::new(ClusterConfig::new(machines));
        let engine = SparkEngine::default();
        let report = cluster.run(|ctx| {
            let local: Vec<(u64, u64)> = parts[ctx.id()].iter().map(|&x| (x, x ^ 0xabcd)).collect();
            engine.sort_by_key(ctx, local).data
        });
        let flat: Vec<(u64, u64)> = report.results.concat();
        assert_eq!(flat.len(), 6000);
        assert!(flat.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(flat.iter().all(|&(k, v)| v == k ^ 0xabcd));
    }
}
