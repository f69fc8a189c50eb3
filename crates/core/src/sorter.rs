//! The six-step distributed sample sort (§IV).
//!
//! 1. **local sort** — data divided evenly among the machine's worker
//!    threads, every worker quicksorts its chunk
//!    ([`pgxd_algos::quicksort`]), chunks combined by the same balanced
//!    merge as step 6, ping-ponging with a fresh buffer.
//! 2. **sampling** — regular samples (the buffer-sized rule is their
//!    budget, one key in eight their densest) sent to master.
//! 3. **splitters** — master selects the `p − 1` regular splitters out of
//!    the sorted sample runs by rank, without merging them, and broadcasts
//!    them.
//! 4. **partition** — investigator binary search of the splitters on the
//!    locally sorted data → `p` contiguous send ranges.
//! 5. **exchange** — asynchronous offset-addressed all-to-all through the
//!    data-manager buffers (send while receive).
//! 6. **final merge** — the `p` per-source sorted runs combined by the
//!    §IV-A balanced merge handler (Fig. 2,
//!    [`pgxd_algos::merge::balanced_merge_with`]), ping-ponging between the
//!    received buffer and the spent buffer step 1 left behind, which is
//!    never regrown: a machine that receives a few keys more than it sent
//!    merges the largest few through a buffer of their own. Runs in order
//!    are concatenated and equal-key groups copied, not merged.
//!
//! The result is globally sorted across machines: machine 0 holds the
//! smallest keys, machine `p − 1` the largest, every machine's slice
//! locally sorted.

use crate::config::SortConfig;
use crate::investigator::splitter_offsets;
use crate::item::{tag_with_provenance, Keyed};
use crate::sampling::{select_regular_samples, select_splitters};
use pgxd::comm::Tag;
use pgxd::machine::{MachineCtx, MASTER};
use pgxd::Wire;
use pgxd_algos::exec::{even_chunk_bounds, MIN_ITEMS_PER_WORKER};
use pgxd_algos::merge::balanced_merge_with;
use pgxd_algos::quicksort::quicksort;
use pgxd_algos::Key;

/// Step names recorded in the machine's [`StepTimer`](pgxd::metrics::StepTimer)
/// by `ctx.step`, matching the Fig. 7 breakdown.
pub mod steps {
    /// Step 1: local parallel sort.
    pub const LOCAL_SORT: &str = "local_sort";
    /// Step 2: sample selection + gather to master.
    pub const SAMPLING: &str = "sampling";
    /// Step 3: splitter selection + broadcast.
    pub const SPLITTERS: &str = "splitters";
    /// Step 4: investigator partitioning.
    pub const PARTITION: &str = "partition";
    /// Step 5: asynchronous data exchange.
    pub const EXCHANGE: &str = "exchange";
    /// Step 6: balanced final merge.
    pub const FINAL_MERGE: &str = "final_merge";

    /// All six, in order.
    pub const ALL: [&str; 6] = [
        LOCAL_SORT,
        SAMPLING,
        SPLITTERS,
        PARTITION,
        EXCHANGE,
        FINAL_MERGE,
    ];
}

/// Step 1 driver: quicksorts `data` in even chunks across the machine's
/// worker pool and combines the per-worker runs with the Fig. 2 tree
/// ([`balanced_merge_with`]), the merge step 6 uses.
///
/// Returns `(sorted, leftover)`. With several chunks the tree ping-pongs
/// between the input and a fresh buffer with room for `capacity` elements;
/// `sorted` is whichever holds the result, and `leftover` the other: a
/// spent allocation, which the exchange receives into. With one chunk the
/// input is sorted in place: `sorted` is the caller's own allocation and
/// there is no `leftover`.
fn run_local_sort<T: Key>(
    ctx: &MachineCtx,
    mut data: Vec<T>,
    capacity: usize,
) -> (Vec<T>, Option<Vec<T>>) {
    let n = data.len();
    let workers = ctx.workers().max(1).min((n / MIN_ITEMS_PER_WORKER).max(1));
    if workers == 1 {
        // One chunk: sorted inline — no task, no merge, no second buffer.
        quicksort(&mut data);
        return (data, None);
    }
    let bounds = even_chunk_bounds(n, workers);
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(workers);
    let mut rest: &mut [T] = &mut data;
    for (lo, hi) in bounds.iter().zip(bounds.iter().skip(1)) {
        let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
        rest = tail;
        tasks.push(Box::new(move || quicksort(chunk)));
    }
    ctx.tasks().run_tasks(tasks);
    let mut spare = Vec::with_capacity(n.max(capacity));
    let sorted = ctx.phase_scope("local.merge", || {
        balanced_merge_with(data, &mut spare, &bounds, workers)
    });
    (sorted, Some(spare))
}

/// Internal record wrapper ordering *only* by key, so payload types need
/// no `Ord`. Equality follows the key too (consistent with `Ord`);
/// payloads of equal-keyed records are deliberately not compared.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyedRecord<K, R> {
    pub(crate) key: K,
    pub(crate) record: R,
}

impl<K: Ord, R> PartialEq for KeyedRecord<K, R> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<K: Ord, R> Eq for KeyedRecord<K, R> {}
impl<K: Ord, R> PartialOrd for KeyedRecord<K, R> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, R> Ord for KeyedRecord<K, R> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// The key's image; the record rides in the rest column, beside the key's.
impl<K: Wire, R: Copy + Send + Sync + 'static> Wire for KeyedRecord<K, R> {
    type Rest = (K::Rest, R);

    fn image(&self) -> u64 {
        self.key.image()
    }

    fn rest(&self) -> Self::Rest {
        (self.key.rest(), self.record)
    }

    fn join(image: u64, (rest, record): Self::Rest) -> Self {
        KeyedRecord {
            key: K::join(image, rest),
            record,
        }
    }
}

/// One machine's slice of the globally sorted output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedPartition<T> {
    /// The locally sorted slice of the global order.
    pub data: Vec<T>,
    /// The splitters that defined the global partition (`p − 1` keys).
    pub splitters: Vec<T>,
}

impl<T> SortedPartition<T> {
    /// Number of elements this machine ended up holding — the load the
    /// Table II / Fig. 10 experiments compare across machines.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the machine holds nothing.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Smallest and largest key held (None when empty) — the Table III
    /// per-processor ranges.
    pub fn range(&self) -> Option<(&T, &T)> {
        Some((self.data.first()?, self.data.last()?))
    }
}

/// The distributed sorter. Construct once, call
/// [`DistSorter::sort`] (or [`DistSorter::sort_keyed`]) from inside a
/// cluster SPMD closure.
///
/// # Example
///
/// ```
/// use pgxd::cluster::{Cluster, ClusterConfig};
/// use pgxd_core::{DistSorter, SortConfig};
///
/// let cluster = Cluster::new(ClusterConfig::new(4));
/// let sorter = DistSorter::new(SortConfig::default());
/// let report = cluster.run(|ctx| {
///     // Each machine starts with its own unsorted shard.
///     let local: Vec<u64> = (0..1000).map(|i| (i * 2654435761 + ctx.id() as u64) % 10_000).collect();
///     sorter.sort(ctx, local).data
/// });
/// // Concatenating the machine outputs in id order yields a sorted array.
/// let global: Vec<u64> = report.results.concat();
/// assert!(global.windows(2).all(|w| w[0] <= w[1]));
/// assert_eq!(global.len(), 4000);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DistSorter {
    config: SortConfig,
}

impl DistSorter {
    /// A sorter with the given configuration.
    pub fn new(config: SortConfig) -> Self {
        DistSorter { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SortConfig {
        &self.config
    }

    /// Sorts the union of every machine's `local` data globally.
    /// SPMD: every machine calls this with its own shard.
    pub fn sort<K: Key + Wire>(&self, ctx: &mut MachineCtx, local: Vec<K>) -> SortedPartition<K> {
        self.sort_one(ctx, local)
    }

    /// Sorts while tracking provenance: each output element knows its
    /// origin machine and original local index (§IV step 6's
    /// "information regards to their previous processors and locations").
    pub fn sort_keyed<K: Key + Wire>(
        &self,
        ctx: &mut MachineCtx,
        local: &[K],
    ) -> SortedPartition<Keyed<K>> {
        let tagged = tag_with_provenance(local, ctx.id());
        self.sort_one(ctx, tagged)
    }

    /// Sorts `(key, payload)` pairs by key — the paper's "sort multiple
    /// different data simultaneously" API: the payload rides along with
    /// its key through the exchange.
    pub fn sort_pairs<K: Key + Wire, V: Copy + Send + Sync + Ord + 'static>(
        &self,
        ctx: &mut MachineCtx,
        local: Vec<(K, V)>,
    ) -> SortedPartition<(K, V)> {
        self.sort_one(ctx, local)
    }

    /// Sorts in descending global order (machine 0 ends with the largest
    /// keys). Implemented by sorting [`Desc`]-wrapped keys, so every
    /// mechanism (investigator included) applies unchanged.
    ///
    /// [`Desc`]: pgxd_algos::Desc
    pub fn sort_descending<K: Key + Wire>(
        &self,
        ctx: &mut MachineCtx,
        local: Vec<K>,
    ) -> SortedPartition<K> {
        let wrapped: Vec<pgxd_algos::Desc<K>> = local.into_iter().map(pgxd_algos::Desc).collect();
        let part = self.sort_one(ctx, wrapped);
        SortedPartition {
            data: part.data.into_iter().map(|d| d.0).collect(),
            splitters: part.splitters.into_iter().map(|d| d.0).collect(),
        }
    }

    /// Sorts arbitrary plain-data records by an extracted key — the
    /// paper's "generic and works with any data type" API. The extractor
    /// runs once per record; the key ships packed and the record raw
    /// beside it.
    pub fn sort_records<R, K, F>(
        &self,
        ctx: &mut MachineCtx,
        local: Vec<R>,
        key_of: F,
    ) -> SortedPartition<(K, R)>
    where
        R: Copy + Send + Sync + 'static,
        K: Key + Wire,
        F: Fn(&R) -> K,
    {
        let keyed: Vec<KeyedRecord<K, R>> = local
            .into_iter()
            .map(|r| KeyedRecord {
                key: key_of(&r),
                record: r,
            })
            .collect();
        let part = self.sort_one(ctx, keyed);
        SortedPartition {
            data: part
                .data
                .into_iter()
                .map(|kr| (kr.key, kr.record))
                .collect(),
            splitters: part
                .splitters
                .into_iter()
                .map(|kr| (kr.key, kr.record))
                .collect(),
        }
    }

    /// Sorts several independent datasets *simultaneously* — the §VI
    /// claim "is able to sort different data simultaneously" taken
    /// literally: all batches share one sample gather, one splitter
    /// broadcast, and one data exchange, instead of paying the collective
    /// latencies once per dataset. Keys travel untagged: which batch a key
    /// belongs to is carried by its position among the range lengths each
    /// exchange stream opens with, never by the payload.
    ///
    /// Every machine must pass the same number of batches (SPMD
    /// contract). Returns one [`SortedPartition`] per batch.
    pub fn sort_batch<K: Key + Wire>(
        &self,
        ctx: &mut MachineCtx,
        locals: Vec<Vec<K>>,
    ) -> Vec<SortedPartition<K>> {
        if locals.is_empty() {
            return Vec::new();
        }
        self.sort_batches(ctx, locals)
    }

    /// A single dataset is a batch of one.
    // The pipeline returns one partition per batch it was given.
    fn sort_one<T: Key + Wire>(&self, ctx: &mut MachineCtx, local: Vec<T>) -> SortedPartition<T> {
        self.sort_batches(ctx, vec![local])
            .pop()
            .expect("one batch in, one partition out")
    }

    /// The six §IV steps, written once, over `B ≥ 1` batches. The batches
    /// sit back to back in one array from step 1 on, so every later step
    /// addresses batch `b` by position: its slice of the sorted array, its
    /// run in the sample and splitter messages, its `p` ranges of the
    /// exchange.
    // Batch, destination and run indexing is bounded by the SPMD contract —
    // batch ends, send offsets, and receive bounds are all built from the same
    // batch list in this call.
    fn sort_batches<T: Key + Wire>(
        &self,
        ctx: &mut MachineCtx,
        locals: Vec<Vec<T>>,
    ) -> Vec<SortedPartition<T>> {
        let p = ctx.num_machines();
        let workers = ctx.workers();
        let batches = locals.len();
        let input_items: usize = locals.iter().map(Vec::len).sum();

        // Step 1: local parallel sort of each batch (chunk → quicksort →
        // balanced merge with a fresh buffer). The first batch's result is
        // the array the exchange will read, and later batches are appended
        // to it; the first batch's spare is the one the exchange receives
        // into.
        let (sorted, leftover, batch_bounds) = ctx.step(steps::LOCAL_SORT, move |ctx| {
            let mut locals = locals.into_iter();
            let first = locals.next().unwrap_or_default();
            let (mut sorted, leftover) = run_local_sort(ctx, first, input_items);
            let mut bounds = vec![0, sorted.len()];
            for batch in locals {
                let (run, _) = run_local_sort(ctx, batch, 0);
                sorted.extend_from_slice(&run);
                bounds.push(sorted.len());
            }
            (sorted, leftover, bounds)
        });
        let batch = |b: usize| &sorted[batch_bounds[b]..batch_bounds[b + 1]];

        // Step 2: regular samples to master. The buffer-sized rule (§IV-B)
        // is their budget — the batches share the one read buffer the master
        // receives — and a shard short of eight budgets sends fewer.
        let sample_budget = self.config.samples_per_machine(
            ctx.buffer_bytes(),
            p * batches,
            std::mem::size_of::<T>(),
        );
        let sample_runs = ctx.step(steps::SAMPLING, |ctx| {
            let samples: Vec<Vec<T>> = (0..batches)
                .map(|b| select_regular_samples(batch(b), sample_budget))
                .collect();
            gather_runs(ctx, samples)
        });

        // Step 3: master selects each batch's p − 1 splitters out of its
        // sample runs, and broadcasts them all.
        let mut splitters = ctx.step(steps::SPLITTERS, |ctx| {
            let selected = sample_runs.map(|mut by_source| {
                (0..batches)
                    .map(|b| {
                        let runs: Vec<Vec<T>> = by_source
                            .iter_mut()
                            .map(|runs| std::mem::take(&mut runs[b]))
                            .collect();
                        select_splitters(&runs, p)
                    })
                    .collect()
            });
            broadcast_runs(ctx, selected)
        });

        // Step 4: investigator partitioning of each batch into p send
        // ranges. A batch with no samples anywhere has no splitters and a
        // single range, which the padding routes to machine 0.
        let send_offsets = ctx.step(steps::PARTITION, |_| {
            let mut send_offsets = Vec::with_capacity(batches * p + 1);
            send_offsets.push(0);
            for (b, splitters) in splitters.iter().enumerate() {
                let mut offsets = splitter_offsets(batch(b), splitters, self.config.investigator);
                offsets.resize(p + 1, batch(b).len());
                send_offsets.extend(offsets[1..].iter().map(|o| batch_bounds[b] + o));
            }
            send_offsets
        });

        // Step 5: asynchronous offset-addressed exchange, received into the
        // spent input step 1 merged from, if it left one. Either way the
        // step-1 array is spent after it: the second buffer step 6 needs.
        let (mut received, bounds) = ctx.step(steps::EXCHANGE, |ctx| {
            ctx.exchange_into(&sorted, &send_offsets, leftover.unwrap_or_default())
        });
        let mut spare = sorted;

        // Step 6: balanced merge (Fig. 2) of each batch's p per-source
        // sorted runs. The batches arrived back to back: the later ones
        // are split off the tail, the first keeps the received buffer. Each
        // merge ping-pongs with the spare and leaves it for the next; a
        // spare shorter than a batch (a machine received more than its
        // input) is merged through at its own length, not regrown.
        ctx.step(steps::FINAL_MERGE, move |_| {
            let mut parts: Vec<SortedPartition<T>> = (0..batches)
                .rev()
                .map(|b| {
                    let runs = &bounds[b * p..=(b + 1) * p];
                    let data = match runs[0] {
                        // `split_off(0)` would allocate a second buffer.
                        0 => std::mem::take(&mut received),
                        start => received.split_off(start),
                    };
                    let run_bounds: Vec<usize> = runs.iter().map(|r| r - runs[0]).collect();
                    SortedPartition {
                        data: balanced_merge_with(data, &mut spare, &run_bounds, workers),
                        splitters: std::mem::take(&mut splitters[b]),
                    }
                })
                .collect();
            parts.reverse();
            parts
        })
    }
}

/// User tag kinds of the two per-batch collectives below. Sequence 0
/// always: a machine cannot send its next sort's samples before it has
/// this sort's splitters, which the master sends only once it holds
/// every machine's samples.
const SAMPLE_RUNS: u16 = 0x5a;
const SPLITTER_RUNS: u16 = 0x5b;

/// [`MachineCtx::gather_to_master`] for one run per batch: each machine's
/// runs reach the master in a single message (packed images and their
/// rest, see [`CommSender::send_runs`](pgxd::comm::CommSender::send_runs));
/// `Some([source][batch])` there, `None` elsewhere.
// Sources are machine ids < p.
fn gather_runs<T: Wire>(ctx: &mut MachineCtx, runs: Vec<Vec<T>>) -> Option<Vec<Vec<Vec<T>>>> {
    let tag = Tag::user(SAMPLE_RUNS, 0);
    if !ctx.is_master() {
        ctx.comm_mut().sender().send_runs(MASTER, tag, runs);
        return None;
    }
    let mut by_source: Vec<Vec<Vec<T>>> = (0..ctx.num_machines()).map(|_| Vec::new()).collect();
    by_source[MASTER] = runs;
    for _ in 1..by_source.len() {
        let (src, runs) = ctx.comm_mut().recv_runs(tag);
        by_source[src] = runs;
    }
    Some(by_source)
}

/// [`MachineCtx::broadcast_from_master`] for one run per batch: the master
/// passes `Some(runs)`, everyone returns them.
// The master supplying no splitters is a caller bug.
fn broadcast_runs<T: Wire>(ctx: &mut MachineCtx, runs: Option<Vec<Vec<T>>>) -> Vec<Vec<T>> {
    let tag = Tag::user(SPLITTER_RUNS, 0);
    if !ctx.is_master() {
        return ctx.comm_mut().recv_runs(tag).1;
    }
    let runs = runs.expect("master must supply the splitters");
    let sender = ctx.comm_mut().sender();
    for dst in 1..ctx.num_machines() {
        sender.send_runs(dst, tag, runs.clone());
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgxd::cluster::{Cluster, ClusterConfig};
    use pgxd_datagen::{generate_partitioned, Distribution};

    fn run_sort(
        machines: usize,
        workers: usize,
        dist: Distribution,
        n: usize,
        config: SortConfig,
        seed: u64,
    ) -> (Vec<Vec<u64>>, Vec<u64>) {
        let parts = generate_partitioned(dist, n, machines, seed);
        let mut expect: Vec<u64> = parts.concat();
        expect.sort_unstable();
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(workers));
        let sorter = DistSorter::new(config);
        let report = cluster.run(|ctx| {
            let local = parts[ctx.id()].clone();
            sorter.sort(ctx, local).data
        });
        (report.results, expect)
    }

    fn assert_globally_sorted(results: &[Vec<u64>], expect: &[u64]) {
        let flat: Vec<u64> = results.concat();
        assert_eq!(flat, expect);
    }

    #[test]
    fn sorts_uniform_across_machine_counts() {
        for machines in [1usize, 2, 3, 4, 8] {
            let (results, expect) = run_sort(
                machines,
                2,
                Distribution::Uniform,
                20_000,
                SortConfig::default(),
                machines as u64,
            );
            assert_globally_sorted(&results, &expect);
        }
    }

    #[test]
    fn sorts_all_four_distributions() {
        for dist in Distribution::ALL {
            let (results, expect) = run_sort(4, 2, dist, 30_000, SortConfig::default(), 7);
            assert_globally_sorted(&results, &expect);
        }
    }

    #[test]
    fn duplicates_balanced_with_investigator() {
        let (results, expect) = run_sort(
            8,
            2,
            Distribution::Exponential,
            40_000,
            SortConfig::default(),
            11,
        );
        assert_globally_sorted(&results, &expect);
        let sizes: Vec<usize> = results.iter().map(|r| r.len()).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        // Balanced: no machine holds more than ~2x the smallest share.
        assert!(
            max < 2 * min.max(1) + 40_000 / 16,
            "imbalanced sizes: {sizes:?}"
        );
    }

    #[test]
    fn all_equal_keys_still_balanced() {
        let machines = 5;
        let parts: Vec<Vec<u64>> = (0..machines).map(|_| vec![9u64; 2000]).collect();
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| {
            let local = parts[ctx.id()].clone();
            sorter.sort(ctx, local).data.len()
        });
        let sizes = &report.results;
        let total: usize = sizes.iter().sum();
        assert_eq!(total, machines * 2000);
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= total / machines, "sizes: {sizes:?}");
    }

    #[test]
    fn without_investigator_all_equal_collapses() {
        let machines = 5;
        let parts: Vec<Vec<u64>> = (0..machines).map(|_| vec![9u64; 1000]).collect();
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(1));
        let sorter = DistSorter::new(SortConfig::default().investigator(false));
        let report = cluster.run(|ctx| {
            let local = parts[ctx.id()].clone();
            sorter.sort(ctx, local).data.len()
        });
        // The Fig. 3b pathology: one machine gets (almost) everything.
        let max = *report.results.iter().max().unwrap();
        assert_eq!(max, machines * 1000, "{:?}", report.results);
    }

    #[test]
    fn tiny_and_empty_inputs() {
        for n in [0usize, 1, 3, 10] {
            let (results, expect) =
                run_sort(4, 1, Distribution::Uniform, n, SortConfig::default(), 3);
            assert_globally_sorted(&results, &expect);
        }
    }

    #[test]
    fn provenance_maps_back_to_origin() {
        let machines = 3;
        let parts = generate_partitioned(Distribution::Normal, 5000, machines, 21);
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| {
            let local = parts[ctx.id()].clone();
            sorter.sort_keyed(ctx, &local).data
        });
        let mut count = 0;
        let mut prev: Option<u64> = None;
        for part in &report.results {
            for item in part {
                // Key-sorted globally.
                if let Some(p) = prev {
                    assert!(p <= item.key);
                }
                prev = Some(item.key);
                // Provenance points at the actual original element.
                assert_eq!(parts[item.origin as usize][item.index as usize], item.key);
                count += 1;
            }
        }
        assert_eq!(count, 5000);
    }

    #[test]
    fn sort_pairs_carries_payloads() {
        let machines = 4;
        let parts = generate_partitioned(Distribution::Uniform, 8000, machines, 5);
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| {
            // payload = key * 3 + 1, so we can verify pairs stay intact.
            let local: Vec<(u64, u64)> = parts[ctx.id()]
                .iter()
                .map(|&k| (k, k.wrapping_mul(3) + 1))
                .collect();
            sorter.sort_pairs(ctx, local).data
        });
        let flat: Vec<(u64, u64)> = report.results.concat();
        assert_eq!(flat.len(), 8000);
        assert!(flat.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(flat.iter().all(|&(k, v)| v == k.wrapping_mul(3) + 1));
    }

    #[test]
    fn batch_sort_with_parallel_merges() {
        // Batch 0 is past PARALLEL_MERGE_CUTOFF per machine, batch 1 is not:
        // one call takes the parallel and the sequential merges of steps 1
        // and 6.
        let machines = 3;
        let inputs = [
            generate_partitioned(Distribution::Uniform, 60_000, machines, 75),
            generate_partitioned(Distribution::Exponential, 20_000, machines, 76),
        ];
        let cluster = ClusterConfig::new(machines).workers_per_machine(4);
        let report = run_batches_with(cluster, &inputs);
        assert_batches_sorted(&report, &inputs, "4 workers");
    }

    #[test]
    fn descending_sort_reverses_global_order() {
        let machines = 4;
        let parts = generate_partitioned(Distribution::Uniform, 8000, machines, 41);
        let mut expect: Vec<u64> = parts.concat();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| sorter.sort_descending(ctx, parts[ctx.id()].clone()).data);
        assert_eq!(report.results.concat(), expect);
    }

    #[test]
    fn record_sort_by_extracted_key() {
        // Records with a non-Ord payload component (an f32), sorted by an
        // extracted integer key.
        #[derive(Clone, Copy, Debug, PartialEq)]
        struct Sample {
            id: u64,
            weight: f32,
        }
        let machines = 3;
        let raw = generate_partitioned(Distribution::Normal, 6000, machines, 43);
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| {
            let records: Vec<Sample> = raw[ctx.id()]
                .iter()
                .map(|&k| Sample {
                    id: k,
                    weight: (k % 97) as f32,
                })
                .collect();
            sorter.sort_records(ctx, records, |r| r.id).data
        });
        let flat: Vec<(u64, Sample)> = report.results.concat();
        assert_eq!(flat.len(), 6000);
        assert!(flat.windows(2).all(|w| w[0].0 <= w[1].0));
        // Payloads stay attached to their keys.
        assert!(flat
            .iter()
            .all(|(k, r)| r.id == *k && r.weight == (k % 97) as f32));
    }

    #[test]
    fn batch_sort_sorts_every_batch() {
        let machines = 4;
        let inputs = [
            generate_partitioned(Distribution::Uniform, 8000, machines, 51),
            generate_partitioned(Distribution::Exponential, 6000, machines, 52),
            generate_partitioned(Distribution::RightSkewed, 4000, machines, 53),
        ];
        assert_batches_sorted(&run_batches(machines, &inputs), &inputs, "three batches");
    }

    type BatchReport = pgxd::cluster::RunReport<Vec<SortedPartition<u64>>>;

    /// Runs `sort_batch` over `inputs[batch][machine]` in a fresh cluster.
    fn run_batches_with(cluster: ClusterConfig, inputs: &[Vec<Vec<u64>>]) -> BatchReport {
        let sorter = DistSorter::default();
        Cluster::new(cluster).run(|ctx| {
            let locals = inputs.iter().map(|b| b[ctx.id()].clone()).collect();
            sorter.sort_batch(ctx, locals)
        })
    }

    fn run_batches(machines: usize, inputs: &[Vec<Vec<u64>>]) -> BatchReport {
        let cluster = ClusterConfig::new(machines).workers_per_machine(2);
        run_batches_with(cluster, inputs)
    }

    /// Every batch, concatenated in machine order, equals its sorted input:
    /// sorted, a permutation, and machine ranges ascending.
    fn assert_batches_sorted(report: &BatchReport, inputs: &[Vec<Vec<u64>>], what: &str) {
        for (b, input) in inputs.iter().enumerate() {
            let mut expect: Vec<u64> = input.concat();
            expect.sort_unstable();
            let got: Vec<u64> = report
                .results
                .iter()
                .flat_map(|parts| parts[b].data.iter().copied())
                .collect();
            assert_eq!(got, expect, "{what}: batch {b}");
        }
    }

    /// Runs `sort` over `parts[machine]` in a fresh cluster.
    fn run_plain(
        machines: usize,
        parts: &[Vec<u64>],
    ) -> pgxd::cluster::RunReport<SortedPartition<u64>> {
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
        let sorter = DistSorter::default();
        cluster.run(|ctx| sorter.sort(ctx, parts[ctx.id()].clone()))
    }

    /// Messages that are not exchange chunks or stream openers: the sample
    /// gather and the splitter broadcast.
    fn control_messages<R>(report: &pgxd::cluster::RunReport<R>) -> u64 {
        report.comm.messages_sent - report.comm.exchange.chunks_sent
    }

    #[test]
    fn batch_of_one_is_the_plain_sort() {
        let machines = 3;
        let parts = generate_partitioned(Distribution::Normal, 6000, machines, 55);
        let plain = run_plain(machines, &parts);
        let batched = run_batches(machines, &[parts]);
        for (one, many) in plain.results.iter().zip(&batched.results) {
            assert_eq!(std::slice::from_ref(one), &many[..]);
        }
        assert_eq!(plain.comm.bytes_sent, batched.comm.bytes_sent);
        assert_eq!(plain.comm.messages_sent, batched.comm.messages_sent);
        // No batches: nothing sorted, nothing sent.
        let none = run_batches(machines, &[]);
        assert!(none.results.iter().all(Vec::is_empty));
        assert_eq!(none.comm.messages_sent, 0);
    }

    #[test]
    fn batching_shares_collectives_and_costs_one_count_word_a_stream_per_extra_batch() {
        let records = |parts: &[Vec<u64>]| -> Vec<Vec<(u64, u64)>> {
            parts
                .iter()
                .map(|keys| keys.iter().map(|&k| (k, !k)).collect())
                .collect()
        };
        let machines = 4;
        let p = machines as u64;
        let a = generate_partitioned(Distribution::Uniform, 40_000, machines, 81);
        let b = generate_partitioned(Distribution::Exponential, 40_000, machines, 82);
        let alone_a = run_plain(machines, &a);
        let alone_b = run_plain(machines, &b);
        let (ra, rb) = (records(&a), records(&b));
        let together = run_batches(machines, &[a, b]);
        // `u64` runs travel as self-delimiting packed frames, and each
        // stream's range lengths ride in its opener, where a sort of one
        // batch has its first chunk's offset: a second batch adds one
        // 8-byte count word a stream, and nothing else.
        let alone = alone_a.comm.bytes_sent + alone_b.comm.bytes_sent;
        let count_words = 8 * p * (p - 1);
        assert_eq!(together.comm.bytes_sent, alone + count_words);
        // One gather and one broadcast whatever B is.
        assert_eq!(control_messages(&alone_a), 2 * (p - 1));
        assert_eq!(control_messages(&together), control_messages(&alone_a));

        // Pairs ship their runs in the same self-delimiting frames, their
        // values beside them: a batch adds no more for them either.
        let sorter = DistSorter::default();
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
        let bytes = |inputs: &[Vec<Vec<(u64, u64)>>]| {
            let report = cluster.run(|ctx| {
                let locals = inputs.iter().map(|b| b[ctx.id()].clone()).collect();
                sorter.sort_batch(ctx, locals).len()
            });
            report.comm.bytes_sent
        };
        let alone = bytes(std::slice::from_ref(&ra)) + bytes(std::slice::from_ref(&rb));
        let together = bytes(&[ra, rb]);
        assert!(
            together <= alone + count_words,
            "batched records {together} B > {alone} B + {count_words} B"
        );
    }

    #[test]
    fn hostile_shapes_through_the_single_driver() {
        // Batch 0 takes the hostile shape; any further batches are plain
        // uniform data riding the same collectives.
        type Shape = fn(usize) -> Vec<Vec<u64>>;
        let shapes: [(&str, Shape); 5] = [
            ("empty everywhere", |p| vec![Vec::new(); p]),
            ("empty on odd machines", |p| {
                let odd_empty = |m: usize| vec![m as u64 + 3; 400 * ((m + 1) % 2)];
                (0..p).map(odd_empty).collect()
            }),
            ("all-equal keys", |p| vec![vec![9; 700]; p]),
            ("fewer keys than machines", |p| {
                (0..p)
                    .map(|m| vec![(p - m) as u64; usize::from(m + 1 < p)])
                    .collect()
            }),
            ("one machine holds everything", |p| {
                let mut parts = vec![Vec::new(); p];
                parts[p - 1] = (0..3000u64)
                    .map(|i| i.wrapping_mul(0x9e37_79b9) % 5000)
                    .collect();
                parts
            }),
        ];
        for machines in [1usize, 3, 5] {
            for batches in [1usize, 3] {
                for (name, shape) in shapes {
                    let mut inputs = vec![shape(machines)];
                    for b in 1..batches {
                        inputs.push(generate_partitioned(
                            Distribution::Uniform,
                            2000,
                            machines,
                            b as u64,
                        ));
                    }
                    let what = format!("{name}: p = {machines}, B = {batches}");
                    assert_batches_sorted(&run_batches(machines, &inputs), &inputs, &what);
                }
            }
        }
    }

    #[test]
    fn batch_sort_keeps_duplicate_heavy_batches_balanced() {
        let machines = 5;
        let heavy: Vec<Vec<u64>> = (0..machines).map(|_| vec![3u64; 2000]).collect();
        let mixed = generate_partitioned(Distribution::Uniform, 10_000, machines, 59);
        let report = run_batches(machines, &[heavy, mixed]);
        let heavy_sizes: Vec<usize> = report.results.iter().map(|r| r[0].len()).collect();
        assert_eq!(heavy_sizes.iter().sum::<usize>(), machines * 2000);
        let max = heavy_sizes.iter().max().unwrap();
        let min = heavy_sizes.iter().min().unwrap();
        assert!(max - min <= 1, "heavy batch imbalanced: {heavy_sizes:?}");
    }

    #[test]
    fn records_all_six_steps() {
        let parts = generate_partitioned(Distribution::Uniform, 4000, 2, 17);
        let cluster = Cluster::new(ClusterConfig::new(2));
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| {
            let local = parts[ctx.id()].clone();
            let _ = sorter.sort(ctx, local);
        });
        let names = report.steps.step_names();
        for step in steps::ALL {
            assert!(names.contains(&step), "missing step {step}");
        }
    }

    #[test]
    fn splitters_reported_and_ranges_disjoint() {
        let parts = generate_partitioned(Distribution::Uniform, 30_000, 4, 23);
        let cluster = Cluster::new(ClusterConfig::new(4).workers_per_machine(2));
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| {
            let local = parts[ctx.id()].clone();
            let part = sorter.sort(ctx, local);
            (part.splitters.clone(), part.range().map(|(a, b)| (*a, *b)))
        });
        let (splitters, _) = &report.results[0];
        assert_eq!(splitters.len(), 3);
        // Machine ranges must be non-overlapping and ordered by id.
        let ranges: Vec<(u64, u64)> = report.results.iter().filter_map(|(_, r)| *r).collect();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping ranges {ranges:?}");
        }
    }

    #[test]
    fn small_sample_factor_still_correct() {
        let (results, expect) = run_sort(
            4,
            2,
            Distribution::RightSkewed,
            20_000,
            SortConfig::default().sample_factor(0.004),
            31,
        );
        assert_globally_sorted(&results, &expect);
    }

    #[test]
    fn zero_fixed_samples_still_partitions() {
        // Zero samples would mean no splitters and every key on machine 0.
        let n = 20_000;
        let config = SortConfig::default().fixed_samples(0);
        let (results, expect) = run_sort(4, 2, Distribution::Uniform, n, config, 37);
        assert_globally_sorted(&results, &expect);
        let sizes: Vec<usize> = results.iter().map(Vec::len).collect();
        assert!(sizes.iter().all(|&len| len < n), "shards: {sizes:?}");
    }
}
