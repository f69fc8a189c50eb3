//! The user-facing query API on top of a finished sort (§IV: "This
//! sorting library also provides an API for the users to implement a
//! binary search on data as well as finding information regards to the
//! previous processors ... such as retrieving top values from their graph
//! data or implementing binary search on the sorted data").

use crate::item::Keyed;
use crate::sorter::SortedPartition;
use pgxd::machine::MachineCtx;
use pgxd_algos::search::{lower_bound, upper_bound};
use pgxd_algos::Key;

/// A replicated index over the globally sorted data: every machine learns
/// every machine's key range and element count, so it can tell which
/// machines may hold a key without a collective. An exact global rank
/// needs the holders' data: that is the collective [`global_rank`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalIndex<K> {
    /// Per-machine `(min, max)` key ranges; `None` for empty machines.
    pub ranges: Vec<Option<(K, K)>>,
    /// Per-machine element counts.
    pub counts: Vec<usize>,
}

impl<K: Key> GlobalIndex<K> {
    /// Builds the index collectively (all machines must call this).
    pub fn build(ctx: &mut MachineCtx, part: &SortedPartition<K>) -> Self {
        // Encode (count, min, max) as an Option-carrying triple per machine.
        let summary: Vec<(usize, Option<(K, K)>)> = vec![(
            part.len(),
            part.range().map(|(a, b)| (*a, *b)),
        )];
        let all = ctx.all_gather(summary);
        let mut ranges = Vec::with_capacity(all.len());
        let mut counts = Vec::with_capacity(all.len());
        for row in all {
            let (count, range) = row[0];
            counts.push(count);
            ranges.push(range);
        }
        GlobalIndex { ranges, counts }
    }

    /// Total elements across the cluster.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Machines whose range could contain `key` (0, 1, or several when the
    /// key's duplicates straddle machine boundaries).
    pub fn machines_containing(&self, key: &K) -> Vec<usize> {
        self.ranges
            .iter()
            .enumerate()
            .filter_map(|(m, r)| match r {
                Some((lo, hi)) if lo <= key && key <= hi => Some(m),
                _ => None,
            })
            .collect()
    }
}

/// Collective exact global rank: every machine contributes its local
/// counts of elements `< key` and `<= key`; everyone receives the global
/// `(rank_lo, rank_hi)`. This is the paper's distributed binary search.
pub fn global_rank<K: Key>(
    ctx: &mut MachineCtx,
    part: &SortedPartition<K>,
    key: &K,
) -> (usize, usize) {
    let lo = lower_bound(&part.data, key);
    let hi = upper_bound(&part.data, key);
    let all = ctx.all_gather(vec![(lo, hi)]);
    let mut rank_lo = 0;
    let mut rank_hi = 0;
    for row in all {
        rank_lo += row[0].0;
        rank_hi += row[0].1;
    }
    (rank_lo, rank_hi)
}

/// Collective top-k: returns the `k` largest keys cluster-wide on the
/// master (None elsewhere). Each machine ships only its own top `k`
/// candidates, so the master sees at most `p · k` keys.
pub fn top_k<K: Key>(ctx: &mut MachineCtx, part: &SortedPartition<K>, k: usize) -> Option<Vec<K>> {
    let tail_start = part.data.len().saturating_sub(k);
    let candidates: Vec<K> = part.data[tail_start..].to_vec();
    let gathered = ctx.gather_to_master(candidates)?;
    let mut all: Vec<K> = gathered.concat();
    all.sort_unstable();
    let start = all.len().saturating_sub(k);
    let mut top = all[start..].to_vec();
    top.reverse(); // largest first
    Some(top)
}

/// Collective rank selection: the key at global rank `rank` (0-based) of
/// the sorted order, delivered to every machine. `None` when `rank` is
/// out of range. One count all-gather plus one broadcast.
pub fn select_rank<K: Key>(
    ctx: &mut MachineCtx,
    part: &SortedPartition<K>,
    rank: usize,
) -> Option<K> {
    let counts: Vec<usize> = ctx
        .all_gather(vec![part.len()])
        .into_iter()
        .map(|v| v[0])
        .collect();
    select_rank_with_counts(ctx, part, &counts, rank)
}

/// Collective quantiles: the keys at the `q`-quantile boundaries
/// (`1/q, 2/q, …, (q-1)/q` of the global rank space), delivered to every
/// machine. Empty when the data is empty or `q < 2`.
pub fn global_quantiles<K: Key>(
    ctx: &mut MachineCtx,
    part: &SortedPartition<K>,
    q: usize,
) -> Vec<K> {
    if q < 2 {
        // Stay collective even in the degenerate case (no ranks queried).
        return Vec::new();
    }
    let counts: Vec<usize> = ctx
        .all_gather(vec![part.len()])
        .into_iter()
        .map(|v| v[0])
        .collect();
    let total: usize = counts.iter().sum();
    let mut out = Vec::with_capacity(q - 1);
    for j in 1..q {
        let rank = j * total / q;
        if let Some(k) = select_rank_with_counts(ctx, part, &counts, rank) {
            out.push(k);
        }
    }
    out
}

fn select_rank_with_counts<K: Key>(
    ctx: &mut MachineCtx,
    part: &SortedPartition<K>,
    counts: &[usize],
    rank: usize,
) -> Option<K> {
    let total: usize = counts.iter().sum();
    if rank >= total {
        return None;
    }
    let mut owner = 0;
    let mut remaining = rank;
    while remaining >= counts[owner] {
        remaining -= counts[owner];
        owner += 1;
    }
    let payload = if ctx.id() == owner {
        Some(vec![part.data[remaining]])
    } else {
        None
    };
    ctx.broadcast_from(owner, payload).first().copied()
}

/// Collective global histogram over `buckets` equal-width buckets spanning
/// `[lo, hi]` (u64 keys): every machine receives the full histogram.
/// Keys outside the range are clamped into the edge buckets.
pub fn global_histogram(
    ctx: &mut MachineCtx,
    part: &SortedPartition<u64>,
    lo: u64,
    hi: u64,
    buckets: usize,
) -> Vec<u64> {
    assert!(buckets > 0 && hi >= lo, "invalid histogram spec");
    let width = ((hi - lo) / buckets as u64).max(1);
    let mut local = vec![0u64; buckets];
    for &k in &part.data {
        let b = ((k.saturating_sub(lo)) / width).min(buckets as u64 - 1) as usize;
        local[b] += 1;
    }
    let rows = ctx.all_gather(local);
    let mut global = vec![0u64; buckets];
    for row in rows {
        for (g, c) in global.iter_mut().zip(row) {
            *g += c;
        }
    }
    global
}

/// Collective O(p) verification that the distributed order is globally
/// sorted: every machine checks its slice locally, then the per-machine
/// `(min, max)` ranges are all-gathered and checked for ascent across
/// machine ids. Cheap enough to run after every production sort.
pub fn verify_globally_sorted<K: Key>(ctx: &mut MachineCtx, part: &SortedPartition<K>) -> bool {
    let locally_sorted = part.data.windows(2).all(|w| w[0] <= w[1]);
    let range = part.range().map(|(a, b)| (*a, *b));
    let all: Vec<(bool, Option<(K, K)>)> = ctx
        .all_gather(vec![(locally_sorted, range)])
        .into_iter()
        .map(|v| v[0])
        .collect();
    if !all.iter().all(|&(ok, _)| ok) {
        return false;
    }
    let mut prev_hi: Option<K> = None;
    for (_, r) in all {
        if let Some((lo, hi)) = r {
            if let Some(p) = prev_hi {
                if lo < p {
                    return false;
                }
            }
            prev_hi = Some(hi);
        }
    }
    true
}

/// Collective payload fetch by provenance — the §III "remote data
/// pulling" pattern: after a [`sort_keyed`](crate::DistSorter::sort_keyed),
/// every machine holds `Keyed` items pointing back at their origin
/// machine and index; this call pulls the payload that lived alongside
/// each key from its origin's `local_payloads` array.
///
/// Returns one payload per item, aligned with `items`. Two all-to-alls:
/// index requests out, payloads back.
pub fn fetch_payloads<K: Key, V: Copy + Send + Sync + 'static>(
    ctx: &mut MachineCtx,
    items: &[Keyed<K>],
    local_payloads: &[V],
) -> Vec<V> {
    let p = ctx.num_machines();
    // Group requested indices by origin machine, remembering where each
    // answer must land in the output.
    let mut requests: Vec<Vec<u64>> = vec![Vec::new(); p];
    let mut slots: Vec<Vec<usize>> = vec![Vec::new(); p];
    for (pos, item) in items.iter().enumerate() {
        requests[item.origin as usize].push(item.index);
        slots[item.origin as usize].push(pos);
    }

    // Request phase: each machine receives the index lists others want
    // from it…
    let incoming = ctx.all_to_all(requests);
    // …answers from its own payload array…
    let responses: Vec<Vec<V>> = incoming
        .into_iter()
        .map(|idxs| idxs.into_iter().map(|i| local_payloads[i as usize]).collect())
        .collect();
    // …and the answers flow back.
    let answers = ctx.all_to_all(responses);

    // SAFETY-free assembly: place answers into their recorded slots.
    let mut out: Vec<Option<V>> = vec![None; items.len()];
    for (origin, payloads) in answers.into_iter().enumerate() {
        debug_assert_eq!(payloads.len(), slots[origin].len());
        for (payload, &slot) in payloads.into_iter().zip(&slots[origin]) {
            out[slot] = Some(payload);
        }
    }
    out.into_iter().map(|v| v.expect("missing payload")).collect()
}

/// Collective bottom-k, symmetric to [`top_k`].
pub fn bottom_k<K: Key>(
    ctx: &mut MachineCtx,
    part: &SortedPartition<K>,
    k: usize,
) -> Option<Vec<K>> {
    let take = k.min(part.data.len());
    let candidates: Vec<K> = part.data[..take].to_vec();
    let gathered = ctx.gather_to_master(candidates)?;
    let mut all: Vec<K> = gathered.concat();
    all.sort_unstable();
    all.truncate(k);
    Some(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistSorter, SortConfig};
    use pgxd::cluster::{Cluster, ClusterConfig};
    use pgxd_datagen::{generate, partition_even, Distribution};

    fn sorted_fixture(
        machines: usize,
        n: usize,
    ) -> (Vec<u64>, Cluster, Vec<Vec<u64>>) {
        let data = generate(Distribution::Uniform, n, 99);
        let parts = partition_even(&data, machines);
        let mut expect = data;
        expect.sort_unstable();
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
        (expect, cluster, parts)
    }

    #[test]
    fn global_index_counts_and_ranges() {
        let (expect, cluster, parts) = sorted_fixture(4, 10_000);
        let sorter = DistSorter::new(SortConfig::default());
        let report = cluster.run(|ctx| {
            let part = sorter.sort(ctx, parts[ctx.id()].clone());
            let index = GlobalIndex::build(ctx, &part);
            (index, part.range().map(|(a, b)| (*a, *b)))
        });
        let (index, _) = &report.results[0];
        assert_eq!(index.total(), 10_000);
        // Index ranges must match what each machine reported.
        for (m, (_, r)) in report.results.iter().enumerate() {
            assert_eq!(&index.ranges[m], r);
        }
        let _ = expect;
    }

    #[test]
    fn global_rank_matches_flat_sort() {
        let (expect, cluster, parts) = sorted_fixture(3, 5000);
        let sorter = DistSorter::default();
        let probe = expect[2500];
        let report = cluster.run(|ctx| {
            let part = sorter.sort(ctx, parts[ctx.id()].clone());
            global_rank(ctx, &part, &probe)
        });
        let (lo, hi) = report.results[0];
        assert_eq!(lo, expect.partition_point(|&x| x < probe));
        assert_eq!(hi, expect.partition_point(|&x| x <= probe));
        // Every machine agrees.
        assert!(report.results.iter().all(|&r| r == (lo, hi)));
    }

    #[test]
    fn global_rank_of_absent_key() {
        let (expect, cluster, parts) = sorted_fixture(3, 3000);
        let sorter = DistSorter::default();
        let probe = u64::MAX;
        let report = cluster.run(|ctx| {
            let part = sorter.sort(ctx, parts[ctx.id()].clone());
            global_rank(ctx, &part, &probe)
        });
        assert_eq!(report.results[0], (expect.len(), expect.len()));
    }

    #[test]
    fn top_and_bottom_k() {
        let (expect, cluster, parts) = sorted_fixture(4, 8000);
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| {
            let part = sorter.sort(ctx, parts[ctx.id()].clone());
            let top = top_k(ctx, &part, 10);
            let bottom = bottom_k(ctx, &part, 10);
            (top, bottom)
        });
        let (top, bottom) = &report.results[0];
        let top = top.as_ref().unwrap();
        let bottom = bottom.as_ref().unwrap();
        let mut expect_top: Vec<u64> = expect[expect.len() - 10..].to_vec();
        expect_top.reverse();
        assert_eq!(top, &expect_top);
        assert_eq!(bottom, &expect[..10].to_vec());
        // Non-masters get None.
        assert!(report.results[1].0.is_none());
    }

    #[test]
    fn machines_containing_duplicate_straddle() {
        // All-equal data spreads one key across every machine.
        let machines = 4;
        let parts: Vec<Vec<u64>> = (0..machines).map(|_| vec![5u64; 500]).collect();
        let cluster = Cluster::new(ClusterConfig::new(machines));
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| {
            let part = sorter.sort(ctx, parts[ctx.id()].clone());
            GlobalIndex::build(ctx, &part).machines_containing(&5)
        });
        assert_eq!(report.results[0], vec![0, 1, 2, 3]);
    }

    #[test]
    fn verify_accepts_sorted_and_rejects_shuffled() {
        let (_, cluster, parts) = sorted_fixture(3, 3000);
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| {
            let part = sorter.sort(ctx, parts[ctx.id()].clone());
            let ok = verify_globally_sorted(ctx, &part);

            // Sabotage: swap the global order by giving machine 0 the
            // biggest keys (simulated by reversing ranges via Desc-less
            // trick: just hand machines each other's slices reversed).
            let broken = SortedPartition {
                data: part.data.iter().rev().copied().collect(),
                splitters: part.splitters.clone(),
            };
            let bad_local = verify_globally_sorted(ctx, &broken);
            (ok, bad_local)
        });
        for &(ok, bad) in &report.results {
            assert!(ok);
            assert!(!bad, "reversed local slices must fail verification");
        }
    }

    #[test]
    fn fetch_payloads_pulls_correct_values() {
        let machines = 4;
        let keys = pgxd_datagen::generate_partitioned(Distribution::Exponential, 6000, machines, 77);
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
        let sorter = DistSorter::default();
        let keys_ref = &keys;
        let report = cluster.run(|ctx| {
            // payload[i] = hash of (machine, i): unique per origin slot.
            let payloads: Vec<u64> = (0..keys_ref[ctx.id()].len() as u64)
                .map(|i| (ctx.id() as u64) << 32 | i)
                .collect();
            let part = sorter.sort_keyed(ctx, &keys_ref[ctx.id()]);
            let fetched = crate::api::fetch_payloads(ctx, &part.data, &payloads);
            (part.data, fetched)
        });
        let mut seen = 0;
        for (items, fetched) in &report.results {
            assert_eq!(items.len(), fetched.len());
            for (item, &payload) in items.iter().zip(fetched) {
                // The fetched payload identifies exactly the origin slot.
                assert_eq!(payload, (item.origin as u64) << 32 | item.index);
                seen += 1;
            }
        }
        assert_eq!(seen, 6000);
    }

    #[test]
    fn fetch_payloads_empty_items() {
        let cluster = Cluster::new(ClusterConfig::new(3));
        let report = cluster.run(|ctx| {
            let payloads = vec![1u64, 2, 3];
            crate::api::fetch_payloads::<u64, u64>(ctx, &[], &payloads)
        });
        assert!(report.results.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn select_rank_matches_flat_sort() {
        let (expect, cluster, parts) = sorted_fixture(4, 4000);
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| {
            let part = sorter.sort(ctx, parts[ctx.id()].clone());
            let first = select_rank(ctx, &part, 0);
            let mid = select_rank(ctx, &part, 2000);
            let last = select_rank(ctx, &part, 3999);
            let beyond = select_rank(ctx, &part, 4000);
            (first, mid, last, beyond)
        });
        for &(first, mid, last, beyond) in &report.results {
            assert_eq!(first, Some(expect[0]));
            assert_eq!(mid, Some(expect[2000]));
            assert_eq!(last, Some(expect[3999]));
            assert_eq!(beyond, None);
        }
    }

    #[test]
    fn quantiles_are_order_statistics() {
        let (expect, cluster, parts) = sorted_fixture(3, 6000);
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| {
            let part = sorter.sort(ctx, parts[ctx.id()].clone());
            global_quantiles(ctx, &part, 4)
        });
        let quartiles = &report.results[0];
        assert_eq!(quartiles.len(), 3);
        assert_eq!(quartiles[0], expect[1500]);
        assert_eq!(quartiles[1], expect[3000]);
        assert_eq!(quartiles[2], expect[4500]);
        // Same answer everywhere.
        assert!(report.results.iter().all(|r| r == quartiles));
    }

    #[test]
    fn histogram_counts_everything() {
        let (expect, cluster, parts) = sorted_fixture(3, 5000);
        let sorter = DistSorter::default();
        let lo = expect[0];
        let hi = *expect.last().unwrap();
        let report = cluster.run(|ctx| {
            let part = sorter.sort(ctx, parts[ctx.id()].clone());
            global_histogram(ctx, &part, lo, hi, 16)
        });
        let hist = &report.results[0];
        assert_eq!(hist.len(), 16);
        assert_eq!(hist.iter().sum::<u64>(), 5000);
        // Uniform keys spread across buckets.
        assert!(hist.iter().filter(|&&c| c > 0).count() >= 12);
    }

    #[test]
    fn top_k_larger_than_data() {
        let (expect, cluster, parts) = sorted_fixture(2, 50);
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| {
            let part = sorter.sort(ctx, parts[ctx.id()].clone());
            top_k(ctx, &part, 1000)
        });
        let top = report.results[0].as_ref().unwrap();
        assert_eq!(top.len(), 50);
        let mut exp = expect.clone();
        exp.reverse();
        assert_eq!(top, &exp);
    }
}
