//! The user-facing query API on top of a finished sort (§IV: "This
//! sorting library also provides an API for the users to implement a
//! binary search on data as well as finding information regards to the
//! previous processors ... such as retrieving top values from their graph
//! data or implementing binary search on the sorted data").

use crate::sorter::SortedPartition;
use crate::stats::RangeStats;
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
        let summary: Vec<(usize, Option<(K, K)>)> =
            vec![(part.len(), part.range().map(|(a, b)| (*a, *b)))];
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

/// Collective quantiles: the keys at the `q`-quantile boundaries
/// (`1/q, 2/q, …, (q-1)/q` of the global rank space), delivered to every
/// machine. Empty when the data is empty or `q < 2`.
pub fn global_quantiles<K: Key>(
    ctx: &mut MachineCtx,
    part: &SortedPartition<K>,
    q: usize,
) -> Vec<K> {
    if q < 2 {
        // Every machine returns here, so no collective is left unmatched.
        return Vec::new();
    }
    select_ranks(ctx, part, |total| (1..q).map(|j| j * total / q).collect())
}

/// The keys at the ascending global ranks `ranks(total)` that fall below
/// the total, delivered to every machine. One all-gather of the counts
/// places each machine's slice in the global order; in a second, each
/// machine contributes the keys of the ranks it holds, so the rows
/// concatenate in rank order.
fn select_ranks<K: Key>(
    ctx: &mut MachineCtx,
    part: &SortedPartition<K>,
    ranks: impl FnOnce(usize) -> Vec<usize>,
) -> Vec<K> {
    let counts: Vec<usize> = ctx
        .all_gather(vec![part.len()])
        .into_iter()
        .map(|v| v[0])
        .collect();
    let base: usize = counts[..ctx.id()].iter().sum();
    let held = base..base + part.len();
    let mine: Vec<K> = ranks(counts.iter().sum())
        .into_iter()
        .filter(|r| held.contains(r))
        .map(|r| part.data[r - base])
        .collect();
    ctx.all_gather(mine).concat()
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
    // ⌈(hi − lo + 1) / buckets⌉ = ⌊(hi − lo) / buckets⌋ + 1, in u128 so
    // that the full u64 range in one bucket does not overflow.
    let width = u128::from(hi - lo) / buckets as u128 + 1;
    let mut local = vec![0u64; buckets];
    for &k in &part.data {
        let b = (u128::from(k.saturating_sub(lo)) / width).min(buckets as u128 - 1) as usize;
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
    let (sorted, ranges): (Vec<bool>, Vec<Option<(K, K)>>) = ctx
        .all_gather(vec![(locally_sorted, range)])
        .into_iter()
        .map(|v| v[0])
        .unzip();
    sorted.iter().all(|&ok| ok) && RangeStats::new(ranges).is_ascending()
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

    fn sorted_fixture(machines: usize, n: usize) -> (Vec<u64>, Cluster, Vec<Vec<u64>>) {
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

            // Every slice sorted, but the machine ranges descend with id:
            // only the cross-machine clause can reject this.
            let base = (ctx.num_machines() - 1 - ctx.id()) as u64 * 1000;
            let descending = SortedPartition {
                data: (base..base + 10).collect(),
                splitters: part.splitters.clone(),
            };
            let bad_ranges = verify_globally_sorted(ctx, &descending);
            (ok, bad_local, bad_ranges)
        });
        for &(ok, bad_local, bad_ranges) in &report.results {
            assert!(ok);
            assert!(!bad_local, "reversed local slices must fail verification");
            assert!(
                !bad_ranges,
                "descending machine ranges must fail verification"
            );
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
    fn histogram_buckets_have_equal_width() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        let report = cluster.run(|ctx| {
            let keys: Vec<u64> = (0..=31).filter(|k| k % 2 == ctx.id() as u64).collect();
            let full = [0, 7, u64::MAX]
                .into_iter()
                .filter(|_| ctx.id() == 0)
                .collect();
            let halves = SortedPartition {
                data: keys,
                splitters: vec![],
            };
            let whole = SortedPartition {
                data: full,
                splitters: vec![],
            };
            (
                global_histogram(ctx, &halves, 0, 31, 16),
                global_histogram(ctx, &whole, 0, u64::MAX, 1),
            )
        });
        let (halves, whole) = &report.results[0];
        // Width 2: keys 0..=31 fill each of the 16 buckets with two, and
        // `hi` itself lands in the last one.
        assert_eq!(halves, &vec![2; 16]);
        assert_eq!(whole, &vec![3]);
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
