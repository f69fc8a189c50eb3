//! Regular sampling and splitter selection (§IV steps 2–3).
//!
//! Each machine picks evenly spaced samples from its *sorted* local data
//! and sends them to the master; the master picks `p − 1` splitters at
//! regular positions of the merged sample sequence — which it never builds:
//! a splitter is an order statistic of the `p` sorted sample runs, read off
//! their k-way co-rank ([`multi_co_ranks`]).
//!
//! Sample *quantity* is a budget and a floor. The budget is the buffer-sized
//! rule in [`SortConfig`](crate::config::SortConfig): the paper sizes the
//! sample to the master's read buffer, a rule it derived for 10⁹ keys. The
//! floor is `MIN_SAMPLE_STRIDE`: a shard is never sampled more densely than
//! one key in eight, because past that point the "samples" are the data (at
//! 2¹⁶ keys on four machines the budget alone would ship every second key to
//! the master). The floor binds on a shard of fewer than eight budgets'
//! keys — with even shards, when the whole dataset is smaller than eight read
//! buffers (`n · size_of::<K>() < 8 · buffer_bytes`, 2 MiB at the default).
//! Where it binds its cost is bounded whatever `n` is: the stride stays at
//! most eight keys, regular sampling misses a splitter's global rank by at
//! most one stride per machine, and so no machine ends more than
//! `p · MIN_SAMPLE_STRIDE` keys (plus the rounding of `p` positions) off
//! `n/p`.

use pgxd_algos::search::multi_co_ranks;
use pgxd_algos::Key;

/// The densest a shard is ever sampled: one key in this many.
const MIN_SAMPLE_STRIDE: usize = 8;

/// Picks evenly spaced samples from sorted `data`: `budget` of them, or one
/// per `MIN_SAMPLE_STRIDE` keys (rounded up, so a non-empty shard yields at
/// least one) where that is fewer. The `i`-th of `count` samples is
/// `data[(i+1)·n/(count+1)]`: interior points, never index `n`.
pub fn select_regular_samples<K: Key>(data: &[K], budget: usize) -> Vec<K> {
    let n = data.len();
    let count = budget.min(n.div_ceil(MIN_SAMPLE_STRIDE));
    // ⌊(i+1)·n/(count+1)⌋ for i = 0, 1, … by carrying quotient and remainder
    // from one position to the next: one division per call, not per sample.
    let (step, step_rem) = (n / (count + 1), n % (count + 1));
    let (mut pos, mut rem) = (0, 0);
    (0..count)
        .map(|_| {
            pos += step;
            rem += step_rem;
            if rem > count {
                rem -= count + 1;
                pos += 1;
            }
            data[pos]
        })
        .collect()
}

/// Master-side: selects the `p − 1` final splitters at regular positions of
/// the stable merge of the per-machine sorted sample runs (ties take the
/// lower run), without merging them. Empty when there are no samples at all
/// (degenerate tiny inputs) — the partitioner then routes everything to
/// machine 0.
pub fn select_splitters<K: Key>(sample_runs: &[Vec<K>], p: usize) -> Vec<K> {
    let runs: Vec<&[K]> = sample_runs.iter().map(|r| r.as_slice()).collect();
    let m: usize = runs.iter().map(|r| r.len()).sum();
    if m == 0 || p <= 1 {
        return Vec::new();
    }
    // Position (j+1)·m/p for the j-th splitter; strictly < m.
    let ranks: Vec<usize> = (0..p - 1).map(|j| (j + 1) * m / p).collect();
    multi_co_ranks(&runs, &ranks)
        .iter()
        .map(|cuts| {
            // What the merge holds at a position is the smallest head past
            // that position's cuts, the lowest run's on ties (`min` keeps
            // the first) — the same item, payload included.
            let heads = runs.iter().zip(cuts).filter_map(|(run, &cut)| run.get(cut));
            *heads.min().expect("a rank below m leaves a head")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistSorter;
    use pgxd::cluster::{Cluster, ClusterConfig};
    use pgxd_datagen::cases::check;

    #[test]
    fn samples_are_evenly_spaced_and_sorted() {
        let data: Vec<u64> = (0..1000).collect();
        let s = select_regular_samples(&data, 9);
        assert_eq!(s.len(), 9);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        // Roughly deciles.
        assert_eq!(s[0], 100);
        assert_eq!(s[8], 900);
    }

    #[test]
    fn samples_clamped_to_data_len() {
        // The budget is a ceiling; the floor of one key in eight decides.
        let data = vec![1u64, 2, 3];
        assert_eq!(select_regular_samples(&data, 10), [2]);
        assert!(select_regular_samples(&data, 0).is_empty());
        for (keys, samples) in [(0u64, 0), (1, 1), (7, 1), (8, 1), (9, 2)] {
            let shard: Vec<u64> = (0..keys).collect();
            assert_eq!(
                select_regular_samples(&shard, 5).len(),
                samples,
                "{keys} keys"
            );
        }
        // One sample a machine is enough for p − 1 splitters: shards under
        // one stride are still partitioned, not routed to machine 0 whole.
        let machines = 4;
        let shards: Vec<Vec<u64>> = (0..machines as u64)
            .map(|m| (0..5).map(|i| (i * 4 + m) * 37 % 101).collect())
            .collect();
        let mut expect = shards.concat();
        expect.sort_unstable();
        let report = Cluster::new(ClusterConfig::new(machines))
            .run(|ctx| DistSorter::default().sort(ctx, shards[ctx.id()].clone()));
        let parts = &report.results;
        assert!(parts
            .iter()
            .all(|part| part.splitters.len() == machines - 1));
        assert_eq!(
            parts
                .iter()
                .flat_map(|part| part.data.clone())
                .collect::<Vec<_>>(),
            expect
        );
        assert!(parts[0].len() < expect.len(), "everything on machine 0");
    }

    /// The quotient/remainder walk lands on the positions the division gives.
    #[test]
    fn sample_positions_are_the_divided_ones() {
        // data[i] = i, so a sample is its own position.
        let expect_positions = |n: usize, budget: usize| {
            let data: Vec<usize> = (0..n).collect();
            let got = select_regular_samples(&data, budget);
            let count = got.len();
            let expect: Vec<usize> = (0..count).map(|i| (i + 1) * n / (count + 1)).collect();
            assert_eq!(got, expect, "n={n} budget={budget}");
        };
        for n in 0..=300 {
            for budget in 0..=n + 2 {
                expect_positions(n, budget);
            }
        }
        expect_positions(1 << 20, 8192);
        expect_positions(16_384, 2048);
        expect_positions(16_384, 8192);
    }

    /// Where the floor binds, the guarantee it leaves: with distinct keys and
    /// equal shards every machine ends within a stride per machine (and the
    /// rounding of `p` positions) of `n/p`, however the keys were dealt.
    #[test]
    fn floor_keeps_every_machine_within_a_stride_per_machine() {
        let key_bytes = std::mem::size_of::<u64>();
        let buffer_bytes = pgxd::DEFAULT_BUFFER_BYTES;
        let sorter = DistSorter::default();
        for machines in [2usize, 3, 4, 8] {
            let budget = sorter
                .config()
                .samples_per_machine(buffer_bytes, machines, key_bytes);
            let slack = machines * MIN_SAMPLE_STRIDE + machines;
            for shard in [64usize, 1000, 16_384] {
                assert!(
                    shard.div_ceil(MIN_SAMPLE_STRIDE) < budget,
                    "the floor must bind"
                );
                check(2, |g| {
                    // Distinct keys dealt round-robin, in blocks of
                    // consecutive keys, or hashed (an odd multiplier
                    // permutes u64).
                    for (blocked, mul) in [(false, 1), (true, 1), (false, g.u64() | 1)] {
                        let key = |m: usize, i: usize| match blocked {
                            true => m * shard + i,
                            false => i * machines + m,
                        };
                        let shards: Vec<Vec<u64>> = (0..machines)
                            .map(|m| {
                                (0..shard)
                                    .map(|i| mul.wrapping_mul(key(m, i) as u64))
                                    .collect()
                            })
                            .collect();
                        let sizes = Cluster::new(ClusterConfig::new(machines))
                            .run(|ctx| sorter.sort(ctx, shards[ctx.id()].clone()).len())
                            .results;
                        assert!(
                            sizes.iter().all(|len| len.abs_diff(shard) <= slack),
                            "p={machines} shard={shard} mul={mul:#x} blocked={blocked}: {sizes:?}"
                        );
                    }
                });
            }
        }
    }

    #[test]
    fn splitters_quartile_positions() {
        // Two runs covering 0..100; 4 machines → 3 splitters near quartiles.
        let run_a: Vec<u64> = (0..100).step_by(2).collect();
        let run_b: Vec<u64> = (1..100).step_by(2).collect();
        let s = select_splitters(&[run_a, run_b], 4);
        assert_eq!(s.len(), 3);
        assert!((20..30).contains(&s[0]), "{s:?}");
        assert!((45..55).contains(&s[1]), "{s:?}");
        assert!((70..80).contains(&s[2]), "{s:?}");
    }

    #[test]
    fn splitters_duplicate_heavy_runs_can_repeat() {
        // Heavily duplicated samples ⇒ duplicated splitters (the case the
        // investigator exists for).
        let runs: Vec<Vec<u64>> = (0..4).map(|_| vec![7u64; 50]).collect();
        let s = select_splitters(&runs, 8);
        assert_eq!(s.len(), 7);
        assert!(s.iter().all(|&x| x == 7));
    }

    #[test]
    fn splitters_degenerate_inputs() {
        assert!(select_splitters::<u64>(&[], 4).is_empty());
        assert!(select_splitters::<u64>(&[vec![], vec![]], 4).is_empty());
        assert!(select_splitters(&[vec![1u64, 2, 3]], 1).is_empty());
    }

    /// A sample as `sort_records` ships it: ordered (and equal) by the key
    /// alone, so which of several equal samples becomes the splitter shows
    /// only in the payload — `(run, position)` here.
    type Sample = crate::sorter::KeyedRecord<u64, (usize, usize)>;

    /// Step 3 as the paper words it — merge the sample runs, index the
    /// merged array at `(j+1)·m/p` — which the selection must reproduce item
    /// for item, payload included.
    #[test]
    fn splitters_are_the_merged_samples_at_regular_positions() {
        let mut x: u64 = 0x1234_5678_9abc_def1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut cells = 0;
        for p in 2usize..=16 {
            for modulus in [1u64, 3, 300, u64::MAX] {
                // Run lengths: mixed with empty runs, fewer samples than
                // machines (m < p), and more or fewer runs than machines.
                for (run_count, max_len) in [(p, 40), (p, 2), (p / 2, 1), (p + 3, 25)] {
                    let runs: Vec<Vec<Sample>> = (0..run_count)
                        .map(|run| {
                            let len = next() as usize % (max_len + 1);
                            let mut keys: Vec<u64> = (0..len).map(|_| next() % modulus).collect();
                            keys.sort_unstable();
                            let tag = |(pos, key)| Sample {
                                key,
                                record: (run, pos),
                            };
                            keys.into_iter().enumerate().map(tag).collect()
                        })
                        .collect();
                    let refs: Vec<&[Sample]> = runs.iter().map(|r| r.as_slice()).collect();
                    let merged = pgxd_algos::kway::kway_merge(&refs);
                    let m = merged.len();
                    let expect: Vec<(u64, (usize, usize))> = (0..p - 1)
                        .filter(|_| m > 0)
                        .map(|j| merged[(j + 1) * m / p])
                        .map(|s| (s.key, s.record))
                        .collect();
                    let got: Vec<(u64, (usize, usize))> = select_splitters(&runs, p)
                        .iter()
                        .map(|s| (s.key, s.record))
                        .collect();
                    assert_eq!(got, expect, "p={p} modulus={modulus} m={m}");
                    cells += usize::from(m > 0);
                }
            }
        }
        assert!(cells > 200, "only {cells} non-empty cells");
    }

    #[test]
    fn splitters_sorted() {
        let runs = vec![vec![5u64, 20, 90], vec![1u64, 30, 60], vec![10u64, 40, 80]];
        let s = select_splitters(&runs, 5);
        assert_eq!(s.len(), 4);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
    }
}
