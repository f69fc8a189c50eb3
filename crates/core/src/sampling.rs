//! Regular sampling and splitter selection (§IV steps 2–3).
//!
//! Each machine picks evenly spaced samples from its *sorted* local data
//! and sends them to the master; the master picks `p − 1` splitters at
//! regular positions of the merged sample sequence — which it never builds:
//! a splitter is an order statistic of the `p` sorted sample runs, read off
//! their k-way co-rank ([`multi_co_ranks`]). Sample *quantity* follows the
//! buffer-sized rule in [`SortConfig`](crate::config::SortConfig).

use pgxd_algos::search::multi_co_ranks;
use pgxd_algos::Key;

/// Picks `count` evenly spaced samples from sorted `data`. Returns fewer
/// (possibly zero) when the data is shorter than requested.
// analyze: allow(hot-path-alloc): O(s) sample vector, produced once per
// sampling round and shipped to the master.
pub fn select_regular_samples<K: Key>(data: &[K], count: usize) -> Vec<K> {
    let n = data.len();
    let count = count.min(n);
    if count == 0 {
        return Vec::new();
    }
    // Positions (i+1)·n/(count+1): interior points, never index n.
    (0..count).map(|i| data[(i + 1) * n / (count + 1)]).collect()
}

/// Master-side: selects the `p − 1` final splitters at regular positions of
/// the stable merge of the per-machine sorted sample runs (ties take the
/// lower run), without merging them. Empty when there are no samples at all
/// (degenerate tiny inputs) — the partitioner then routes everything to
/// machine 0.
// analyze: allow(hot-path-alloc): the p − 1 ranks and their O(p²) cut
// vectors on the master, once per run; the splitter vector is the product.
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
        let data = vec![1u64, 2, 3];
        assert_eq!(select_regular_samples(&data, 10).len(), 3);
        assert!(select_regular_samples::<u64>(&[], 5).is_empty());
        assert!(select_regular_samples(&data, 0).is_empty());
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
