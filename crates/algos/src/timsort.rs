//! A from-scratch TimSort for `Copy` keys.
//!
//! Spark's `sortByKey` sorts partitions with TimSort (paper §II), so the
//! Spark-sim baseline needs a faithful implementation: natural-run
//! detection (strictly descending runs are reversed), binary-insertion
//! bulking of short runs up to the computed min-run, a run stack with the
//! (corrected) merge invariants, and galloping merges with the adaptive
//! `MIN_GALLOP` threshold. Stable.

use crate::insertion::binary_insertion_sort;
use crate::search::{gallop_left, gallop_right};

/// Runs shorter than this are extended by binary insertion.
pub const MIN_MERGE: usize = 32;

/// Initial threshold of consecutive one-run wins before switching a merge
/// into galloping mode.
pub const MIN_GALLOP: usize = 7;

/// Sorts `data` in place with TimSort. Stable.
// One merge-run stack per sort call, bounded by log(n) pending runs.
pub fn timsort<T: Ord + Copy>(data: &mut [T]) {
    let len = data.len();
    if len < 2 {
        return;
    }
    if len < MIN_MERGE {
        // One natural run + binary insertion: the classic small-array path.
        let run = count_run_make_ascending(data);
        binary_insertion_sort(data, run);
        return;
    }

    let min_run = min_run_length(len);
    let mut state = TimState {
        runs: Vec::with_capacity(40),
        min_gallop: MIN_GALLOP,
        tmp: Vec::new(),
    };

    let mut lo = 0;
    while lo < len {
        let mut run_len = count_run_make_ascending(&mut data[lo..]);
        if run_len < min_run {
            let force = min_run.min(len - lo);
            binary_insertion_sort(&mut data[lo..lo + force], run_len);
            run_len = force;
        }
        state.runs.push(Run {
            base: lo,
            len: run_len,
        });
        state.merge_collapse(data);
        lo += run_len;
    }
    state.merge_force_collapse(data);
    debug_assert_eq!(state.runs.len(), 1);
    debug_assert_eq!(state.runs[0].len, len);
}

/// Computes the minimum run length for an input of `n` elements: a number
/// in `[MIN_MERGE/2, MIN_MERGE]` such that `n / min_run` is close to, but
/// no larger than, a power of two (Tim Peters' original heuristic).
pub fn min_run_length(mut n: usize) -> usize {
    debug_assert!(n >= MIN_MERGE);
    let mut r = 0;
    while n >= MIN_MERGE {
        r |= n & 1;
        n >>= 1;
    }
    n + r
}

/// Finds the length of the natural run starting at `data[0]`, reversing it
/// in place if it is strictly descending. Returns the run length (>= 1).
pub fn count_run_make_ascending<T: Ord + Copy>(data: &mut [T]) -> usize {
    let len = data.len();
    if len <= 1 {
        return len;
    }
    let mut end = 1;
    if data[1] < data[0] {
        // Strictly descending: extend while strictly decreasing, then
        // reverse. Strictness preserves stability.
        while end + 1 < len && data[end + 1] < data[end] {
            end += 1;
        }
        data[..=end].reverse();
    } else {
        while end + 1 < len && data[end + 1] >= data[end] {
            end += 1;
        }
    }
    end + 1
}

#[derive(Clone, Copy, Debug)]
struct Run {
    base: usize,
    len: usize,
}

struct TimState<T> {
    runs: Vec<Run>,
    min_gallop: usize,
    tmp: Vec<T>,
}

impl<T: Ord + Copy> TimState<T> {
    /// Restores the run-stack invariants by merging, per the corrected
    /// merge_collapse (checks the 3-run condition one level deeper to
    /// avoid the documented invariant violation in the original).
    fn merge_collapse(&mut self, data: &mut [T]) {
        while self.runs.len() > 1 {
            let mut n = self.runs.len() - 2;
            let ln = |i: usize| self.runs[i].len;
            if (n >= 1 && ln(n - 1) <= ln(n) + ln(n + 1))
                || (n >= 2 && ln(n - 2) <= ln(n - 1) + ln(n))
            {
                if ln(n - 1) < ln(n + 1) {
                    n -= 1;
                }
                self.merge_at(data, n);
            } else if ln(n) <= ln(n + 1) {
                self.merge_at(data, n);
            } else {
                break;
            }
        }
    }

    /// Merges everything down to a single run (end of input).
    fn merge_force_collapse(&mut self, data: &mut [T]) {
        while self.runs.len() > 1 {
            let mut n = self.runs.len() - 2;
            if n >= 1 && self.runs[n - 1].len < self.runs[n + 1].len {
                n -= 1;
            }
            self.merge_at(data, n);
        }
    }

    /// Merges stack runs `i` and `i+1`.
    fn merge_at(&mut self, data: &mut [T], i: usize) {
        let Run {
            base: mut base1,
            len: mut len1,
        } = self.runs[i];
        let Run {
            base: base2,
            len: mut len2,
        } = self.runs[i + 1];
        debug_assert!(len1 > 0 && len2 > 0);
        debug_assert_eq!(base1 + len1, base2);

        self.runs[i].len = len1 + len2;
        if i + 3 == self.runs.len() {
            self.runs[i + 1] = self.runs[i + 2];
        }
        self.runs.pop();

        // Trim: run1's prefix already <= run2[0] stays put...
        let k = gallop_right(&data[base2], &data[base1..base1 + len1]);
        base1 += k;
        len1 -= k;
        if len1 == 0 {
            return;
        }
        // ...and run2's suffix already >= run1's last element stays put.
        len2 = gallop_left(&data[base1 + len1 - 1], &data[base2..base2 + len2]);
        if len2 == 0 {
            return;
        }

        let region = &mut data[base1..base2 + len2];
        if len1 <= len2 {
            self.merge_lo(region, len1, len2);
        } else {
            self.merge_hi(region, len1, len2);
        }
    }

    /// Merge with run1 (the left, smaller run) buffered in `tmp`, filling
    /// the region front-to-back. `region[..len1]` is run1,
    /// `region[len1..]` is run2.
    fn merge_lo(&mut self, region: &mut [T], len1: usize, len2: usize) {
        debug_assert_eq!(region.len(), len1 + len2);
        self.tmp.clear();
        self.tmp.extend_from_slice(&region[..len1]);
        let tmp = &self.tmp;
        let end2 = len1 + len2;
        let mut i = 0; // cursor into tmp (run1)
        let mut j = len1; // cursor into region (run2)
        let mut d = 0; // destination cursor
        let mut min_gallop = self.min_gallop;

        'outer: loop {
            let mut count1 = 0; // consecutive run1 wins
            let mut count2 = 0; // consecutive run2 wins

            // Straight one-at-a-time mode.
            loop {
                if region[j] < tmp[i] {
                    region[d] = region[j];
                    d += 1;
                    j += 1;
                    count2 += 1;
                    count1 = 0;
                    if j == end2 {
                        break 'outer;
                    }
                    if count2 >= min_gallop {
                        break;
                    }
                } else {
                    region[d] = tmp[i];
                    d += 1;
                    i += 1;
                    count1 += 1;
                    count2 = 0;
                    if i == len1 {
                        break 'outer;
                    }
                    if count1 >= min_gallop {
                        break;
                    }
                }
            }

            // Galloping mode: bulk-copy winning streaks.
            loop {
                let c1 = gallop_right(&region[j], &tmp[i..len1]);
                if c1 > 0 {
                    region[d..d + c1].copy_from_slice(&tmp[i..i + c1]);
                    d += c1;
                    i += c1;
                    if i == len1 {
                        break 'outer;
                    }
                }
                let c2 = gallop_left(&tmp[i], &region[j..end2]);
                if c2 > 0 {
                    region.copy_within(j..j + c2, d);
                    d += c2;
                    j += c2;
                    if j == end2 {
                        break 'outer;
                    }
                }
                if c1 < MIN_GALLOP && c2 < MIN_GALLOP {
                    break;
                }
                min_gallop = min_gallop.saturating_sub(1);
            }
            min_gallop += 2; // penalize leaving gallop mode
        }
        self.min_gallop = min_gallop.max(1);

        if i < len1 {
            // Run2 exhausted: copy the rest of tmp. d + remaining == j-relative
            let rest = len1 - i;
            debug_assert_eq!(d + rest, end2);
            region[d..d + rest].copy_from_slice(&tmp[i..len1]);
        }
        // If run1 exhausted first, run2's tail is already in place.
    }

    /// Merge with run2 (the right, smaller run) buffered in `tmp`, filling
    /// the region back-to-front.
    fn merge_hi(&mut self, region: &mut [T], len1: usize, len2: usize) {
        debug_assert_eq!(region.len(), len1 + len2);
        self.tmp.clear();
        self.tmp.extend_from_slice(&region[len1..]);
        let tmp = &self.tmp;
        let mut rem1 = len1; // elements of run1 left (region[..rem1])
        let mut rem2 = len2; // elements of tmp left (tmp[..rem2])
        let mut d = len1 + len2; // one past next destination (fill backwards)
        let mut min_gallop = self.min_gallop;

        'outer: loop {
            let mut count1 = 0;
            let mut count2 = 0;

            loop {
                // Take run1's tail when strictly greater; ties go to run2
                // (the later run) so it lands later in the output.
                if region[rem1 - 1] > tmp[rem2 - 1] {
                    d -= 1;
                    region[d] = region[rem1 - 1];
                    rem1 -= 1;
                    count1 += 1;
                    count2 = 0;
                    if rem1 == 0 {
                        break 'outer;
                    }
                    if count1 >= min_gallop {
                        break;
                    }
                } else {
                    d -= 1;
                    region[d] = tmp[rem2 - 1];
                    rem2 -= 1;
                    count2 += 1;
                    count1 = 0;
                    if rem2 == 0 {
                        break 'outer;
                    }
                    if count2 >= min_gallop {
                        break;
                    }
                }
            }

            loop {
                // Elements of run1 strictly greater than tmp's tail move
                // as a block.
                let c1 = rem1 - gallop_right(&tmp[rem2 - 1], &region[..rem1]);
                if c1 > 0 {
                    region.copy_within(rem1 - c1..rem1, d - c1);
                    d -= c1;
                    rem1 -= c1;
                    if rem1 == 0 {
                        break 'outer;
                    }
                }
                // Elements of run2 >= run1's tail move as a block.
                let c2 = rem2 - gallop_left(&region[rem1 - 1], &tmp[..rem2]);
                if c2 > 0 {
                    region[d - c2..d].copy_from_slice(&tmp[rem2 - c2..rem2]);
                    d -= c2;
                    rem2 -= c2;
                    if rem2 == 0 {
                        break 'outer;
                    }
                }
                if c1 < MIN_GALLOP && c2 < MIN_GALLOP {
                    break;
                }
                min_gallop = min_gallop.saturating_sub(1);
            }
            min_gallop += 2;
        }
        self.min_gallop = min_gallop.max(1);

        if rem2 > 0 {
            // Run1 exhausted: the remaining tmp prefix fills the front.
            debug_assert_eq!(d, rem2);
            region[..rem2].copy_from_slice(&tmp[..rem2]);
        }
        // If run2 exhausted first, run1's prefix is already in place.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift_vec(seed: u64, n: usize, modulus: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % modulus
            })
            .collect()
    }

    fn check(mut v: Vec<u64>) {
        let mut expect = v.clone();
        expect.sort();
        timsort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_random_various_sizes() {
        for n in [0, 1, 2, 15, 31, 32, 33, 63, 64, 100, 1000, 10_000, 65_537] {
            check(xorshift_vec(0x1234, n, u64::MAX));
        }
    }

    #[test]
    fn sorts_heavy_duplicates() {
        for modulus in [1u64, 2, 3, 10] {
            check(xorshift_vec(0x777, 20_000, modulus));
        }
    }

    #[test]
    fn sorts_presorted_and_reverse() {
        check((0..100_000).collect());
        check((0..100_000).rev().collect());
    }

    #[test]
    fn sorts_sawtooth_and_organ_pipe() {
        let saw: Vec<u64> = (0..50_000).map(|i| (i % 123) as u64).collect();
        check(saw);
        let organ: Vec<u64> = (0..25_000).chain((0..25_000).rev()).collect();
        check(organ);
    }

    #[test]
    fn sorts_runs_of_runs() {
        // Concatenated ascending runs — TimSort's best case.
        let mut v = Vec::new();
        for chunk in 0..100 {
            v.extend((0..500u64).map(|i| i + chunk));
        }
        check(v);
    }

    #[test]
    fn min_run_length_bounds() {
        for n in [32usize, 33, 63, 64, 65, 127, 128, 1000, 1 << 20] {
            let mr = min_run_length(n);
            assert!(
                (MIN_MERGE / 2..=MIN_MERGE).contains(&mr),
                "min_run({n}) = {mr}"
            );
        }
        assert_eq!(min_run_length(MIN_MERGE), MIN_MERGE / 2);
    }

    #[test]
    fn count_run_detects_and_reverses() {
        let mut asc = vec![1, 2, 2, 3, 1];
        assert_eq!(count_run_make_ascending(&mut asc), 4);
        let mut desc = vec![5, 4, 3, 9];
        assert_eq!(count_run_make_ascending(&mut desc), 3);
        assert_eq!(desc, vec![3, 4, 5, 9]);
        let mut single = vec![7];
        assert_eq!(count_run_make_ascending(&mut single), 1);
    }

    #[test]
    fn stability_with_tagged_keys() {
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        struct Tagged(u32, u32); // (key, original position)
        impl PartialOrd for Tagged {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Tagged {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.cmp(&other.0) // key only: ties expose stability
            }
        }
        let raw = xorshift_vec(0xabcd, 50_000, 16);
        let mut v: Vec<Tagged> = raw
            .iter()
            .enumerate()
            .map(|(pos, &k)| Tagged(k as u32, pos as u32))
            .collect();
        timsort(&mut v);
        // Sorted by key, and within equal keys original order preserved.
        for w in v.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated: {:?} {:?}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn adversarial_merge_pattern() {
        // Alternating blocks force deep run-stack activity and galloping.
        let mut v = Vec::with_capacity(60_000);
        for b in 0..60 {
            if b % 2 == 0 {
                v.extend((0..1000u64).map(|i| i * 3));
            } else {
                v.extend((0..1000u64).rev().map(|i| i * 3 + 1));
            }
        }
        check(v);
    }
}
