//! The duplicate-splitter **investigator** (§IV-B, Fig. 3) — the paper's
//! load-balancing contribution.
//!
//! Step 4 turns the `p − 1` splitters into `p` contiguous send ranges of
//! the locally sorted data. With distinct splitters a binary search per
//! splitter suffices (Fig. 3a). When the input contains many duplicated
//! entries the splitters themselves repeat, and the naive search maps the
//! whole run of equal keys to one destination while the destinations
//! "between" equal splitters receive nothing (Fig. 3b) — the imbalance the
//! paper measures.
//!
//! The investigator (Fig. 3c) executes the binary search once per
//! *distinct* splitter value and divides the equal-key run among the
//! destinations the duplicated splitter spans. The division is anchored
//! at the regular positions `(j+1)·len/p` (clamped into the run): when
//! the duplicated splitters fall wholly inside one value's run — the
//! Fig. 3c picture — consecutive cuts are exactly `len/p` apart, i.e.
//! the range is divided *equally* between the duplicated splitters, and
//! the cuts also coincide with the ideal global quantile boundaries.
//! Anchoring (rather than naive equal division of the run) matters when
//! two duplicate groups are adjacent and share a destination: equal
//! division would hand that destination the tail of one run *plus* the
//! head of the next, re-creating imbalance. Because splitters are drawn
//! at regular sample positions, every machine cuts at the same
//! fractions, and the global share of the duplicated key comes out even
//! — this is what produces the "exact equal sized 9.998%" rows of
//! Table II.

use pgxd_algos::search::{lower_bound, upper_bound};
use pgxd_algos::Key;

/// Computes the `p + 1` send offsets for sorted `data` under sorted
/// `splitters` (`p − 1` of them), with duplicate-splitter investigation.
///
/// Destination `j` receives `data[offsets[j]..offsets[j+1]]`.
pub fn splitter_offsets_investigated<K: Key>(data: &[K], splitters: &[K]) -> Vec<usize> {
    debug_assert!(data.windows(2).all(|w| w[0] <= w[1]), "data must be sorted");
    debug_assert!(
        splitters.windows(2).all(|w| w[0] <= w[1]),
        "splitters must be sorted"
    );
    let p = splitters.len() + 1;
    let mut offsets = vec![0usize; p + 1];
    offsets[p] = data.len();

    let mut i = 0;
    while i < splitters.len() {
        let value = splitters[i];
        // Count the run of equal splitters [i, i + m).
        let mut m = 1;
        while i + m < splitters.len() && splitters[i + m] == value {
            m += 1;
        }
        // One equal-range search per distinct splitter value; its
        // boundaries are then cut at the regular targets (j+1)·len/p,
        // clamped into the run. For a splitter whose value is (locally)
        // unique the run is a single slot and the clamp reproduces the
        // plain binary search of Fig. 3a; for a duplicated splitter the
        // consecutive targets divide the run equally between the
        // duplicates (Fig. 3c); and for a *distinct* splitter sitting on
        // a massive equal-key run the clamp still cuts the run at the
        // ideal boundary instead of shipping it wholesale — the same
        // investigation, applied once instead of m times.
        let lo = lower_bound(data, &value);
        let hi = upper_bound(data, &value);
        for k in 0..m {
            let j = i + k; // boundary between destinations j and j+1
            let ideal = (j + 1) * data.len() / p;
            offsets[j + 1] = ideal.clamp(lo, hi);
        }
        // Destination i+m's upper boundary is set by the next distinct
        // splitter (or the end of data); its share of the run is the
        // remainder above offsets[i+m].
        i += m;
    }
    // Monotonicity can only break if splitters were unsorted (guarded by
    // the debug assertion); cheap final check in debug builds.
    debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "{offsets:?}");
    offsets
}

/// Dispatch helper: investigated or naive (Fig. 3b) offsets. The naive
/// path exists as the ablation baseline.
pub fn splitter_offsets<K: Key>(data: &[K], splitters: &[K], investigator: bool) -> Vec<usize> {
    if investigator {
        splitter_offsets_investigated(data, splitters)
    } else {
        pgxd_algos::search::naive_splitter_offsets(data, splitters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_tiles(data: &[u64], offsets: &[usize], p: usize) {
        assert_eq!(offsets.len(), p + 1);
        assert_eq!(offsets[0], 0);
        assert_eq!(offsets[p], data.len());
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn distinct_splitters_match_naive() {
        let data: Vec<u64> = (0..100).collect();
        let splitters = vec![24u64, 49, 74];
        let inv = splitter_offsets_investigated(&data, &splitters);
        let naive = pgxd_algos::search::naive_splitter_offsets(&data, &splitters);
        assert_eq!(inv, naive);
        check_tiles(&data, &inv, 4);
    }

    #[test]
    fn all_equal_data_all_equal_splitters_balances() {
        // The Fig. 3b pathology: every key identical, every splitter
        // identical. Naive sends everything to destination 0; the
        // investigator spreads it evenly.
        let data = vec![42u64; 1000];
        let splitters = vec![42u64; 7]; // p = 8
        let inv = splitter_offsets_investigated(&data, &splitters);
        check_tiles(&data, &inv, 8);
        let shares: Vec<usize> = inv.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(shares, vec![125; 8]);

        let naive = pgxd_algos::search::naive_splitter_offsets(&data, &splitters);
        let naive_shares: Vec<usize> = naive.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(naive_shares[0], 1000); // the imbalance the paper shows
        assert!(naive_shares[1..].iter().all(|&s| s == 0));
    }

    #[test]
    fn figure_3c_partial_duplication() {
        // Splitters: [3, 7, 7, 7, 12] over data with a heavy run of 7s.
        let mut data = vec![1u64, 2, 3, 4, 5];
        data.extend(vec![7u64; 60]);
        data.extend(vec![13u64, 14, 15]);
        let splitters = vec![3u64, 7, 7, 7, 12];
        let off = splitter_offsets_investigated(&data, &splitters);
        check_tiles(&data, &off, 6);
        // dest 0: keys <= 3 → 3 elems.
        assert_eq!(off[1], 3);
        // The duplicated 7-splitters (boundaries 1,2,3) cut the 60-long
        // run of 7s (positions 5..65) at the regular targets
        // (j+1)·68/6 = 22, 34, 45 — all inside [5, 65].
        assert_eq!(&off[2..5], &[22, 34, 45]);
        // All 7s plus the (3,7) keys 4 and 5 land on dests 1..=4.
        let total_run: usize = (1..5).map(|j| off[j + 1] - off[j]).sum();
        assert_eq!(total_run, 62); // 60 sevens + keys 4,5
    }

    #[test]
    fn duplicated_splitters_with_no_matching_data() {
        // Splitters repeat a value absent from this machine's data: the
        // equal range is empty; offsets collapse to the insertion point.
        let data: Vec<u64> = (0..50).map(|x| x * 2).collect(); // evens
        let splitters = vec![31u64, 31, 31];
        let off = splitter_offsets_investigated(&data, &splitters);
        check_tiles(&data, &off, 4);
        assert_eq!(off[1], 16);
        assert_eq!(off[2], 16);
        assert_eq!(off[3], 16);
    }

    #[test]
    fn empty_data() {
        let off = splitter_offsets_investigated::<u64>(&[], &[5, 5, 9]);
        assert_eq!(off, vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn no_splitters_single_destination() {
        let data = vec![3u64, 1 + 2];
        let off = splitter_offsets_investigated(&data, &[]);
        assert_eq!(off, vec![0, 2]);
    }

    #[test]
    fn mixed_duplicate_groups() {
        // Two separate duplicate groups plus distinct splitters.
        let mut data = Vec::new();
        data.extend(vec![2u64; 30]);
        data.extend(vec![5u64; 30]);
        data.extend(60..100u64);
        let splitters = vec![2u64, 2, 5, 5, 70];
        let off = splitter_offsets_investigated(&data, &splitters);
        check_tiles(&data, &off, 6);
        // Group of 2s (run [0,30)): cuts at targets 100/6 = 16 and
        // 2·100/6 = 33 clamped to 30. Group of 5s (run [30,60)): cuts at
        // 50 and 66 clamped to 60.
        assert_eq!(off[1], 16);
        assert_eq!(off[2], 30);
        assert_eq!(off[3], 50);
        assert_eq!(off[4], 60);
        // dest 4 keeps (5,70] keys; dest 5 the tail.
        assert_eq!(off[5], 60 + upper_bound(&data[60..], &70));
    }

    #[test]
    fn dispatch_respects_flag() {
        let data = vec![9u64; 100];
        let splitters = vec![9u64; 3];
        let on = splitter_offsets(&data, &splitters, true);
        let off = splitter_offsets(&data, &splitters, false);
        assert_ne!(on, off);
        assert_eq!(on, splitter_offsets_investigated(&data, &splitters));
    }
}
