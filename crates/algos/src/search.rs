//! Binary-search range utilities shared by the merges, splitter selection
//! (§IV step 3), the partitioning step (§IV step 4), and the
//! duplicate-splitter investigator: bounds, their galloping
//! (exponential-then-binary) forms for searches that expect to end near the
//! front, and the co-ranks that cut a merge at an output position without
//! merging — [`co_rank`] for two runs, [`multi_co_rank`] for `k`.

/// Index of the first element `>= key` in sorted `data` (0..=len).
pub fn lower_bound<T: Ord>(data: &[T], key: &T) -> usize {
    let mut lo = 0;
    let mut hi = data.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if data[mid] < *key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Index of the first element `> key` in sorted `data` (0..=len).
pub fn upper_bound<T: Ord>(data: &[T], key: &T) -> usize {
    let mut lo = 0;
    let mut hi = data.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if data[mid] <= *key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Exponential-then-binary search: number of elements of `arr` that are
/// `< key` (i.e. `lower_bound`), probing from the left.
pub fn gallop_left<T: Ord>(key: &T, arr: &[T]) -> usize {
    if arr.is_empty() || arr[0] >= *key {
        return 0;
    }
    // Invariant: arr[prev] < key.
    let mut prev = 0;
    let mut ofs = 1;
    while ofs < arr.len() && arr[ofs] < *key {
        prev = ofs;
        ofs = ofs.saturating_mul(2).saturating_add(1);
    }
    let hi = ofs.min(arr.len());
    prev + 1 + lower_bound(&arr[prev + 1..hi], key)
}

/// Exponential-then-binary search: number of elements of `arr` that are
/// `<= key` (i.e. `upper_bound`), probing from the left.
pub fn gallop_right<T: Ord>(key: &T, arr: &[T]) -> usize {
    if arr.is_empty() || arr[0] > *key {
        return 0;
    }
    let mut prev = 0;
    let mut ofs = 1;
    while ofs < arr.len() && arr[ofs] <= *key {
        prev = ofs;
        ofs = ofs.saturating_mul(2).saturating_add(1);
    }
    let hi = ofs.min(arr.len());
    prev + 1 + upper_bound(&arr[prev + 1..hi], key)
}

/// The stable co-rank of output position `r`: the `(i, j)` with
/// `i + j == r` such that the first `r` keys of the stable merge of sorted
/// `a` and `b` (ties take `a`) are exactly `a[..i]` and `b[..j]`.
///
/// `r` must not exceed `a.len() + b.len()`.
pub fn co_rank<T: Ord>(a: &[T], b: &[T], r: usize) -> (usize, usize) {
    assert!(r <= a.len() + b.len(), "rank past the merged length");
    // The smallest `i` whose next key `a[i]` has to wait for `b[r - i - 1]`,
    // i.e. is strictly greater: ties take `a`, so an equal `a[i]` goes first.
    // In range: `mid < hi <= a.len()`, and `r - mid - 1 < r - lo <= b.len()`.
    let mut lo = r.saturating_sub(b.len());
    let mut hi = r.min(a.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if a[mid] <= b[r - mid - 1] {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (lo, r - lo)
}

/// The stable k-way co-rank of output position `r`: the cuts `c` with
/// `c.iter().sum() == r` such that the first `r` keys of the stable merge of
/// the sorted `runs` (ties take the lower run) are exactly the
/// `runs[i][..c[i]]`.
///
/// `r` must not exceed the total length of the runs.
pub fn multi_co_rank<T: Ord>(runs: &[&[T]], r: usize) -> Vec<usize> {
    multi_co_ranks(runs, &[r])
        .pop()
        .expect("one rank in, one row of cuts out")
}

/// [`multi_co_rank`] of several ascending `ranks` at once: row `j` holds the
/// cuts of `ranks[j]`. Cuts never decrease with the rank, so the ranks are
/// solved middle-first and every solved row bounds the search of the ranks
/// on either side of it — on runs that barely overlap, where one rank alone
/// has to walk the runs one by one, that is what keeps `k − 1` ranks from
/// costing `k − 1` walks.
// The rows of cuts are the product, and the search keeps four more rows of
// working state — sized by the run and rank counts, never by the elements.
pub fn multi_co_ranks<T: Ord>(runs: &[&[T]], ranks: &[usize]) -> Vec<Vec<usize>> {
    let k = runs.len();
    let ends: Vec<usize> = runs.iter().map(|run| run.len()).collect();
    let total: usize = ends.iter().sum();
    assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "ranks must ascend");
    assert!(
        ranks.last().is_none_or(|&r| r <= total),
        "rank past the merged length"
    );
    let mut rows = vec![vec![0; k]; ranks.len()];
    let mut windows = Windows {
        lo: vec![0; k],
        hi: vec![0; k],
        cuts: vec![0; k],
        open: Vec::with_capacity(k),
    };
    co_ranks_between(runs, ranks, &mut rows, &vec![0; k], &ends, &mut windows);
    rows
}

/// The working state of one rank's search, allocated once for all ranks:
/// per run the window `lo[i]..=hi[i]` its cut is known to lie in and the cut
/// of the round's pivot, and the runs whose window is still `open` (wider
/// than one point), ascending.
struct Windows {
    lo: Vec<usize>,
    hi: Vec<usize>,
    cuts: Vec<usize>,
    open: Vec<usize>,
}

/// Solves `ranks` into `rows`, all of them between the cuts `lo` and `hi`
/// of a rank not above and a rank not below them: the middle rank first,
/// then each half between it and the bound it had.
fn co_ranks_between<T: Ord>(
    runs: &[&[T]],
    ranks: &[usize],
    rows: &mut [Vec<usize>],
    lo: &[usize],
    hi: &[usize],
    windows: &mut Windows,
) {
    let mid = ranks.len() / 2;
    let (before, rest) = rows.split_at_mut(mid);
    let Some((row, after)) = rest.split_first_mut() else {
        return;
    };
    co_rank_between(runs, ranks[mid], lo, hi, row, windows);
    co_ranks_between(runs, &ranks[..mid], before, lo, row, windows);
    co_ranks_between(runs, &ranks[mid + 1..], after, row, hi, windows);
}

/// The cuts of rank `r`, known to lie in `lo[i]..=hi[i]`, into `row`, by
/// bisection on keys. `lo` and `hi` are themselves the cuts of two ranks
/// `below <= r <= above`, and every round replaces one of them with the
/// cuts of a rank nearer `r`: the middle key of the widest window is ranked
/// in the stable merge — a run before its own counts its keys `<=` it, a
/// run after only those `<` — and because cuts never decrease with the rank
/// each of those counts is found by a search *inside* that run's window.
/// The widest window halves every round and the others close in with it; a
/// window that has closed to a point is not looked at again.
fn co_rank_between<T: Ord>(
    runs: &[&[T]],
    r: usize,
    lo: &[usize],
    hi: &[usize],
    row: &mut [usize],
    windows: &mut Windows,
) {
    let Windows {
        lo: lo_at,
        hi: hi_at,
        cuts,
        open,
    } = windows;
    lo_at.copy_from_slice(lo);
    hi_at.copy_from_slice(hi);
    let (mut below, mut above): (usize, usize) = (lo.iter().sum(), hi.iter().sum());
    debug_assert!(below <= r && r <= above);
    open.clear();
    open.extend((0..runs.len()).filter(|&i| lo[i] < hi[i]));
    while below < r && r < above {
        // `above - below` keys sit inside the windows, so the widest holds one.
        let (mut widest, mut width) = (0, 0);
        for &i in open.iter() {
            if hi_at[i] - lo_at[i] > width {
                (widest, width) = (i, hi_at[i] - lo_at[i]);
            }
        }
        let pivot = &runs[widest][lo_at[widest] + width / 2];
        // The pivot's own position in the merge, and the cuts that go with it.
        let mut rank = below;
        for &i in open.iter() {
            let window = &runs[i][lo_at[i]..hi_at[i]];
            let inside = match i.cmp(&widest) {
                std::cmp::Ordering::Less => upper_bound(window, pivot),
                std::cmp::Ordering::Equal => width / 2,
                std::cmp::Ordering::Greater => lower_bound(window, pivot),
            };
            cuts[i] = lo_at[i] + inside;
            rank += inside;
        }
        if rank < r {
            // The pivot is one of the first `r`: cut just past it.
            cuts[widest] += 1;
            below = rank + 1;
            for &i in open.iter() {
                lo_at[i] = cuts[i];
            }
        } else {
            above = rank;
            for &i in open.iter() {
                hi_at[i] = cuts[i];
            }
        }
        open.retain(|&i| lo_at[i] < hi_at[i]);
    }
    row.copy_from_slice(if below == r { lo_at } else { hi_at });
}

/// Naive splitter partitioning (no duplicate handling): for `p-1` sorted
/// splitters returns `p+1` offsets into sorted `data` where destination
/// `j`'s slice is `data[offsets[j]..offsets[j+1]]`.
///
/// This is the Fig. 3a/3b behaviour — correct for distinct splitters but
/// load-imbalanced when splitters repeat — kept as the ablation baseline
/// for the investigator (see `pgxd-core::investigator`).
pub fn naive_splitter_offsets<T: Ord>(data: &[T], splitters: &[T]) -> Vec<usize> {
    debug_assert!(data.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(splitters.windows(2).all(|w| w[0] <= w[1]));
    let mut offsets = Vec::with_capacity(splitters.len() + 2);
    offsets.push(0);
    for s in splitters {
        // Send everything strictly below the splitter plus the splitter's
        // own duplicates to the lower destination via upper_bound; repeated
        // splitters then all map to the same offset (the imbalance of
        // Fig. 3b).
        offsets.push(upper_bound(data, s));
    }
    offsets.push(data.len());
    // Offsets must be monotonic for splitters that arrive sorted.
    debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_on_distinct() {
        let v = [10, 20, 30, 40];
        assert_eq!(lower_bound(&v, &25), 2);
        assert_eq!(upper_bound(&v, &25), 2);
        assert_eq!(lower_bound(&v, &20), 1);
        assert_eq!(upper_bound(&v, &20), 2);
        assert_eq!(lower_bound(&v, &5), 0);
        assert_eq!(upper_bound(&v, &45), 4);
    }

    #[test]
    fn bounds_on_duplicates() {
        let v = [1, 2, 2, 2, 3];
        assert_eq!(lower_bound(&v, &2), 1);
        assert_eq!(upper_bound(&v, &2), 4);
    }

    #[test]
    fn bounds_empty() {
        let v: [u8; 0] = [];
        assert_eq!(lower_bound(&v, &1), 0);
        assert_eq!(upper_bound(&v, &1), 0);
    }

    #[test]
    fn naive_offsets_tile_data() {
        let data = [1u32, 3, 3, 5, 7, 9, 9, 9, 12];
        let splitters = [3u32, 9];
        let off = naive_splitter_offsets(&data, &splitters);
        assert_eq!(off.first(), Some(&0));
        assert_eq!(off.last(), Some(&data.len()));
        assert!(off.windows(2).all(|w| w[0] <= w[1]));
        // dest 0: <= 3 -> [1,3,3]; dest 1: (3, 9] -> [5,7,9,9,9]; dest 2: rest
        assert_eq!(off, vec![0, 3, 8, 9]);
    }

    #[test]
    fn naive_offsets_duplicate_splitters_collapse() {
        // The pathological case of Fig. 3b: all splitters equal `a` means
        // one destination gets everything <= a and the middle destinations
        // get nothing.
        let data = [2u32, 2, 2, 2, 2, 2, 8];
        let splitters = [2u32, 2, 2];
        let off = naive_splitter_offsets(&data, &splitters);
        assert_eq!(off, vec![0, 6, 6, 6, 7]);
    }

    #[test]
    fn lower_upper_agree_with_std() {
        let mut x: u64 = 0xdeadbeefcafe1234;
        let mut v: Vec<u64> = (0..500)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 40
            })
            .collect();
        v.sort_unstable();
        for key in 0..41 {
            assert_eq!(lower_bound(&v, &key), v.partition_point(|&e| e < key));
            assert_eq!(upper_bound(&v, &key), v.partition_point(|&e| e <= key));
        }
    }

    #[test]
    fn gallop_matches_bounds() {
        let v = vec![1u64, 2, 2, 2, 5, 8, 8, 13];
        for key in 0..15 {
            assert_eq!(gallop_left(&key, &v), lower_bound(&v, &key), "key={key}");
            assert_eq!(gallop_right(&key, &v), upper_bound(&v, &key), "key={key}");
        }
    }

    /// A key with the place it came from; ordered (and equal) by the key
    /// alone, so equal keys are told apart only by where a *stable* merge
    /// must put them.
    #[derive(Clone, Copy, Debug)]
    struct Tagged {
        key: u64,
        run: usize,
        pos: usize,
    }
    impl PartialEq for Tagged {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl Eq for Tagged {}
    impl PartialOrd for Tagged {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Tagged {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }

    /// Sorted tagged runs of the given lengths, keys drawn below `modulus`.
    fn tagged_runs(lens: &[usize], modulus: u64, seed: u64) -> Vec<Vec<Tagged>> {
        let mut x = seed | 1;
        lens.iter()
            .enumerate()
            .map(|(run, &len)| {
                let mut keys: Vec<u64> = (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x % modulus
                    })
                    .collect();
                keys.sort_unstable();
                let tag = |(pos, key)| Tagged { key, run, pos };
                keys.into_iter().enumerate().map(tag).collect()
            })
            .collect()
    }

    /// Every rank's cuts against the reference: walking the loser-tree merge,
    /// the cuts of rank `r` are how many of its first `r` items each run gave.
    fn assert_cuts_follow_the_merge(runs: &[Vec<Tagged>]) {
        let refs: Vec<&[Tagged]> = runs.iter().map(|r| r.as_slice()).collect();
        let merged = crate::kway::kway_merge(&refs);
        let mut taken = vec![0usize; runs.len()];
        for r in 0..=merged.len() {
            let cuts = multi_co_rank(&refs, r);
            assert_eq!(cuts.iter().sum::<usize>(), r);
            assert_eq!(cuts, taken, "rank {r} of {}", merged.len());
            if let Some(next) = merged.get(r) {
                assert_eq!(next.pos, taken[next.run], "the reference merge is stable");
                taken[next.run] += 1;
            }
        }
    }

    #[test]
    fn multi_co_rank_cuts_the_stable_merge_at_every_rank() {
        for modulus in [1u64, 2, 5, 300, u64::MAX] {
            for k in 1usize..=9 {
                let mixed: Vec<usize> = (0..k).map(|i| (i * 17 + k * 5) % 40).collect();
                let with_empty: Vec<usize> = (0..k).map(|i| (i % 2) * (39 - i)).collect();
                for lens in [mixed, with_empty, vec![0; k], vec![39; k]] {
                    assert_cuts_follow_the_merge(&tagged_runs(&lens, modulus, 0xc0ffee + k as u64));
                }
            }
        }
        assert_eq!(multi_co_rank::<u64>(&[], 0), Vec::<usize>::new());
    }

    #[test]
    fn multi_co_ranks_match_one_rank_at_a_time() {
        for modulus in [3u64, u64::MAX] {
            let runs = tagged_runs(&[30, 0, 12, 40, 7], modulus, 0xfeed);
            let refs: Vec<&[Tagged]> = runs.iter().map(|r| r.as_slice()).collect();
            let total = 89;
            for ranks in [
                vec![],
                vec![0],
                vec![total],
                vec![0, 0, 1, 44, 44, 44, 88, total, total],
                (0..=total).collect(),
                (0..=total).step_by(7).collect(),
            ] {
                let one_by_one: Vec<Vec<usize>> =
                    ranks.iter().map(|&r| multi_co_rank(&refs, r)).collect();
                assert_eq!(multi_co_ranks(&refs, &ranks), one_by_one, "{ranks:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "rank past the merged length")]
    fn multi_co_rank_rejects_a_rank_past_the_end() {
        multi_co_rank(&[&[1u64, 2][..], &[3][..]], 4);
    }

    #[test]
    #[should_panic(expected = "ranks must ascend")]
    fn multi_co_ranks_rejects_descending_ranks() {
        multi_co_ranks(&[&[1u64, 2][..], &[3][..]], &[2, 1]);
    }

    /// Fig. 5's maximum: 52 sample runs sharing one 256 KiB read buffer.
    /// Uniform runs overlap everywhere, two distinct keys tie everywhere,
    /// and pairwise-disjoint runs do not overlap at all — the shape on which
    /// a rank selection has to walk the runs where a merge would only copy.
    #[test]
    fn multi_co_ranks_at_fig5_maximum_shapes() {
        let (k, per_run) = (52usize, 630usize);
        let total = k * per_run;
        let ranks: Vec<usize> = (1..k).map(|j| j * total / k).collect();
        let uniform = tagged_runs(&vec![per_run; k], u64::MAX, 0x5eed);
        let duplicates = tagged_runs(&vec![per_run; k], 2, 0x5eed);
        let mut disjoint = tagged_runs(&vec![per_run; k], 1 << 40, 0x5eed);
        for (run, items) in disjoint.iter_mut().enumerate() {
            for item in items {
                item.key |= (run as u64) << 40;
            }
        }
        for runs in [uniform, duplicates, disjoint] {
            let refs: Vec<&[Tagged]> = runs.iter().map(|r| r.as_slice()).collect();
            let merged = crate::kway::kway_merge(&refs);
            let rows = multi_co_ranks(&refs, &ranks);
            for (row, &r) in rows.iter().zip(&ranks) {
                let mut taken = vec![0usize; k];
                for item in &merged[..r] {
                    taken[item.run] += 1;
                }
                assert_eq!(row, &taken, "rank {r}");
            }
        }
    }

    #[test]
    fn gallop_long_arrays() {
        let v: Vec<u64> = (0..10_000).map(|i| i * 2).collect();
        for key in [0u64, 1, 2, 9999, 10_000, 19_998, 19_999, 30_000] {
            assert_eq!(gallop_left(&key, &v), lower_bound(&v, &key));
            assert_eq!(gallop_right(&key, &v), upper_bound(&v, &key));
        }
    }
}
