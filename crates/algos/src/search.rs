//! Binary-search range utilities shared by the merges, the partitioning
//! step (§IV step 4), and the duplicate-splitter investigator: bounds,
//! their galloping (exponential-then-binary) forms for searches that
//! expect to end near the front, and the co-rank that cuts a two-run merge
//! at an output position.

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

/// Half-open range of positions holding `key` in sorted `data`
/// (`lower_bound..upper_bound`); empty if `key` is absent.
pub fn equal_range<T: Ord>(data: &[T], key: &T) -> std::ops::Range<usize> {
    lower_bound(data, key)..upper_bound(data, key)
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
        assert_eq!(equal_range(&v, &2), 1..4);
        assert_eq!(equal_range(&v, &4), 5..5);
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

    #[test]
    fn gallop_long_arrays() {
        let v: Vec<u64> = (0..10_000).map(|i| i * 2).collect();
        for key in [0u64, 1, 2, 9999, 10_000, 19_998, 19_999, 30_000] {
            assert_eq!(gallop_left(&key, &v), lower_bound(&v, &key));
            assert_eq!(gallop_right(&key, &v), upper_bound(&v, &key));
        }
    }
}
