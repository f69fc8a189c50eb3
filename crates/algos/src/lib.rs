//! Single-machine sorting substrate for the PGX.D distributed-sort
//! reproduction.
//!
//! The distributed algorithm (crate `pgxd-core`) and the Spark baseline
//! (crate `pgxd-baselines`) are built on top of the algorithms here:
//!
//! - [`quicksort`] — the paper's per-worker local sort: the standard
//!   library's pattern-defeating quicksort (`sort_unstable`).
//! - [`merge`] — the **balanced merge handler** of Fig. 2 (§IV steps 1 and
//!   6): a power-of-two pairwise merge tree whose steps each run in
//!   parallel, merging runs of (almost) equal size at every level to keep
//!   caches warm and work even, over one branchless two-lane merge kernel
//!   with a galloping escape. Runs already in order are concatenated and
//!   equal-key groups copied instead of merged. Also the planner that cuts
//!   a k-way merge into independent parts of equal size at exact co-ranks.
//! - [`kway`] — loser-tree k-way merge: what `exp` compares the tree
//!   against, and the reference the rank selection is tested against.
//! - [`timsort`] — a from-scratch TimSort (run detection, binary insertion
//!   ([`insertion`]) bulking to min-run, galloping merges) as used by
//!   Spark's `sortByKey`; this is the baseline's local sort.
//! - [`search`] — `lower_bound`/`upper_bound`, their galloping forms, the
//!   merge co-rank for two runs and for `k` (how step 3 reads its splitters
//!   and step 1 plans its merge, without merging), and the splitter-range
//!   machinery shared with the investigator.
//! - [`exec`] — a minimal scoped fork-join helper so the algorithms can be
//!   parallel without depending on the distributed runtime.
//!
//! All sorts in this crate are generic over [`Key`] (a `Copy + Ord` value —
//! the distributed sort moves raw values between machines, so keys are
//! plain data) and every public sort is covered by both unit tests and
//! property tests asserting *sorted permutation of the input*.

pub mod exec;
pub mod insertion;
pub mod kway;
pub mod merge;
pub mod quicksort;
pub mod search;
pub mod timsort;

/// Marker trait for sortable plain-data keys.
///
/// Every `Copy + Ord + Send + Sync + 'static` type is a [`Key`]; the alias
/// exists so the bound reads as intent at the dozens of call sites.
pub trait Key: Copy + Ord + Send + Sync + 'static {}
impl<T: Copy + Ord + Send + Sync + 'static> Key for T {}

/// A totally ordered `f64` wrapper (NaN sorts last), so floating-point
/// graph properties can flow through the `Ord`-based sorts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TotalF64(pub f64);

impl TotalF64 {
    /// The wrapped value.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A fixed-width byte-string key: `Copy + Ord` with lexicographic byte
/// order, so textual keys (ids, names, URLs truncated/padded to `N`
/// bytes) flow through every sort in this workspace — the "works with
/// any data type" claim of §VI made concrete for strings.
///
/// Shorter strings are zero-padded (and therefore sort before any longer
/// string sharing their prefix); longer strings are truncated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FixedStr<const N: usize>(pub [u8; N]);

impl<const N: usize> FixedStr<N> {
    /// Builds from a string slice, truncating or zero-padding to `N`.
    pub fn new(s: &str) -> Self {
        let mut buf = [0u8; N];
        let take = s.len().min(N);
        buf[..take].copy_from_slice(&s.as_bytes()[..take]);
        FixedStr(buf)
    }

    /// The key as a string slice, with trailing NULs trimmed (lossy on
    /// non-UTF-8 bytes).
    pub fn as_str(&self) -> std::borrow::Cow<'_, str> {
        let end = self.0.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
        String::from_utf8_lossy(&self.0[..end])
    }
}

impl<const N: usize> std::fmt::Display for FixedStr<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Order-reversing key wrapper: sorting `Desc<K>` ascending yields the
/// descending order of `K`. Lets the distributed sort (and every local
/// kernel) produce descending output with zero extra code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Desc<K>(pub K);

impl<K: Ord> PartialOrd for Desc<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> Ord for Desc<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.cmp(&self.0)
    }
}

impl<K> Desc<K> {
    /// The wrapped key.
    pub fn into_inner(self) -> K {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desc_reverses_order() {
        let mut v = vec![Desc(1u64), Desc(5), Desc(3)];
        v.sort();
        let keys: Vec<u64> = v.into_iter().map(Desc::into_inner).collect();
        assert_eq!(keys, vec![5, 3, 1]);
    }

    #[test]
    fn desc_roundtrips_through_quicksort() {
        let mut v: Vec<Desc<u32>> = (0..1000).map(Desc).collect();
        quicksort::quicksort(&mut v);
        assert!(v.windows(2).all(|w| w[0].0 >= w[1].0));
    }

    #[test]
    fn fixed_str_orders_lexicographically() {
        let mut v = [
            FixedStr::<8>::new("pear"),
            FixedStr::<8>::new("apple"),
            FixedStr::<8>::new("app"),
            FixedStr::<8>::new("banana"),
        ];
        v.sort();
        let names: Vec<String> = v.iter().map(|s| s.as_str().into_owned()).collect();
        assert_eq!(names, vec!["app", "apple", "banana", "pear"]);
    }

    #[test]
    fn fixed_str_truncates_and_pads() {
        let long = FixedStr::<4>::new("abcdefgh");
        assert_eq!(long.as_str(), "abcd");
        let short = FixedStr::<4>::new("x");
        assert_eq!(short.as_str(), "x");
        assert_eq!(format!("{short}"), "x");
        let empty = FixedStr::<4>::new("");
        assert_eq!(empty.as_str(), "");
    }

    #[test]
    fn fixed_str_sorts_through_quicksort() {
        let words = ["zeta", "alpha", "mu", "beta", "alpha"];
        let mut keys: Vec<FixedStr<16>> = words.iter().map(|w| FixedStr::new(w)).collect();
        quicksort::quicksort(&mut keys);
        let sorted: Vec<String> = keys.iter().map(|s| s.as_str().into_owned()).collect();
        assert_eq!(sorted, vec!["alpha", "alpha", "beta", "mu", "zeta"]);
    }

    #[test]
    fn total_f64_orders_nan_last() {
        let mut v = [
            TotalF64(f64::NAN),
            TotalF64(1.0),
            TotalF64(-1.0),
            TotalF64(0.0),
        ];
        v.sort();
        assert_eq!(v[0].0, -1.0);
        assert_eq!(v[1].0, 0.0);
        assert_eq!(v[2].0, 1.0);
        assert!(v[3].0.is_nan());
    }

    #[test]
    fn total_f64_negative_zero() {
        let mut v = [TotalF64(0.0), TotalF64(-0.0)];
        v.sort();
        assert!(v[0].0.is_sign_negative());
        assert!(v[1].0.is_sign_positive());
    }
}
