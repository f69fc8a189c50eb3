//! The sort kernels never allocate per element: each allocates the same
//! bytes at `n` and `4n` keys, and the two-run merge, the quicksort and a
//! merge of runs already in order allocate nothing at all. What a kernel
//! may allocate is bookkeeping sized by its run or part count: the loser
//! tree's nodes, the merge tree's run bounds and group cursors, the
//! multiway plan's rows; and a merge lent a spare a few keys short, the
//! buffer of those few keys, never a spare regrown to `n`.
//!
//! This binary installs the tracking allocator globally. The counters are
//! process-global: all measurements live in one `#[test]`.

use pgxd_algos::kway::kway_merge_into;
use pgxd_algos::merge::{balanced_merge_with, merge_into, plan_multiway_splits};
use pgxd_algos::quicksort::quicksort;

#[global_allocator]
static GLOBAL: pgxd_memtrack::TrackingAlloc = pgxd_memtrack::TrackingAlloc;

const N: usize = 1 << 14;
/// Runs the merges take: the workers of a step-1 merge, or the machines
/// of a step-6 one.
const RUNS: usize = 5;

/// Bytes allocated while `f` runs.
fn allocated(f: impl FnOnce()) -> usize {
    let before = pgxd_memtrack::total_allocated_bytes();
    f();
    pgxd_memtrack::total_allocated_bytes() - before
}

/// `n` scattered keys.
fn keys(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) >> 16)
        .collect()
}

/// `n` keys cut into `RUNS` sorted runs, back to back, and the runs'
/// bounds.
fn runs(n: usize) -> (Vec<u64>, Vec<usize>) {
    let mut data = keys(n);
    let bounds: Vec<usize> = (0..=RUNS).map(|r| r * n / RUNS).collect();
    for w in bounds.windows(2) {
        data[w[0]..w[1]].sort_unstable();
    }
    (data, bounds)
}

/// What each kernel allocates on `n` keys: `(kernel, bytes)`.
fn kernels(n: usize) -> Vec<(&'static str, usize)> {
    let mut data = keys(n);
    let quick = allocated(|| quicksort(&mut data));

    let (mut a, mut b) = (keys(n / 2), keys(n / 2));
    a.sort_unstable();
    b.sort_unstable();
    let mut out = vec![0; n];
    let two = allocated(|| merge_into(&a, &b, &mut out));
    // Stretches of 256 keys from each side in turn: the merge gallops.
    let stretches = |side: u64| -> Vec<u64> {
        (0..n as u64 / 2)
            .map(|i| (i / 256 * 2 + side) * 256 + i % 256)
            .collect()
    };
    let (a, b) = (stretches(0), stretches(1));
    let gallop = allocated(|| merge_into(&a, &b, &mut out));
    assert!(out.is_sorted());

    let (data, bounds) = runs(n);
    let slices: Vec<&[u64]> = bounds.windows(2).map(|w| &data[w[0]..w[1]]).collect();
    let kway = allocated(|| kway_merge_into(&slices, &mut out));
    let mut plan = Vec::new();
    let splits = allocated(|| plan = plan_multiway_splits(&slices, 4));
    drop(plan);

    // Step 6's shape: the spare that step 1 left behind is lent.
    let mut spare = vec![0; n];
    let mut merged = Vec::new();
    let tree = allocated(|| merged = balanced_merge_with(data, &mut spare, &bounds, 1));
    assert!(merged.is_sorted());

    // A spare a few keys short, as step 6 gets on a machine that receives
    // more than it sent: merged through as it is, the tails through a
    // buffer of their own, nothing sized by `n`.
    let (data, bounds) = runs(n);
    let mut spare = vec![0; n - 64];
    let short = allocated(|| merged = balanced_merge_with(data, &mut spare, &bounds, 1));
    assert!(merged.is_sorted());

    // Runs in order are one run: nothing merged, and the spare untouched.
    let ordered: Vec<u64> = (0..n as u64).collect();
    let mut spare = keys(n / 3);
    let (len, capacity, contents) = (spare.len(), spare.capacity(), spare.clone());
    let coalesced = allocated(|| merged = balanced_merge_with(ordered, &mut spare, &bounds, 1));
    assert!(merged.is_sorted());
    assert_eq!((spare.len(), spare.capacity()), (len, capacity));
    assert_eq!(spare, contents);

    // Two keys in every run: two groups gathered, no tree.
    let two_valued: Vec<u64> = bounds
        .windows(2)
        .flat_map(|w| (w[0]..w[1]).map(move |i| u64::from(i >= (w[0] + w[1]) / 2)))
        .collect();
    let mut spare = vec![0; n];
    let gather = allocated(|| merged = balanced_merge_with(two_valued, &mut spare, &bounds, 1));
    assert!(merged.is_sorted());

    vec![
        ("quicksort", quick),
        ("merge_into", two),
        ("merge_into, galloping", gallop),
        ("balanced_merge_with, runs in order", coalesced),
        ("kway_merge_into", kway),
        ("plan_multiway_splits", splits),
        ("balanced_merge_with", tree),
        ("balanced_merge_with, spare 64 keys short", short),
        ("balanced_merge_with, equal-key groups", gather),
    ]
}

#[test]
fn kernels_allocate_nothing_per_element() {
    let at_n = kernels(N);
    let at_4n = kernels(4 * N);
    for ((kernel, small), (_, large)) in at_n.iter().zip(&at_4n) {
        assert_eq!(
            small,
            large,
            "{kernel}: {small} B at {N} keys, {large} B at {}",
            4 * N
        );
    }
    for (kernel, bytes) in &at_n[..4] {
        assert_eq!(*bytes, 0, "{kernel} allocates");
    }
    assert!(
        at_n[4..].iter().all(|&(_, bytes)| bytes > 0),
        "the run bookkeeping is measured: {at_n:?}"
    );
}
