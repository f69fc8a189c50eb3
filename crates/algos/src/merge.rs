//! The **balanced merge handler** (paper §IV-A, Fig. 2).
//!
//! Per-worker sorted runs are combined by a power-of-two pairwise merge
//! tree: at step `s`, the run owned by thread `i + 2^s` is merged into the
//! run owned by thread `i` (for `i` a multiple of `2^(s+1)`). Because the
//! initial runs have (almost) equal sizes, every merge at every level
//! combines two runs of (almost) equal size — the "balanced merging" that
//! the paper credits with avoiding cache misses. All merges of one step
//! run in parallel, and each individual merge can itself be split across
//! workers by median partitioning.

use crate::exec::{self, even_chunk_bounds};

/// Sequential two-run merge of sorted `a` and `b` into `out`.
///
/// `out.len()` must equal `a.len() + b.len()`. Stable: on ties, elements
/// of `a` come first.
// analyze: allow(panic-surface): `i` and `j` are checked against the run
// lengths before either run is read, and together they advance exactly
// `out.len()` times (asserted equal to the two lengths).
pub fn merge_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut [T]) {
    assert_eq!(a.len() + b.len(), out.len(), "output size mismatch");
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        // Take from `a` while its head is <= b's head (stability).
        let take_a = i < a.len() && (j >= b.len() || a[i] <= b[j]);
        if take_a {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

/// Parallel two-run merge: recursively splits (`a`, `b`) at the median of
/// the larger run so both halves have balanced work, running the halves on
/// scoped threads until the `workers` budget is exhausted or the problem
/// is below [`PARALLEL_MERGE_CUTOFF`].
// analyze: allow(panic-surface): the midpoint of the longer run exists
// because the output is past the cutoff, so that run is non-empty.
pub fn parallel_merge_into<T: Ord + Copy + Send + Sync>(
    a: &[T],
    b: &[T],
    out: &mut [T],
    workers: usize,
) {
    assert_eq!(a.len() + b.len(), out.len(), "output size mismatch");
    if workers <= 1 || out.len() < PARALLEL_MERGE_CUTOFF {
        merge_into(a, b, out);
        return;
    }
    // Split the larger run in half; binary-search its midpoint key in the
    // smaller run. Everything left of the two split points merges into the
    // left half of `out`, the rest into the right half.
    let (a_mid, b_mid) = if a.len() >= b.len() {
        let am = a.len() / 2;
        (am, crate::search::lower_bound(b, &a[am]))
    } else {
        let bm = b.len() / 2;
        // Use upper_bound here so equal keys go left with `a` (stability).
        (crate::search::upper_bound(a, &b[bm]), bm)
    };
    let (out_lo, out_hi) = out.split_at_mut(a_mid + b_mid);
    let (a_lo, a_hi) = a.split_at(a_mid);
    let (b_lo, b_hi) = b.split_at(b_mid);
    let half = workers / 2;
    exec::join2(
        true,
        move || parallel_merge_into(a_lo, b_lo, out_lo, half),
        move || parallel_merge_into(a_hi, b_hi, out_hi, workers - half),
    );
}

/// Below this output size a merge is not worth splitting across threads.
pub const PARALLEL_MERGE_CUTOFF: usize = 1 << 14;

/// Merges `runs.len()` consecutive sorted runs stored back-to-back in
/// `data` (run `r` occupies `data[bounds[r]..bounds[r+1]]`) with the
/// Fig. 2 balanced pairwise tree. Returns the fully sorted data.
///
/// `workers` caps the threads used *per step*: the pair-merges of one step
/// run concurrently, and leftover worker budget parallelizes the
/// individual merges of the later (wider) steps.
// analyze: allow(panic-surface): pair indices are below the run count the
// bounds were cut into, the bounds are asserted to cover `data`, and a
// merge worker's panic is re-raised on join.
// analyze: allow(hot-path-alloc): per-part staging buffers at batch
// scale — each part is merged once into its slot and escapes as the
// call's output; algos has no pool access by layering.
pub fn balanced_merge<T: Ord + Copy + Send + Sync>(
    mut data: Vec<T>,
    bounds: &[usize],
    workers: usize,
) -> Vec<T> {
    assert!(!bounds.is_empty(), "bounds must contain at least [0]");
    assert_eq!(*bounds.last().unwrap(), data.len(), "bounds must cover data");
    let mut cur_bounds: Vec<usize> = bounds.to_vec();
    if cur_bounds.len() <= 2 {
        return data; // zero or one run: already sorted
    }
    // Small data: thread spawns would dominate; run the same pairwise
    // tree sequentially.
    if workers <= 1 || data.len() < PARALLEL_MERGE_CUTOFF {
        return balanced_merge_sequential(data, &cur_bounds);
    }
    let mut scratch: Vec<T> = Vec::with_capacity(data.len());
    // SAFETY-free alternative: initialize scratch by cloning data; every
    // slot is overwritten by the first merge step anyway, and one extra
    // memcpy keeps the implementation entirely safe.
    scratch.extend_from_slice(&data);

    while cur_bounds.len() > 2 {
        let num_runs = cur_bounds.len() - 1;
        let num_pairs = num_runs / 2;
        let has_orphan = num_runs % 2 == 1;

        // Plan this step's merges: pair (2k, 2k+1) -> output run k.
        let mut next_bounds = Vec::with_capacity(num_pairs + 2);
        next_bounds.push(0);
        for k in 0..num_pairs {
            next_bounds.push(cur_bounds[2 * k + 2]);
        }
        if has_orphan {
            next_bounds.push(*cur_bounds.last().unwrap());
        }

        // Execute all pair merges of this step in parallel, spawning at
        // most `workers` threads: with many pairs, each thread handles a
        // contiguous group of pairs sequentially; with few pairs, the
        // surplus budget parallelizes inside each merge.
        {
            let data_ref = &data;
            let cur = &cur_bounds;
            // Split scratch into per-pair output regions (+ orphan tail).
            let mut regions: Vec<&mut [T]> = Vec::with_capacity(num_pairs + 1);
            let mut rest: &mut [T] = &mut scratch;
            let mut offset = 0;
            for k in 0..num_pairs {
                let end = cur[2 * k + 2];
                let (region, tail) = rest.split_at_mut(end - offset);
                regions.push(region);
                offset = end;
                rest = tail;
            }
            let orphan_region = has_orphan.then_some(rest);

            let merge_pair = |k: usize, region: &mut [T], merge_workers: usize| {
                let a = &data_ref[cur[2 * k]..cur[2 * k + 1]];
                let b = &data_ref[cur[2 * k + 1]..cur[2 * k + 2]];
                parallel_merge_into(a, b, region, merge_workers);
            };
            let merge_pair = &merge_pair; // shared by all spawned closures

            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers + 1);
                if num_pairs >= workers {
                    // Group pairs into ≤ workers contiguous batches.
                    let per_group = num_pairs.div_ceil(workers);
                    let mut iter = regions.into_iter().enumerate();
                    loop {
                        let group: Vec<(usize, &mut [T])> = iter.by_ref().take(per_group).collect();
                        if group.is_empty() {
                            break;
                        }
                        handles.push(scope.spawn(move || {
                            for (k, region) in group {
                                merge_pair(k, region, 1);
                            }
                        }));
                    }
                } else {
                    let per_merge_workers = (workers / num_pairs.max(1)).max(1);
                    for (k, region) in regions.into_iter().enumerate() {
                        handles.push(scope.spawn(move || {
                            merge_pair(k, region, per_merge_workers);
                        }));
                    }
                }
                if let Some(region) = orphan_region {
                    // Odd run out: copy through unchanged this step.
                    let start = cur[2 * num_pairs];
                    region.copy_from_slice(&data_ref[start..]);
                }
                for h in handles {
                    h.join().expect("merge worker panicked");
                }
            });
        }

        std::mem::swap(&mut data, &mut scratch);
        cur_bounds = next_bounds;
    }
    data
}

/// Oversampling factor for the multiway split planner: candidates per run
/// per output part. Higher values tighten part-size balance at the cost of
/// a slightly larger (still tiny) planning sort.
const SPLIT_OVERSAMPLE: usize = 8;

/// Plans a `parts`-way partition of a k-way merge: returns `parts + 1`
/// rows of per-run cut positions, where output part `i` is the merge of
/// `runs[j][rows[i][j]..rows[i + 1][j]]` over all `j`. The rows satisfy
///
/// * **monotonicity** — `rows[i][j] <= rows[i + 1][j]` for every run, with
///   `rows[0]` all zeros and `rows[parts]` the run lengths, and
/// * **cross-part order** — every element of part `i` is `<=` every
///   element of part `i + 1`,
///
/// so the parts can be merged independently into disjoint output segments
/// and the concatenation is sorted. Boundary values are picked from a
/// regular sample of each run (splitter-style, like the §IV distributed
/// partition but within one machine); exact target ranks are approached by
/// greedily distributing elements equal to the boundary value, so equal
/// keys may change run-relative order *across* part boundaries (within a
/// part the merge stays stable in run order).
// analyze: allow(panic-surface): sample positions are scaled into their
// run's length, `cands` is non-empty once any run is (total > 0), and
// `ties` has one entry per run like the row it is zipped against.
// analyze: allow(hot-path-alloc): O(parts × k) split plan — the plan is
// the function's product, sized by run/part counts, not elements.
pub fn plan_multiway_splits<T: Ord + Copy>(runs: &[&[T]], parts: usize) -> Vec<Vec<usize>> {
    let parts = parts.max(1);
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut rows: Vec<Vec<usize>> = Vec::with_capacity(parts + 1);
    rows.push(vec![0; runs.len()]);
    if total == 0 {
        rows.resize(parts + 1, vec![0; runs.len()]);
        return rows;
    }

    // Regular sample of boundary candidates from every run.
    let mut cands: Vec<T> = Vec::new();
    for run in runs {
        if run.is_empty() {
            continue;
        }
        let s = (parts * SPLIT_OVERSAMPLE).min(run.len());
        for t in 0..s {
            cands.push(run[(t * run.len()) / s + run.len() / (2 * s)]);
        }
    }
    cands.sort_unstable();

    for i in 1..parts {
        let target = (i * total) / parts;
        let v = cands[((i * cands.len()) / parts).min(cands.len() - 1)];
        // Everything strictly below `v` must land in parts <= i; elements
        // equal to `v` are distributed greedily to hit the target rank.
        let mut row: Vec<usize> = Vec::with_capacity(runs.len());
        let mut below = 0usize;
        let mut ties: Vec<usize> = Vec::with_capacity(runs.len());
        for run in runs {
            let lo = crate::search::lower_bound(run, &v);
            let hi = crate::search::upper_bound(run, &v);
            row.push(lo);
            ties.push(hi - lo);
            below += lo;
        }
        let mut deficit = target.saturating_sub(below);
        for (j, cut) in row.iter_mut().enumerate() {
            let take = deficit.min(ties[j]);
            *cut += take;
            deficit -= take;
        }
        // Clamp against the previous row: candidate values are sorted so
        // the cuts are already monotone, but make it structural.
        let prev = rows.last().expect("rows starts non-empty");
        for (cut, &p) in row.iter_mut().zip(prev.iter()) {
            *cut = (*cut).max(p);
        }
        rows.push(row);
    }
    rows.push(runs.iter().map(|r| r.len()).collect());
    rows
}

/// Sequential form of the Fig. 2 tree: identical merge schedule, no
/// thread spawns. Used automatically for small inputs.
// analyze: allow(panic-surface): same pair indexing as `balanced_merge`,
// over bounds its caller asserted non-empty and covering `data`.
// analyze: allow(hot-path-alloc): fallback path ping-pong buffer at
// batch scale; the result escapes as the merged output.
fn balanced_merge_sequential<T: Ord + Copy>(mut data: Vec<T>, bounds: &[usize]) -> Vec<T> {
    let mut cur_bounds: Vec<usize> = bounds.to_vec();
    let mut scratch: Vec<T> = data.clone();
    while cur_bounds.len() > 2 {
        let num_runs = cur_bounds.len() - 1;
        let num_pairs = num_runs / 2;
        let mut next_bounds = Vec::with_capacity(num_pairs + 2);
        next_bounds.push(0);
        for k in 0..num_pairs {
            let (a0, a1, b1) = (cur_bounds[2 * k], cur_bounds[2 * k + 1], cur_bounds[2 * k + 2]);
            merge_into(&data[a0..a1], &data[a1..b1], &mut scratch[a0..b1]);
            next_bounds.push(b1);
        }
        if num_runs % 2 == 1 {
            let start = cur_bounds[2 * num_pairs];
            let end = *cur_bounds.last().unwrap();
            scratch[start..end].copy_from_slice(&data[start..end]);
            next_bounds.push(end);
        }
        std::mem::swap(&mut data, &mut scratch);
        cur_bounds = next_bounds;
    }
    data
}

/// Convenience: sorts each even chunk with the provided sorter and then
/// combines the chunks with [`balanced_merge`] — the paper's *parallel
/// quick sort* when `sorter` is [`quicksort`](crate::quicksort::quicksort).
/// The baselines' local sort; the distributed sorter's step 1 runs its
/// chunks on the machine's task pool instead.
///
/// The worker count is clamped so each chunk holds at least
/// [`exec::MIN_ITEMS_PER_WORKER`] items — spawning threads for tiny
/// chunks costs more than it saves.
pub fn sort_chunks_and_merge<T, F>(mut data: Vec<T>, workers: usize, sorter: F) -> Vec<T>
where
    T: Ord + Copy + Send + Sync,
    F: Fn(&mut [T]) + Sync,
{
    let workers = workers
        .max(1)
        .min((data.len() / exec::MIN_ITEMS_PER_WORKER).max(1));
    let bounds = even_chunk_bounds(data.len(), workers);
    exec::for_each_chunk_mut(&mut data, workers, |_, chunk| sorter(chunk));
    balanced_merge(data, &bounds, workers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift_vec(n: usize, modulus: u64) -> Vec<u64> {
        let mut x: u64 = 0x2545f4914f6cdd1d;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % modulus
            })
            .collect()
    }

    #[test]
    fn merge_into_basic() {
        let a = [1, 3, 5];
        let b = [2, 4, 6, 7];
        let mut out = [0; 7];
        merge_into(&a, &b, &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn merge_into_empty_sides() {
        let mut out = [0; 3];
        merge_into(&[], &[1, 2, 3], &mut out);
        assert_eq!(out, [1, 2, 3]);
        merge_into(&[1, 2, 3], &[], &mut out);
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn merge_is_stable_for_tagged_ties() {
        // Tag values with their source; Ord on the key part only.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        struct Tagged(u32, u8);
        impl PartialOrd for Tagged {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Tagged {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.cmp(&other.0)
            }
        }
        let a = [Tagged(1, 0), Tagged(2, 0)];
        let b = [Tagged(1, 1), Tagged(2, 1)];
        let mut out = [Tagged(0, 9); 4];
        merge_into(&a, &b, &mut out);
        // ties: `a` side first
        assert_eq!(out[0].1, 0);
        assert_eq!(out[1].1, 1);
        assert_eq!(out[2].1, 0);
        assert_eq!(out[3].1, 1);
    }

    #[test]
    fn parallel_merge_matches_sequential() {
        let mut a = xorshift_vec(50_000, 1000);
        let mut b = xorshift_vec(30_011, 1000);
        a.sort_unstable();
        b.sort_unstable();
        let mut seq = vec![0u64; a.len() + b.len()];
        merge_into(&a, &b, &mut seq);
        let mut par = vec![0u64; a.len() + b.len()];
        parallel_merge_into(&a, &b, &mut par, 8);
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_merge_skewed_sizes() {
        let mut a = xorshift_vec(100_000, u64::MAX);
        let mut b = xorshift_vec(17, u64::MAX);
        a.sort_unstable();
        b.sort_unstable();
        let mut out = vec![0u64; a.len() + b.len()];
        parallel_merge_into(&a, &b, &mut out, 4);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn balanced_merge_power_of_two_runs() {
        let mut data = xorshift_vec(1 << 16, 1 << 20);
        let bounds = even_chunk_bounds(data.len(), 8);
        for w in bounds.windows(2) {
            data[w[0]..w[1]].sort_unstable();
        }
        let mut expect = data.clone();
        expect.sort_unstable();
        let merged = balanced_merge(data, &bounds, 8);
        assert_eq!(merged, expect);
    }

    #[test]
    fn balanced_merge_odd_run_count() {
        for runs in [1usize, 3, 5, 7, 9] {
            let mut data = xorshift_vec(10_000 + runs, 64);
            let bounds = even_chunk_bounds(data.len(), runs);
            for w in bounds.windows(2) {
                data[w[0]..w[1]].sort_unstable();
            }
            let mut expect = data.clone();
            expect.sort_unstable();
            let merged = balanced_merge(data, &bounds, 4);
            assert_eq!(merged, expect, "runs={runs}");
        }
    }

    #[test]
    fn balanced_merge_with_empty_runs() {
        // Some machines may contribute nothing after the exchange.
        let data = vec![5u64, 6, 7];
        let bounds = vec![0, 0, 3, 3, 3];
        let merged = balanced_merge(data, &bounds, 2);
        assert_eq!(merged, vec![5, 6, 7]);
    }

    #[test]
    fn balanced_merge_empty_input() {
        let merged = balanced_merge(Vec::<u64>::new(), &[0], 4);
        assert!(merged.is_empty());
        let merged = balanced_merge(Vec::<u64>::new(), &[0, 0, 0], 4);
        assert!(merged.is_empty());
    }

    #[test]
    fn sort_chunks_and_merge_end_to_end() {
        let data = xorshift_vec(100_000, 1 << 30);
        let mut expect = data.clone();
        expect.sort_unstable();
        let sorted = sort_chunks_and_merge(data, 8, |chunk| chunk.sort_unstable());
        assert_eq!(sorted, expect);
    }

    #[test]
    fn sort_chunks_single_worker() {
        let data = xorshift_vec(1000, 100);
        let mut expect = data.clone();
        expect.sort_unstable();
        let sorted = sort_chunks_and_merge(data, 1, |chunk| chunk.sort_unstable());
        assert_eq!(sorted, expect);
    }

    fn sorted_runs(k: usize, n: usize, modulus: u64) -> Vec<Vec<u64>> {
        (0..k)
            .map(|i| {
                let mut run = xorshift_vec(n + 37 * i, modulus);
                run.sort_unstable();
                run
            })
            .collect()
    }

    #[test]
    fn split_plan_is_monotone_and_ordered() {
        for modulus in [u64::MAX, 1000, 7, 1] {
            let runs = sorted_runs(5, 20_000, modulus);
            let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
            let parts = 6;
            let rows = plan_multiway_splits(&refs, parts);
            assert_eq!(rows.len(), parts + 1);
            assert_eq!(rows[0], vec![0; refs.len()]);
            let lens: Vec<usize> = refs.iter().map(|r| r.len()).collect();
            assert_eq!(rows[parts], lens);
            for i in 0..parts {
                for j in 0..refs.len() {
                    assert!(rows[i][j] <= rows[i + 1][j], "row {i} run {j} not monotone");
                }
                // cross-part order: max of part i <= min of part i+1
                let part_max = (0..refs.len())
                    .filter(|&j| rows[i + 1][j] > rows[i][j])
                    .map(|j| refs[j][rows[i + 1][j] - 1])
                    .max();
                let next_min = if i + 1 < parts {
                    (0..refs.len())
                        .filter(|&j| rows[i + 2][j] > rows[i + 1][j])
                        .map(|j| refs[j][rows[i + 1][j]])
                        .min()
                } else {
                    None
                };
                if let (Some(mx), Some(mn)) = (part_max, next_min) {
                    assert!(mx <= mn, "part {i} max {mx} > part {} min {mn}", i + 1);
                }
            }
        }
    }

    #[test]
    fn split_plan_balances_uniform_parts() {
        let runs = sorted_runs(4, 50_000, u64::MAX);
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let total: usize = refs.iter().map(|r| r.len()).sum();
        let parts = 8;
        let rows = plan_multiway_splits(&refs, parts);
        let ideal = total / parts;
        for pair in rows.windows(2) {
            let size: usize = pair[0]
                .iter()
                .zip(pair[1].iter())
                .map(|(&a, &b)| b - a)
                .sum();
            // Regular sampling keeps parts within a loose factor of ideal.
            assert!(
                size < ideal * 2 + SPLIT_OVERSAMPLE * parts,
                "part size {size} vs ideal {ideal}"
            );
        }
    }
}
