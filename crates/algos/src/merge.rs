//! The **balanced merge handler** (paper §IV-A, Fig. 2).
//!
//! Per-worker sorted runs are combined by a power-of-two pairwise merge
//! tree: at step `s`, the run owned by thread `i + 2^s` is merged into the
//! run owned by thread `i` (for `i` a multiple of `2^(s+1)`). Because the
//! initial runs have (almost) equal sizes, every merge at every level
//! combines two runs of (almost) equal size — the "balanced merging" that
//! the paper credits with avoiding cache misses. All merges of one step
//! run in parallel, and each individual merge can itself be split across
//! workers at the co-rank of its two runs.
//!
//! Every merge in the tree — and the two-run case of
//! [`kway_merge_into`](crate::kway::kway_merge_into) — is the one kernel
//! [`merge_into`]: branchless steps, two lanes in lock-step, and a
//! galloping escape for one-sided stretches. The tree ping-pongs between
//! the data and one scratch buffer the caller may already own
//! ([`balanced_merge_with`]); it never clones its input, and never
//! regrows a scratch buffer a few keys short: those keys, the largest,
//! are merged through a buffer of their own.
//!
//! The tree merges only runs that overlap: runs already in order are
//! concatenated and runs of equal keys copied, so a machine pays for the
//! distinct keys it holds, not for their copies. Step 1 combines its
//! per-worker runs with this tree, and step 6 the `p` received ones.
//!
//! [`plan_multiway_splits`] cuts a k-way merge into parts of equal size at
//! exact output ranks, one k-way co-rank per boundary. The sorter no
//! longer calls it: `exp`'s merge comparison and the benchmark harness's
//! replay of the old step-1 merge do, with `kway_merge_into`.

use crate::exec;
use crate::search::{co_rank, gallop_left, gallop_right, multi_co_rank, multi_co_ranks};
use std::ops::Range;

/// Steps a merge lane takes between two looks at how far its runs reach,
/// and the length of a one-sided stretch that switches it to galloping.
const BLOCK: usize = 64;

/// One branchless merge step: the smaller head of `a[*i..]` and `b[*j..]`
/// goes to `slot`, ties taking `a`. The comparison becomes an index (the
/// sign bit of `b`'s head against `a`'s) that selects between the two head
/// *references* and advances one cursor; written as `y < x`, LLVM turns
/// the select back into a jump that mispredicts every other key on
/// multi-word items.
// The caller steps at most `min(a.len() - *i, b.len() - *j)` times between two
// looks at the lengths, and a step advances one cursor by one.
#[inline(always)]
fn step<T: Ord + Copy>(a: &[T], b: &[T], i: &mut usize, j: &mut usize, slot: &mut T) {
    let (x, y) = (&a[*i], &b[*j]);
    let take_b = usize::from(y.cmp(x) as i8 as u8 >> 7);
    *slot = *[x, y][take_b];
    *i += 1 - take_b;
    *j += take_b;
}

/// The galloping escape: a lane whose last [`BLOCK`] steps all drew from
/// one run (`a`'s cursor stood at `was` before them) copies the rest of
/// that one-sided stretch wholesale instead of comparing key by key.
// The run that gave nothing to the block still has the head it had before it,
// and a gallop count is at most the length of the tail it searched.
#[inline]
fn gallop<T: Ord + Copy>(
    a: &[T],
    b: &[T],
    out: &mut [T],
    i: &mut usize,
    j: &mut usize,
    was: usize,
) {
    let at = *i + *j;
    if *i - was == BLOCK {
        // Ties take `a`: everything in `a` up to and including `b`'s head.
        let n = gallop_right(&b[*j], &a[*i..]);
        out[at..at + n].copy_from_slice(&a[*i..*i + n]);
        *i += n;
    } else if *i == was {
        let n = gallop_left(&a[*i], &b[*j..]);
        out[at..at + n].copy_from_slice(&b[*j..*j + n]);
        *j += n;
    }
}

/// Sequential two-run merge of sorted `a` and `b` into `out`.
///
/// `out.len()` must equal `a.len() + b.len()`. Stable: on ties, elements
/// of `a` come first.
///
/// The output is cut in half at its [`co_rank`] and the two halves are
/// merged as two independent lanes in lock-step, which hides the
/// load → compare → advance latency chain of a single merge. Each lane
/// takes branchless steps in blocks of 64 and gallops when a whole block
/// came from one run, so duplicate-heavy and disjoint runs move at copy
/// speed.
// A cursor never passes the length of its run (see `steps`), a lane's output
// position is the sum of its cursors, and the two lanes' lengths add up to the
// asserted `out.len()`.
pub fn merge_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut [T]) {
    assert_eq!(a.len() + b.len(), out.len(), "output size mismatch");
    if a.is_empty() || b.is_empty() {
        let (from_a, from_b) = out.split_at_mut(a.len());
        from_a.copy_from_slice(a);
        from_b.copy_from_slice(b);
        return;
    }
    let half = out.len() / 2;
    let (a_cut, b_cut) = co_rank(a, b, half);
    let (a0, a1) = a.split_at(a_cut);
    let (b0, b1) = b.split_at(b_cut);
    let (out0, out1) = out.split_at_mut(half);
    let (mut i0, mut j0, mut i1, mut j1) = (0, 0, 0, 0);
    loop {
        // A step takes one key from one run, so neither lane can run off
        // the end of a run in fewer steps than its shorter tail is long.
        let steps = BLOCK
            .min(a0.len() - i0)
            .min(b0.len() - j0)
            .min(a1.len() - i1)
            .min(b1.len() - j1);
        if steps == 0 {
            break;
        }
        let (at0, at1, was0, was1) = (i0 + j0, i1 + j1, i0, i1);
        let block0 = &mut out0[at0..at0 + steps];
        let block1 = &mut out1[at1..at1 + steps];
        for (slot0, slot1) in block0.iter_mut().zip(block1) {
            step(a0, b0, &mut i0, &mut j0, slot0);
            step(a1, b1, &mut i1, &mut j1, slot1);
        }
        if steps == BLOCK {
            gallop(a0, b0, out0, &mut i0, &mut j0, was0);
            gallop(a1, b1, out1, &mut i1, &mut j1, was1);
        }
    }
    // A lane ran one of its runs dry, which leaves that lane a copy. What
    // is left of the other is a smaller merge of its own: two lanes again.
    merge_into(&a0[i0..], &b0[j0..], &mut out0[i0 + j0..]);
    merge_into(&a1[i1..], &b1[j1..], &mut out1[i1 + j1..]);
}

/// Parallel two-run merge: recursively halves the output at its
/// [`co_rank`], so both halves have the same work whatever the two run
/// lengths are, running the halves on scoped threads until the `workers`
/// budget is exhausted or the problem is below [`PARALLEL_MERGE_CUTOFF`].
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
    let (a_mid, b_mid) = co_rank(a, b, out.len() / 2);
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
/// Allocates the tree's second buffer; a caller that owns a spent one
/// hands it to [`balanced_merge_with`] instead.
pub fn balanced_merge<T: Ord + Copy + Send + Sync>(
    data: Vec<T>,
    bounds: &[usize],
    workers: usize,
) -> Vec<T> {
    balanced_merge_with(data, &mut Vec::new(), bounds, workers)
}

/// [`balanced_merge`] ping-ponging between `data` and the caller's
/// `scratch`: every level merges the runs of one buffer pairwise into the
/// other, so no level allocates and nothing is copied that is not merged.
///
/// Only runs that overlap are merged. First, at O(runs) cost, every bound
/// where the keys do not step down is dropped, and every empty run: runs
/// in order concatenate to their merge, and if one run is left `data`
/// comes back untouched and `scratch` is not touched either. Otherwise
/// the runs' equal-key groups are gathered into `scratch`, smallest key
/// first, each group a prefix of every run in run order, until the groups
/// average fewer than 64 keys a run (the kernel's gallop trigger); then
/// the tree runs over the remaining runs and overwrites what the gather
/// wrote. Random keys give up after one group, at a cost of a compare and
/// a gallop a run.
///
/// `scratch` may come in with any length and contents, and is never
/// reallocated unless it has no allocation at all, which is then made
/// `data.len()` long. A spare of `m` slots, fewer than the `n` keys, is
/// used as it is: the stable merge's first `m` keys (the runs' heads,
/// cut at their k-way co-rank) are gathered or merged through it, and the
/// last `n − m` (the tails) through a buffer of their own, level one of
/// their tree reading them out of `data` before anything overwrites it.
/// The result comes back in `data`'s or `scratch`'s allocation; `scratch`
/// holds the other on return, contents unspecified, so one spare serves
/// any number of merges.
///
/// `workers` caps the threads used *per step*: the pair-merges of one step
/// run concurrently (the caller's thread takes its share), and leftover
/// worker budget parallelizes the individual merges of the later (wider)
/// steps. Below [`PARALLEL_MERGE_CUTOFF`] a level runs on the caller's
/// thread alone: spawns would dominate.
// The bounds are asserted to start at 0, never decrease and end at
// `data.len()`; the co-rank cuts each run within its length, and the heads and
// tails are each merged between two buffers of their own total length.
// O(runs) bookkeeping — the runs, their cuts and one job per pair; never per
// element.
pub fn balanced_merge_with<T: Ord + Copy + Send + Sync>(
    mut data: Vec<T>,
    scratch: &mut Vec<T>,
    bounds: &[usize],
    workers: usize,
) -> Vec<T> {
    assert!(!bounds.is_empty(), "bounds must contain at least [0]");
    assert_eq!(
        bounds[0], 0,
        "bounds[0] must be 0: no merge writes the slots before it"
    );
    assert_eq!(
        *bounds.last().unwrap(),
        data.len(),
        "bounds must cover data"
    );
    if let Some(r) = bounds.windows(2).position(|w| w[0] > w[1]) {
        panic!(
            "bounds must not decrease: bounds[{}] = {} after bounds[{r}] = {}",
            r + 1,
            bounds[r + 1],
            bounds[r]
        );
    }
    // Two runs in order concatenate to their stable merge, and an empty
    // run merges to nothing: only a bound where the keys step down cuts.
    let n = data.len();
    let cuts = |w: &[usize]| w[0] < w[1] && w[1] < n && data[w[1] - 1] > data[w[1]];
    if !bounds.windows(2).any(cuts) {
        return data; // one run in order: already sorted
    }
    let kept: Vec<usize> = std::iter::once(0)
        .chain(bounds.windows(2).filter(|w| cuts(w)).map(|w| w[1]))
        .chain(std::iter::once(n))
        .collect();
    let mut heads: Vec<Range<usize>> = kept.windows(2).map(|w| w[0]..w[1]).collect();

    // Every slot is written by the gather or the first level before
    // anything reads it; the fill value only gives the slots *some*
    // initialised content.
    let m = match scratch.capacity() {
        0 => n,
        spare => spare.min(n),
    };
    scratch.resize(m, data[0]);
    // A short spare takes the stable merge's first `m` keys, the heads. The
    // tails leave `data` through level one of their own tree before anything
    // overwrites it, then ping-pong with `data[m..]`, which the heads' later
    // levels do not touch.
    let (mut tails, mut tail_runs) = (Vec::new(), Vec::new());
    if m < n {
        let runs: Vec<&[T]> = heads.iter().map(|run| &data[run.clone()]).collect();
        for (run, cut) in heads.iter_mut().zip(multi_co_rank(&runs, m)) {
            tail_runs.push(run.start + cut..run.end);
            run.end = run.start + cut;
        }
        tails = vec![data[0]; n - m];
        tail_runs = merge_level(&data, &tail_runs, &mut tails, workers);
    }
    let in_scratch = gather_groups(&data, &heads, scratch) || {
        let runs = merge_level(&data, &heads, scratch, workers);
        ping_pong(scratch, &mut data[..m], runs, workers)
    };
    if m < n && ping_pong(&mut tails, &mut data[m..], tail_runs, workers) {
        data[m..].copy_from_slice(&tails);
    }
    if in_scratch && m < n {
        data[..m].copy_from_slice(scratch);
    } else if in_scratch {
        std::mem::swap(&mut data, scratch);
    }
    data
}

/// One level of the tree: the runs `src[runs[2k]]` and `src[runs[2k + 1]]`
/// merged into run `k` of `dst`, an odd run out copied after them.
/// Returns where the level's runs lie in `dst`.
///
/// With many pairs, each thread handles a contiguous group of pairs
/// sequentially; with few pairs, the surplus budget parallelizes inside
/// each merge.
// `dst` is asserted to be as long as the runs together, and each pair's
// region is split off it in order. O(runs) jobs and ranges; never per element.
fn merge_level<T: Ord + Copy + Send + Sync>(
    src: &[T],
    runs: &[Range<usize>],
    dst: &mut [T],
    workers: usize,
) -> Vec<Range<usize>> {
    assert_eq!(
        runs.iter().map(|run| run.len()).sum::<usize>(),
        dst.len(),
        "a level's output holds its runs"
    );
    let workers = if dst.len() < PARALLEL_MERGE_CUTOFF {
        1
    } else {
        workers.max(1)
    };
    let mut jobs: Vec<(&[T], &[T], &mut [T])> = Vec::with_capacity(runs.len() / 2);
    let mut merged = Vec::with_capacity(runs.len().div_ceil(2));
    let mut rest: &mut [T] = dst;
    let mut at = 0;
    let pairs = runs.chunks_exact(2);
    let odd = pairs.remainder().first();
    for pair in pairs {
        let (a, b) = (&src[pair[0].clone()], &src[pair[1].clone()]);
        let (region, tail) = std::mem::take(&mut rest).split_at_mut(a.len() + b.len());
        rest = tail;
        merged.push(at..at + region.len());
        at += region.len();
        jobs.push((a, b, region));
    }
    // Odd run out (or nothing): carried to the next level unchanged.
    if let Some(run) = odd {
        rest.copy_from_slice(&src[run.clone()]);
        merged.push(at..at + rest.len());
    }

    let per_thread = jobs.len().div_ceil(workers);
    let per_merge = (workers / jobs.len()).max(1);
    let run = |group: &mut [(&[T], &[T], &mut [T])]| {
        for (a, b, region) in group {
            parallel_merge_into(a, b, region, per_merge);
        }
    };
    std::thread::scope(|scope| {
        let mut groups = jobs.chunks_mut(per_thread);
        let mine = groups.next();
        for group in groups {
            scope.spawn(move || run(group));
        }
        if let Some(group) = mine {
            run(group);
        }
    });
    merged
}

/// The tree's levels from the `runs` of `held` on, ping-ponging with
/// `other` (as long as `held`) until one run is left. Returns whether that
/// run is in `held`.
fn ping_pong<'a, T: Ord + Copy + Send + Sync>(
    mut held: &'a mut [T],
    mut other: &'a mut [T],
    mut runs: Vec<Range<usize>>,
    workers: usize,
) -> bool {
    let mut in_held = true;
    while runs.len() > 1 {
        runs = merge_level(held, &runs, other, workers);
        std::mem::swap(&mut held, &mut other);
        in_held = !in_held;
    }
    in_held
}

/// Copies the equal-key groups of the sorted runs `data[runs[r]]` into
/// `out`, smallest key first: a group is the prefix of every run up to its
/// smallest head `v` (`gallop_right`), in run order, which keeps the result
/// stable. Returns `true` once every key is copied, so `out` holds the
/// stable merge, and `false` as soon as the groups average fewer than
/// [`BLOCK`] keys a run, leaving `out` partly written.
// One cursor per run, each kept within its run by the gallop.
// O(runs) cursors per merge; never per element.
fn gather_groups<T: Ord + Copy>(data: &[T], runs: &[Range<usize>], out: &mut [T]) -> bool {
    let mut heads: Vec<usize> = runs.iter().map(|run| run.start).collect();
    let (mut copied, mut groups) = (0, 0);
    while let Some(v) = heads
        .iter()
        .zip(runs)
        .filter(|(&head, run)| head < run.end)
        .map(|(&head, _)| data[head])
        .min()
    {
        if copied < groups * BLOCK * runs.len() {
            return false;
        }
        groups += 1;
        for (head, run) in heads.iter_mut().zip(runs) {
            let len = gallop_right(&v, &data[*head..run.end]);
            out[copied..copied + len].copy_from_slice(&data[*head..*head + len]);
            (copied, *head) = (copied + len, *head + len);
        }
    }
    true
}

/// Plans a `parts`-way partition of a k-way merge: returns `parts + 1`
/// rows of per-run cut positions, where output part `i` is the merge of
/// `runs[j][rows[i][j]..rows[i + 1][j]]` over all `j`. Row `i` is the
/// stable k-way co-rank ([`multi_co_ranks`]) of output position
/// `i · total / parts`, so
///
/// * **monotonicity** — `rows[i][j] <= rows[i + 1][j]` for every run, with
///   `rows[0]` all zeros and `rows[parts]` the run lengths,
/// * **balance** — the parts differ by at most one key, and
/// * **order** — part `i` is exactly the `i`-th such stretch of the stable
///   merge of the runs (ties take the lower run),
///
/// so the parts can be merged independently into disjoint output segments
/// and their concatenation *is* the stable merge.
// The parts + 1 target ranks, next to the O(parts × k) plan they are solved
// into — sized by run and part counts.
pub fn plan_multiway_splits<T: Ord + Copy>(runs: &[&[T]], parts: usize) -> Vec<Vec<usize>> {
    let parts = parts.max(1);
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let ranks: Vec<usize> = (0..=parts).map(|i| i * total / parts).collect();
    multi_co_ranks(runs, &ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::even_chunk_bounds;

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
    #[should_panic(expected = "bounds[0] must be 0")]
    fn balanced_merge_rejects_bounds_that_skip_a_prefix() {
        // No merge writes `data[..2]`; it must not come back as scratch.
        balanced_merge(vec![9u64, 8, 1, 3, 2, 4], &[2, 4, 6], 1);
    }

    #[test]
    #[should_panic(expected = "bounds must not decrease: bounds[2] = 1 after bounds[1] = 3")]
    fn balanced_merge_rejects_decreasing_bounds() {
        balanced_merge(vec![1u64, 2, 3, 4], &[0, 3, 1, 4], 1);
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
                for (j, (lo, hi)) in rows[i].iter().zip(&rows[i + 1]).enumerate() {
                    assert!(lo <= hi, "row {i} run {j} not monotone");
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
            // Cut at exact ranks: no part is more than one key over.
            assert!(size <= ideal + 1, "part size {size} vs ideal {ideal}");
        }
    }
}
