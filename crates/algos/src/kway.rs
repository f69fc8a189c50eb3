//! Loser-tree k-way merge.
//!
//! One comparison per tree level per emitted element instead of the
//! `log₂ k`-swap churn of a binary heap. The sorter calls none of it: step
//! 1 combines its per-worker runs with the Fig. 2 tree
//! ([`balanced_merge_with`](crate::merge::balanced_merge_with)): two of
//! its levels cost about 4 ns a key at `k = 4`, the loser tree 24. What
//! still calls it: `exp`'s merge comparison (`kway_merge_into` against
//! the tree), the benchmark harness's replay of the old step-1 merge (a
//! part of the [`plan_multiway_splits`](crate::merge::plan_multiway_splits)
//! plan per worker), and the tests, where the owned-output [`kway_merge`]
//! is the reference that step 3's rank selection
//! ([`crate::search::multi_co_ranks`]) is checked against.

/// A tournament loser tree over `k` sorted runs.
///
/// The tree stores, at each internal node, the *loser* of the match played
/// there; the overall winner (smallest head) sits at the root. Advancing
/// the winner replays only its leaf-to-root path: `O(log k)` comparisons
/// per emitted element, independent of how the other runs interleave.
pub struct LoserTree<'a, T> {
    runs: Vec<&'a [T]>,
    /// Cursor into each run.
    cursors: Vec<usize>,
    /// `tree[n]` = run index that *lost* the match at internal node `n`;
    /// `tree[0]` holds the overall winner.
    tree: Vec<usize>,
    k: usize,
}

impl<'a, T: Ord + Copy> LoserTree<'a, T> {
    /// Builds the tree over the given sorted runs (empty runs allowed).
    // O(k) run pointers and tree nodes per merge; k is the run count, never
    // the element count.
    pub fn new(runs: Vec<&'a [T]>) -> Self {
        let k = runs.len().max(1);
        let mut lt = LoserTree {
            cursors: vec![0; runs.len()],
            runs,
            tree: vec![usize::MAX; k],
            k,
        };
        lt.rebuild();
        lt
    }

    /// Key at the head of run `r`, or `None` if exhausted.
    // `r` is checked against the run count, and `cursors` has one entry per
    // run.
    #[inline]
    fn head(&self, r: usize) -> Option<T> {
        if r < self.runs.len() {
            self.runs[r].get(self.cursors[r]).copied()
        } else {
            None
        }
    }

    /// `true` if run `a`'s head should win against run `b`'s head.
    /// Exhausted runs always lose; ties break toward the lower run index
    /// so the merge is stable in run order.
    #[inline]
    fn beats(&self, a: usize, b: usize) -> bool {
        match (self.head(a), self.head(b)) {
            (Some(x), Some(y)) => x < y || (x == y && a < b),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }

    /// Recomputes the whole tree bottom-up.
    ///
    /// Conceptual layout: a complete binary tree over `2k` positions with
    /// the `k` leaves at positions `k..2k`; internal node `n` plays the
    /// winners of positions `2n` and `2n+1`, storing the loser in
    /// `tree[n]`. Run index `usize::MAX` is a virtual "always loses" run
    /// that pads positions with no real leaf.
    // `winner` has 2k slots and `tree` k; every node index is below k, so its
    // children are below 2k.
    // O(k) node reset when a merge is re-seeded; amortized over the whole
    // merged output.
    fn rebuild(&mut self) {
        let k = self.k;
        self.tree = vec![usize::MAX; k];
        let mut winner = vec![usize::MAX; 2 * k];
        for (r, slot) in winner[k..].iter_mut().enumerate() {
            if r < self.runs.len() {
                *slot = r;
            }
        }
        for node in (1..k).rev() {
            let a = winner[2 * node];
            let b = winner[2 * node + 1];
            let (w, l) = if self.beats(a, b) { (a, b) } else { (b, a) };
            winner[node] = w;
            self.tree[node] = l;
        }
        self.tree[0] = winner[1.min(2 * k - 1)];
    }

    /// Pops the smallest remaining element across all runs, with the index
    /// of the run it came from.
    // `tree` holds k ≥ 1 nodes, a winner is a real run index (< k), and its
    // leaf-to-root path stays below k.
    pub fn pop(&mut self) -> Option<(T, usize)> {
        let winner = self.tree[0];
        if winner == usize::MAX {
            return None;
        }
        let value = self.head(winner)?;
        self.cursors[winner] += 1;
        // Replay the winner's path with its new head.
        let mut node = (winner + self.k) / 2;
        let mut current = winner;
        while node > 0 {
            let stored = self.tree[node];
            if stored != usize::MAX && self.beats(stored, current) {
                self.tree[node] = current;
                current = stored;
            }
            node /= 2;
        }
        self.tree[0] = current;
        Some((value, winner))
    }

    /// Total remaining elements across all runs.
    pub fn remaining(&self) -> usize {
        self.runs
            .iter()
            .zip(&self.cursors)
            .map(|(run, &c)| run.len() - c)
            .sum()
    }
}

/// Merges `k` sorted runs into one sorted vector with a loser tree, ties
/// taking the lower run. No caller outside tests: it is the stable merge
/// spelled out, the reference [`crate::search::multi_co_rank`] and the
/// master's splitter selection are checked against.
// O(k) run-slice copies plus the output vector — the output IS the merge
// result handed back to the caller.
pub fn kway_merge<T: Ord + Copy>(runs: &[&[T]]) -> Vec<T> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut tree = LoserTree::new(runs.to_vec());
    while let Some((v, _)) = tree.pop() {
        out.push(v);
    }
    debug_assert_eq!(out.len(), total);
    out
}

/// Merges `k` sorted runs into a caller-provided output slice whose length
/// must equal the total run length. The allocation-free form of
/// [`kway_merge`], used by the parallel multiway merge to fill disjoint
/// output segments in place.
// Each arm reads only the runs its length matched, and the tree holds exactly
// `out.len()` elements (asserted).
// O(k) run-slice copy to seed the loser tree; the element payload goes to
// the caller-provided slice.
pub fn kway_merge_into<T: Ord + Copy>(runs: &[&[T]], out: &mut [T]) {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    assert_eq!(total, out.len(), "output size mismatch");
    match runs.len() {
        0 => {}
        1 => out.copy_from_slice(runs[0]),
        2 => crate::merge::merge_into(runs[0], runs[1], out),
        _ => {
            let mut tree = LoserTree::new(runs.to_vec());
            for slot in out.iter_mut() {
                let (v, _) = tree.pop().expect("loser tree exhausted early");
                *slot = v;
            }
            debug_assert_eq!(tree.remaining(), 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift_runs(k: usize, n: usize, modulus: u64) -> Vec<Vec<u64>> {
        let mut x: u64 = 0xa5a5a5a5deadbeef;
        (0..k)
            .map(|i| {
                let mut run: Vec<u64> = (0..n + i)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x % modulus
                    })
                    .collect();
                run.sort_unstable();
                run
            })
            .collect()
    }

    #[test]
    fn merges_three_runs() {
        let runs = [vec![1u64, 4, 7], vec![2, 5, 8], vec![3, 6, 9]];
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        assert_eq!(kway_merge(&refs), vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn merges_with_empty_runs() {
        let runs = [vec![], vec![1u64, 2], vec![], vec![0, 3], vec![]];
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        assert_eq!(kway_merge(&refs), vec![0, 1, 2, 3]);
    }

    #[test]
    fn merges_single_run_and_none() {
        let run = vec![1u64, 2, 3];
        assert_eq!(kway_merge(&[run.as_slice()]), vec![1, 2, 3]);
        let empty: Vec<&[u64]> = vec![];
        assert_eq!(kway_merge(&empty), Vec::<u64>::new());
    }

    #[test]
    fn matches_flat_sort_various_k() {
        for k in [1usize, 2, 3, 5, 8, 13, 16, 31] {
            let runs = xorshift_runs(k, 500, 100);
            let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
            let merged = kway_merge(&refs);
            let mut expect: Vec<u64> = runs.iter().flatten().copied().collect();
            expect.sort_unstable();
            assert_eq!(merged, expect, "k={k}");
        }
    }

    #[test]
    fn pop_reports_source_run_and_ties_prefer_lower_run() {
        let popped = |runs: &[Vec<u64>]| {
            let mut tree = LoserTree::new(runs.iter().map(|r| r.as_slice()).collect());
            std::iter::from_fn(|| tree.pop()).collect::<Vec<_>>()
        };
        assert_eq!(
            popped(&[vec![1, 3], vec![2, 3]]),
            vec![(1, 0), (2, 1), (3, 0), (3, 1)]
        );
        let sources: Vec<usize> = popped(&[vec![5, 5], vec![5, 5], vec![5]])
            .iter()
            .map(|&(_, s)| s)
            .collect();
        assert_eq!(sources, vec![0, 0, 1, 1, 2]);
    }

    #[test]
    fn remaining_counts_down() {
        let runs = [vec![1u64, 2], vec![3]];
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let mut tree = LoserTree::new(refs);
        assert_eq!(tree.remaining(), 3);
        tree.pop();
        assert_eq!(tree.remaining(), 2);
        tree.pop();
        tree.pop();
        assert_eq!(tree.remaining(), 0);
        assert_eq!(tree.pop(), None);
    }

    #[test]
    fn all_duplicates_heavy() {
        let runs = xorshift_runs(7, 2000, 2);
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let merged = kway_merge(&refs);
        let mut expect: Vec<u64> = runs.iter().flatten().copied().collect();
        expect.sort_unstable();
        assert_eq!(merged, expect);
    }
}
