//! Property tests: every sorting kernel produces a sorted permutation of
//! its input for arbitrary data, and the search/merge primitives agree
//! with their `std` reference implementations.

use pgxd_algos::insertion::binary_insertion_sort;
use pgxd_algos::kway::{kway_merge, kway_merge_into, LoserTree};
use pgxd_algos::merge::{balanced_merge, merge_into, parallel_merge_into, plan_multiway_splits};
use pgxd_algos::quicksort::quicksort;
use pgxd_algos::search::{gallop_left, gallop_right, lower_bound, multi_co_ranks, upper_bound};
use pgxd_algos::timsort::timsort;
use pgxd_datagen::cases::{check, Gen};

fn sorted_copy(v: &[u64]) -> Vec<u64> {
    let mut s = v.to_vec();
    s.sort();
    s
}

/// Cases per property.
const CASES: u32 = 64;

#[test]
fn quicksort_sorts_anything() {
    check(CASES, |g| {
        let mut v = g.vec(0..2000, Gen::u64);
        let expect = sorted_copy(&v);
        quicksort(&mut v);
        assert_eq!(v, expect);
    });
}

#[test]
fn quicksort_heavy_duplicates() {
    check(CASES, |g| {
        let mut v = g.vec(0..2000, |g| g.u64_in(0..4));
        let expect = sorted_copy(&v);
        quicksort(&mut v);
        assert_eq!(v, expect);
    });
}

#[test]
fn timsort_sorts_anything() {
    check(CASES, |g| {
        let mut v = g.vec(0..2000, Gen::u64);
        let expect = sorted_copy(&v);
        timsort(&mut v);
        assert_eq!(v, expect);
    });
}

#[test]
fn timsort_sorts_runny_data() {
    check(CASES, |g| {
        let runs = g.vec(1..20, |g| g.vec(1..100, Gen::u64));
        let reverse_mask = g.u32();
        // Concatenated pre-sorted (possibly reversed) runs — the natural-
        // run detector's home turf.
        let mut v = Vec::new();
        for (i, mut run) in runs.into_iter().enumerate() {
            run.sort();
            if reverse_mask >> (i % 32) & 1 == 1 {
                run.reverse();
            }
            v.extend(run);
        }
        let expect = sorted_copy(&v);
        timsort(&mut v);
        assert_eq!(v, expect);
    });
}

#[test]
fn binary_insertion_respects_sorted_prefix() {
    check(CASES, |g| {
        let mut prefix = g.vec(0..100, Gen::u64);
        let suffix = g.vec(0..100, Gen::u64);
        prefix.sort();
        let sorted_len = prefix.len();
        let mut v = prefix;
        v.extend(suffix);
        let expect = sorted_copy(&v);
        binary_insertion_sort(&mut v, sorted_len);
        assert_eq!(v, expect);
    });
}

#[test]
fn kway_merge_into_matches_kway_merge() {
    check(CASES, |g| {
        let mut runs = g.vec(0..10, |g| g.vec(0..200, Gen::u64));
        for r in &mut runs {
            r.sort();
        }
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let expect = kway_merge(&refs);
        let mut out = vec![0u64; expect.len()];
        kway_merge_into(&refs, &mut out);
        assert_eq!(out, expect);
    });
}

#[test]
fn multiway_split_plan_invariants() {
    check(CASES, |g| {
        let mut runs = g.vec(1..8, |g| g.vec(0..400, Gen::u64));
        let parts = g.usize_in(1..9);
        for r in &mut runs {
            r.sort();
        }
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let rows = plan_multiway_splits(&refs, parts);
        assert_eq!(rows.len(), parts + 1);
        assert_eq!(&rows[0], &vec![0usize; refs.len()]);
        let lens: Vec<usize> = refs.iter().map(|r| r.len()).collect();
        assert_eq!(&rows[parts], &lens);
        for i in 0..parts {
            for (lo, hi) in rows[i].iter().zip(&rows[i + 1]) {
                assert!(lo <= hi);
            }
            let part_max = (0..refs.len())
                .filter(|&j| rows[i + 1][j] > rows[i][j])
                .map(|j| refs[j][rows[i + 1][j] - 1])
                .max();
            if i + 1 < parts {
                let next_min = (0..refs.len())
                    .filter(|&j| rows[i + 2][j] > rows[i + 1][j])
                    .map(|j| refs[j][rows[i + 1][j]])
                    .min();
                if let (Some(mx), Some(mn)) = (part_max, next_min) {
                    assert!(mx <= mn);
                }
            }
        }
    });
}

#[test]
fn merge_into_merges() {
    check(CASES, |g| {
        let mut a = g.vec(0..500, Gen::u64);
        let mut b = g.vec(0..500, Gen::u64);
        a.sort();
        b.sort();
        let mut out = vec![0u64; a.len() + b.len()];
        merge_into(&a, &b, &mut out);
        let mut expect = a.clone();
        expect.extend(&b);
        expect.sort();
        assert_eq!(out, expect);
    });
}

#[test]
fn parallel_merge_matches_sequential() {
    check(CASES, |g| {
        let mut a = g.vec(0..2000, Gen::u64);
        let mut b = g.vec(0..2000, Gen::u64);
        let workers = g.usize_in(1..8);
        a.sort();
        b.sort();
        let mut seq = vec![0u64; a.len() + b.len()];
        merge_into(&a, &b, &mut seq);
        let mut par = vec![0u64; a.len() + b.len()];
        parallel_merge_into(&a, &b, &mut par, workers);
        assert_eq!(seq, par);
    });
}

#[test]
fn balanced_merge_of_sorted_runs() {
    check(CASES, |g| {
        let mut runs = g.vec(1..12, |g| g.vec(0..300, Gen::u64));
        let workers = g.usize_in(1..5);
        for r in &mut runs {
            r.sort();
        }
        let mut bounds = vec![0usize];
        let mut data = Vec::new();
        for r in &runs {
            data.extend(r);
            bounds.push(data.len());
        }
        let expect = sorted_copy(&data);
        assert_eq!(balanced_merge(data, &bounds, workers), expect);
    });
}

#[test]
fn kway_merge_matches_std() {
    check(CASES, |g| {
        let mut runs = g.vec(0..10, |g| g.vec(0..200, Gen::u64));
        for r in &mut runs {
            r.sort();
        }
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let mut expect: Vec<u64> = runs.iter().flatten().copied().collect();
        expect.sort();
        assert_eq!(kway_merge(&refs), expect);
    });
}

#[test]
fn loser_tree_provenance_valid() {
    check(CASES, |g| {
        let mut runs = g.vec(1..8, |g| g.vec(0..100, Gen::u64));
        for r in &mut runs {
            r.sort();
        }
        let mut tree = LoserTree::new(runs.iter().map(|r| r.as_slice()).collect());
        // Each output element exists in its claimed source run, consumed
        // in order.
        let mut cursors = vec![0usize; runs.len()];
        while let Some((value, src)) = tree.pop() {
            assert_eq!(runs[src][cursors[src]], value);
            cursors[src] += 1;
        }
        for (src, c) in cursors.iter().enumerate() {
            assert_eq!(*c, runs[src].len());
        }
    });
}

#[test]
fn multi_co_ranks_cuts_follow_the_stable_merge() {
    check(CASES, |g| {
        let keys = g.vec(1..10, |g| g.vec(0..40, Gen::u64));
        let modulus = g.select(&[1u64, 2, 5, 300, u64::MAX]);
        // (key, run) compared by key alone: only a stable merge says which
        // run an equal key is taken from.
        #[derive(Clone, Copy, Debug)]
        struct Tagged(u64, usize);
        impl PartialEq for Tagged {
            fn eq(&self, o: &Self) -> bool {
                self.0 == o.0
            }
        }
        impl Eq for Tagged {}
        impl PartialOrd for Tagged {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for Tagged {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                self.0.cmp(&o.0)
            }
        }
        let runs: Vec<Vec<Tagged>> = keys
            .iter()
            .enumerate()
            .map(|(run, keys)| {
                let mut keys: Vec<u64> = keys.iter().map(|k| k % modulus).collect();
                keys.sort();
                keys.into_iter().map(|k| Tagged(k, run)).collect()
            })
            .collect();
        let refs: Vec<&[Tagged]> = runs.iter().map(|r| r.as_slice()).collect();
        let merged = kway_merge(&refs);
        let all_ranks: Vec<usize> = (0..=merged.len()).collect();
        let rows = multi_co_ranks(&refs, &all_ranks);
        // The cuts of rank r: how many of the merge's first r each run gave.
        let mut taken = vec![0usize; runs.len()];
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.iter().sum::<usize>(), r);
            assert_eq!(row, &taken, "rank {} of {}", r, merged.len());
            if let Some(next) = merged.get(r) {
                taken[next.1] += 1;
            }
        }
    });
}

#[test]
fn gallops_match_bounds() {
    check(CASES, |g| {
        let mut v = g.vec(0..400, |g| g.u64_in(0..100));
        let key = g.u64_in(0..110);
        v.sort();
        assert_eq!(gallop_left(&key, &v), lower_bound(&v, &key));
        assert_eq!(gallop_right(&key, &v), upper_bound(&v, &key));
    });
}

#[test]
fn bounds_match_partition_point() {
    check(CASES, |g| {
        let mut v = g.vec(0..300, |g| g.u64_in(0..50));
        let key = g.u64_in(0..55);
        v.sort();
        assert_eq!(lower_bound(&v, &key), v.partition_point(|&x| x < key));
        assert_eq!(upper_bound(&v, &key), v.partition_point(|&x| x <= key));
    });
}

#[test]
fn timsort_stability() {
    check(CASES, |g| {
        let v = g.vec(0..1500, |g| g.u32_in(0..16));
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        struct Tagged(u32, u32);
        impl PartialOrd for Tagged {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for Tagged {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                self.0.cmp(&o.0)
            }
        }
        let mut tagged: Vec<Tagged> = v
            .iter()
            .enumerate()
            .map(|(i, &k)| Tagged(k, i as u32))
            .collect();
        timsort(&mut tagged);
        for w in tagged.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1);
            }
        }
    });
}
