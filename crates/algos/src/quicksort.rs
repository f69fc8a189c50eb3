//! Sequential quicksort — the per-worker local sort of §IV step 1.
//!
//! The kernel is the standard library's `sort_unstable`: a
//! pattern-defeating quicksort (branchless partitioning, small-sort
//! networks, a heapsort fallback that bounds the worst case at
//! `O(n log n)`, and run detection that finishes already-ordered input in
//! one pass). It is a quicksort, in place and allocation-free, so the
//! paper's "every worker quicksorts its chunk" holds as written.

/// Sorts `data` in place.
pub fn quicksort<T: Ord + Copy>(data: &mut [T]) {
    data.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TotalF64;
    use std::cell::Cell;
    use std::cmp::Ordering;

    /// `sort_unstable` is the kernel under test, so the oracle is the
    /// (independent, stable) merge sort.
    fn check_sorts(mut v: Vec<u64>) {
        let mut expect = v.clone();
        expect.sort();
        quicksort(&mut v);
        assert_eq!(v, expect);
    }

    fn xorshift_vec(n: usize, modulus: u64) -> Vec<u64> {
        let mut x: u64 = 0x853c49e6748fea9b;
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
    fn sorts_random() {
        check_sorts(xorshift_vec(10_000, u64::MAX));
    }

    #[test]
    fn sorts_many_duplicates() {
        check_sorts(xorshift_vec(10_000, 4));
    }

    #[test]
    fn sorts_sorted_and_reverse() {
        check_sorts((0..5000).collect());
        check_sorts((0..5000).rev().collect());
    }

    #[test]
    fn sorts_all_equal() {
        check_sorts(vec![9; 4096]);
    }

    #[test]
    fn sorts_organ_pipe() {
        check_sorts((0..2500).chain((0..2500).rev()).collect());
    }

    #[test]
    fn sorts_sawtooth() {
        // Ascending and descending teeth of a period that divides nothing.
        check_sorts((0..10_000).map(|i| i % 37).collect());
        check_sorts((0..10_000).map(|i| 36 - i % 37).collect());
    }

    #[test]
    fn sorts_tiny() {
        check_sorts(vec![]);
        check_sorts(vec![1]);
        check_sorts(vec![2, 1]);
        check_sorts(vec![2, 1, 3]);
    }

    #[test]
    fn sorts_floats_with_nans_by_the_total_order() {
        // The kernel requires a total order; `TotalF64` is one, NaNs and
        // signed zeros included.
        let specials = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut v: Vec<TotalF64> = xorshift_vec(5000, 1 << 20)
            .into_iter()
            .enumerate()
            .map(|(i, x)| match i % 50 {
                0 => specials[i / 50 % specials.len()],
                _ => x as f64 - 524_288.0,
            })
            .map(TotalF64)
            .collect();
        let mut expect = v.clone();
        expect.sort();
        quicksort(&mut v);
        assert!(v.windows(2).all(|w| w[0].cmp(&w[1]) != Ordering::Greater));
        let bits = |v: &[TotalF64]| v.iter().map(|x| x.0.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&v), bits(&expect));
        assert!(v[0].0.is_nan() && v[0].0.is_sign_negative());
        assert!(v[v.len() - 1].0.is_nan() && v[v.len() - 1].0.is_sign_positive());
    }

    thread_local! {
        static COMPARISONS: Cell<u64> = const { Cell::new(0) };
    }

    /// A key whose every comparison is counted.
    #[derive(Clone, Copy, PartialEq, Eq)]
    struct Counted(u64);

    impl PartialOrd for Counted {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Counted {
        fn cmp(&self, other: &Self) -> Ordering {
            COMPARISONS.with(|c| c.set(c.get() + 1));
            self.0.cmp(&other.0)
        }
    }

    #[test]
    fn ordered_input_costs_a_linear_number_of_comparisons() {
        // The shapes graph-derived keys arrive in (Fig. 4d, degree
        // arrays): a kernel that spends n·log n on them wastes step 1.
        let n = 1u64 << 16;
        type KeyOf = fn(u64) -> u64;
        let shapes: [(&str, KeyOf); 3] = [
            ("all equal", |_| 7),
            ("ascending", |i| i),
            ("descending", |i| u64::MAX - i),
        ];
        for (name, key) in shapes {
            let mut v: Vec<Counted> = (0..n).map(|i| Counted(key(i))).collect();
            COMPARISONS.with(|c| c.set(0));
            quicksort(&mut v);
            let spent = COMPARISONS.with(Cell::get);
            assert!(v.windows(2).all(|w| w[0].0 <= w[1].0), "{name}: not sorted");
            assert!(spent <= 2 * n, "{name}: {spent} comparisons for {n} keys");
        }
    }
}
