//! Binary insertion sort: the run-bulking step of TimSort.

/// Binary insertion sort over `data[..len]` assuming `data[..sorted]` is
/// already sorted. This is TimSort's run-extension primitive: the position
/// of each new element is found by binary search (fewer comparisons than
/// plain insertion when comparisons are the cost), then the tail is shifted.
pub fn binary_insertion_sort<T: Ord + Copy>(data: &mut [T], sorted: usize) {
    for i in sorted.max(1)..data.len() {
        let value = data[i];
        // Rightmost insertion point keeps the sort stable for equal keys.
        let pos = match data[..i].binary_search_by(|probe| {
            if *probe <= value {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        }) {
            Ok(p) | Err(p) => p,
        };
        data.copy_within(pos..i, pos + 1);
        data[pos] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_insertion_with_sorted_prefix() {
        let mut v = vec![1, 3, 5, 7, 2, 8, 0];
        binary_insertion_sort(&mut v, 4);
        assert_eq!(v, vec![0, 1, 2, 3, 5, 7, 8]);
    }

    #[test]
    fn binary_insertion_from_scratch() {
        let mut v = vec![9i64, -3, 4, 4, 0, 11, -3];
        binary_insertion_sort(&mut v, 0);
        assert_eq!(v, vec![-3, -3, 0, 4, 4, 9, 11]);
    }

    #[test]
    fn binary_insertion_matches_std() {
        // deterministic pseudo-random data, no external RNG needed here
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut v: Vec<u64> = (0..200)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 50
            })
            .collect();
        let mut expect = v.clone();
        expect.sort();
        binary_insertion_sort(&mut v, 0);
        assert_eq!(v, expect);
    }
}
