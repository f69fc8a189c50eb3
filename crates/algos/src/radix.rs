//! LSD radix sort — the comparison-free classical baseline of §II.
//!
//! The paper notes radix sort "highly depends on the data characteristics"
//! and suffers irregular communication in its distributed form; the
//! distributed variant in `pgxd-baselines` is built on this local kernel.

/// Keys that expose a fixed-width unsigned radix image whose order matches
/// their `Ord` order.
pub trait RadixKey: Copy {
    /// Number of 8-bit digit passes needed.
    const PASSES: usize;
    /// The `d`-th least-significant byte of the order-preserving image.
    fn digit(self, d: usize) -> u8;
}

impl RadixKey for u64 {
    const PASSES: usize = 8;
    #[inline]
    fn digit(self, d: usize) -> u8 {
        (self >> (8 * d)) as u8
    }
}

impl RadixKey for u32 {
    const PASSES: usize = 4;
    #[inline]
    fn digit(self, d: usize) -> u8 {
        (self >> (8 * d)) as u8
    }
}

impl RadixKey for i64 {
    const PASSES: usize = 8;
    #[inline]
    fn digit(self, d: usize) -> u8 {
        // Bias to unsigned so negative values order below positive ones.
        (((self as u64) ^ (1u64 << 63)) >> (8 * d)) as u8
    }
}

/// Stable LSD radix sort with 8-bit digits and per-pass counting, skipping
/// passes where every key shares the same digit (common on duplicated or
/// small-range data). Allocates one internal scratch buffer; callers with
/// a buffer to recycle should use [`radix_sort_with_scratch`].
pub fn radix_sort<T: RadixKey>(data: &mut [T]) {
    let mut scratch = Vec::new();
    radix_sort_with_scratch(data, &mut scratch);
}

/// [`radix_sort`] into a caller-supplied scratch buffer (cleared and
/// refilled here; any prior capacity is reused). Callable on worker chunk
/// slices without per-chunk allocation.
pub fn radix_sort_with_scratch<T: RadixKey>(data: &mut [T], scratch: &mut Vec<T>) {
    let n = data.len();
    if n < 2 {
        return;
    }
    scratch.clear();
    scratch.extend_from_slice(data);

    let mut src_is_data = true;
    for pass in 0..T::PASSES {
        let (src, dst): (&mut [T], &mut [T]) = if src_is_data {
            (&mut *data, scratch.as_mut_slice())
        } else {
            (scratch.as_mut_slice(), &mut *data)
        };
        if !radix_pass(src, dst, pass) {
            continue; // degenerate pass: all keys share this digit
        }
        src_is_data = !src_is_data;
    }
    if !src_is_data {
        data.copy_from_slice(scratch);
    }
}

/// One counting pass: scatters `src` into `dst` by digit `pass`. Returns
/// `false` without writing when the pass is degenerate (every key shares
/// the digit), so the caller keeps its source/destination roles.
// Digits are u8 so the 256-entry count and offset tables cannot be
// out-indexed, and dst is the same length as src.
fn radix_pass<T: RadixKey>(src: &[T], dst: &mut [T], pass: usize) -> bool {
    let n = src.len();
    let mut counts = [0usize; 256];
    for &k in src.iter() {
        counts[k.digit(pass) as usize] += 1;
    }
    if counts.contains(&n) {
        return false;
    }
    let mut offsets = [0usize; 256];
    let mut running = 0;
    for (o, &c) in offsets.iter_mut().zip(counts.iter()) {
        *o = running;
        running += c;
    }
    for &k in src.iter() {
        let d = k.digit(pass) as usize;
        dst[offsets[d]] = k;
        offsets[d] += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift_vec(seed: u64, n: usize, modulus: u64) -> Vec<u64> {
        let mut x = seed | 1;
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
    fn sorts_u64_random() {
        let mut v = xorshift_vec(0x5151, 50_000, u64::MAX);
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_small_range_skips_passes() {
        let mut v = xorshift_vec(0x99, 10_000, 200); // only low byte varies
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_u32() {
        let mut v: Vec<u32> = xorshift_vec(0x3, 20_000, 1 << 31)
            .into_iter()
            .map(|x| x as u32)
            .collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_i64_with_negatives() {
        let mut v: Vec<i64> = xorshift_vec(0x42, 20_000, u64::MAX)
            .into_iter()
            .map(|x| x as i64)
            .collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_edges() {
        let mut v: Vec<u64> = vec![];
        radix_sort(&mut v);
        let mut v = vec![9u64];
        radix_sort(&mut v);
        assert_eq!(v, vec![9]);
        let mut v = vec![u64::MAX, 0, u64::MAX, 1];
        radix_sort(&mut v);
        assert_eq!(v, vec![0, 1, u64::MAX, u64::MAX]);
    }

    #[test]
    fn all_equal() {
        let mut v = vec![123456789u64; 5000];
        let expect = v.clone();
        radix_sort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_subslice_only() {
        // The slice API must leave everything outside the slice alone.
        let mut v = xorshift_vec(0x77, 1000, u64::MAX);
        let before_head = v[..10].to_vec();
        let mut expect_mid = v[10..990].to_vec();
        expect_mid.sort_unstable();
        let before_tail = v[990..].to_vec();
        radix_sort(&mut v[10..990]);
        assert_eq!(&v[..10], &before_head[..]);
        assert_eq!(&v[10..990], &expect_mid[..]);
        assert_eq!(&v[990..], &before_tail[..]);
    }

    #[test]
    fn scratch_reuse_across_calls() {
        let mut scratch = Vec::new();
        for seed in [1u64, 2, 3] {
            let mut v = xorshift_vec(seed, 4096, 1 << 40);
            let mut expect = v.clone();
            expect.sort_unstable();
            radix_sort_with_scratch(&mut v, &mut scratch);
            assert_eq!(v, expect);
        }
        assert!(scratch.capacity() >= 4096);
    }
}
