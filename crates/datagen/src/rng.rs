//! The workspace's one pseudo-random generator, and the chunked fill the
//! generators share.
//!
//! splitmix64 (Steele, Lea, Flood 2014): a 64-bit counter pushed through a
//! bijective mixer. Every seed is a good seed, nearby seeds give unrelated
//! streams — which is what per-chunk and per-case seeding relies on — and
//! the whole generator is ten lines, so the workloads depend on no crate
//! whose stream could change under them.

use std::ops::Range;

/// A seeded splitmix64 stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw from `range`, which must not be empty. Multiply-shift, so a
    /// value's probability is off by at most `2^-64` — exact for the
    /// power-of-two spans the key distributions use.
    pub fn range_u64(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range {range:?}");
        let span = u128::from(range.end - range.start);
        range.start + ((u128::from(self.next_u64()) * span) >> 64) as u64
    }

    /// [`range_u64`](Self::range_u64) for `u32` bounds.
    pub fn range_u32(&mut self, range: Range<u32>) -> u32 {
        self.range_u64(u64::from(range.start)..u64::from(range.end)) as u32
    }

    /// A draw from `[range.start, range.end)`: the top 53 bits scaled into
    /// the interval.
    pub fn range_f64(&mut self, range: Range<f64>) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        range.start + (range.end - range.start) * unit
    }
}

/// Fills `out` in chunks of `chunk` items: `fill(c, slice)` writes chunk
/// `c`, the items `c * chunk ..` of `out`. Chunks are spread over `threads`
/// scoped threads, so `fill` must derive everything from `c` — then the
/// result is the same for every thread count.
pub(crate) fn fill_chunked<T: Send>(
    out: &mut [T],
    chunk: usize,
    threads: usize,
    fill: impl Fn(usize, &mut [T]) + Sync,
) {
    let chunks = out.len().div_ceil(chunk);
    let per_thread = chunks.div_ceil(threads.max(1)).max(1);
    // Thread `t`'s share: `per_thread` consecutive chunks.
    let fill_share = |t: usize, share: &mut [T]| {
        for (c, slice) in share.chunks_mut(chunk).enumerate() {
            fill(t * per_thread + c, slice);
        }
    };
    if per_thread >= chunks {
        return fill_share(0, out);
    }
    std::thread::scope(|scope| {
        for (t, share) in out.chunks_mut(per_thread * chunk).enumerate() {
            scope.spawn(move || fill_share(t, share));
        }
    });
}

/// Threads a generator spreads its chunks over: the host's parallelism.
pub(crate) fn generator_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_stream() {
        // Vigna's splitmix64.c from state 0 — the published test vector.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn range_draws_stay_inside_and_reach_both_ends() {
        let mut rng = SplitMix64::new(7);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let x = rng.range_u64(10..15);
            assert!((10..15).contains(&x));
            seen[(x - 10) as usize] = true;
            assert!((3..9).contains(&rng.range_u32(3..9)));
            let f = rng.range_f64(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&f));
        }
        assert_eq!(seen, [true; 5]);
        assert_eq!(rng.range_u64(u64::MAX - 1..u64::MAX), u64::MAX - 1);
    }

    #[test]
    fn chunked_fill_is_the_same_for_every_thread_count() {
        let fill = |c: usize, slice: &mut [u64]| {
            for (i, x) in slice.iter_mut().enumerate() {
                *x = (c * 1000 + i) as u64;
            }
        };
        for len in [0usize, 1, 7, 8, 9, 64, 65] {
            let mut one = vec![0u64; len];
            fill_chunked(&mut one, 8, 1, fill);
            let expect: Vec<u64> = (0..len).map(|i| (i / 8 * 1000 + i % 8) as u64).collect();
            assert_eq!(one, expect, "len {len}");
            for threads in [0usize, 2, 3, 16] {
                let mut many = vec![0u64; len];
                fill_chunked(&mut many, 8, threads, fill);
                assert_eq!(many, one, "len {len}, {threads} threads");
            }
        }
    }
}
