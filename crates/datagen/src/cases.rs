//! A deterministic case loop for property tests: generated inputs from
//! [`SplitMix64`], no dependency, no environment.
//!
//! A property is a closure that draws its input from a [`Gen`] and asserts
//! on it; [`check`] runs it on a fixed number of cases:
//!
//! ```
//! use pgxd_datagen::cases::{check, Gen};
//!
//! check(64, |g| {
//!     let mut v = g.vec(0..200, Gen::u64);
//!     let machines = g.usize_in(1..7);
//!     v.sort_unstable();
//!     assert!(v.windows(2).all(|w| w[0] <= w[1]), "{machines} machines");
//! });
//! ```
//!
//! Every case is one `u64`, its *seed*, which fixes the whole input: the
//! stream the draws come from and the case's *size*, the share of each
//! length range [`Gen::vec`] may use. Sizes grow over the first half of a
//! run and stay full for the second, so the first case to fail is a small
//! one. A failing run names that case's seed, and [`replay`] with the seed
//! and the same closure runs exactly that input again, alone, under a
//! debugger or with prints added — there is nothing else to configure.
//!
//! The cases of a `check` are a function of where it is written (file, line,
//! column) and nothing else, so a run repeats from machine to machine until
//! the test moves.

use crate::rng::SplitMix64;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe, Location};

/// A seed's low bits hold its size, minus one, in units of `1 / FULL_SIZE`.
const FULL_SIZE: u64 = 1 << 10;

/// The input source of one case.
#[derive(Debug)]
pub struct Gen {
    rng: SplitMix64,
    /// `1..=FULL_SIZE`: the share of a length range this case may use.
    size: u64,
}

impl Gen {
    /// The input source of case `seed`. Every `u64` is a valid seed.
    pub fn from_seed(seed: u64) -> Gen {
        Gen {
            rng: SplitMix64::new(seed),
            size: seed % FULL_SIZE + 1,
        }
    }

    /// Any `u64`.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Any `u32`.
    pub fn u32(&mut self) -> u32 {
        (self.rng.next_u64() >> 32) as u32
    }

    /// A `u64` from `range`, uniform whatever the case's size.
    pub fn u64_in(&mut self, range: Range<u64>) -> u64 {
        self.rng.range_u64(range)
    }

    /// A `u32` from `range`, uniform whatever the case's size.
    pub fn u32_in(&mut self, range: Range<u32>) -> u32 {
        self.rng.range_u32(range)
    }

    /// A `usize` from `range`, uniform whatever the case's size.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.rng.range_u64(range.start as u64..range.end as u64) as usize
    }

    /// One of `options`.
    pub fn select<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.usize_in(0..options.len())]
    }

    /// A vector whose length is drawn from the low end of `len` — as much of
    /// the range as the case's size allows, all of it at full size — and
    /// whose items are drawn by `item`, which may itself call `vec`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        assert!(len.start < len.end, "empty length range {len:?}");
        let span = (len.end - len.start) as u64;
        let allowed = (span * self.size).div_ceil(FULL_SIZE) as usize;
        let n = self.usize_in(len.start..len.start + allowed);
        (0..n).map(|_| item(self)).collect()
    }
}

/// The seed of case `index` of `cases` on `stream`: a hash of the three,
/// with the size in its low bits — ramping up over the first half of the
/// run, full from there on.
fn case_seed(stream: u64, index: u32, cases: u32) -> u64 {
    let hash = SplitMix64::new(stream.wrapping_add(u64::from(index))).next_u64();
    let ramp = 2 * FULL_SIZE * u64::from(index) / u64::from(cases);
    let size = (ramp + 1).min(FULL_SIZE);
    hash / FULL_SIZE * FULL_SIZE + (size - 1)
}

/// FNV-1a of a source position: the stream a `check` written there draws
/// its case seeds from.
fn stream_of(at: &Location<'_>) -> u64 {
    let position = [at.line().to_le_bytes(), at.column().to_le_bytes()];
    let bytes = at.file().bytes().chain(position.into_iter().flatten());
    bytes.fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `property` on `cases` generated inputs, small ones first. Panics if
/// one fails, naming the seed that [`replay`] takes to run it again.
#[track_caller]
pub fn check(cases: u32, property: impl Fn(&mut Gen)) {
    if let Some(seed) = first_failure(cases, property) {
        panic!(
            "property failed at case seed {seed:#x} (its own panic is printed above); \
             `replay({seed:#x}, ..)` with the same closure runs that input alone"
        );
    }
}

/// The loop of [`check`]: the seed of the first case on which `property`
/// panics, `None` if it holds on all `cases`.
#[track_caller]
fn first_failure(cases: u32, property: impl Fn(&mut Gen)) -> Option<u64> {
    let stream = stream_of(Location::caller());
    (0..cases)
        .map(|index| case_seed(stream, index, cases))
        .find(|&seed| catch_unwind(AssertUnwindSafe(|| replay(seed, &property))).is_err())
}

/// Runs `property` on the one input that case `seed` generates.
pub fn replay(seed: u64, property: impl Fn(&mut Gen)) {
    property(&mut Gen::from_seed(seed));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    #[test]
    fn a_true_property_runs_every_case() {
        let runs = Cell::new(0);
        check(24, |g| {
            runs.set(runs.get() + 1);
            let v = g.vec(3..40, |g| g.u64_in(5..9));
            assert!((3..40).contains(&v.len()));
            assert!(v.iter().all(|x| (5..9).contains(x)));
            assert!([2usize, 3, 5].contains(&g.select(&[2usize, 3, 5])));
        });
        assert_eq!(runs.get(), 24);
    }

    #[test]
    fn a_false_property_reports_a_seed_and_the_seed_replays_its_input() {
        // False for every input of 20 items or more; remembers its last one.
        let last = RefCell::new(Vec::new());
        let property = |g: &mut Gen| {
            let v = g.vec(0..200, |g| g.vec(0..3, Gen::u64));
            last.replace(v.clone());
            assert!(v.len() < 20, "deliberately false: {} items", v.len());
        };
        let seed = first_failure(64, property).expect("some case has 20 items");
        let failing = last.take();
        // Small first: the ramp reaches 20 long before it reaches 200.
        assert!(
            (20..100).contains(&failing.len()),
            "{} items",
            failing.len()
        );
        assert!(catch_unwind(AssertUnwindSafe(|| replay(seed, property))).is_err());
        assert_eq!(last.take(), failing);
    }

    #[test]
    #[should_panic(expected = "case seed 0x")]
    fn check_names_the_seed_of_the_failing_case() {
        check(8, |g| assert!(g.u64_in(0..4) > 9, "deliberately false"));
    }

    #[test]
    fn sizes_ramp_over_the_first_half_and_stay_full() {
        let size = |index| case_seed(99, index, 64) % FULL_SIZE + 1;
        assert_eq!(size(0), 1);
        assert!((1..32).all(|i| size(i) > size(i - 1)));
        assert!((32..64).all(|i| size(i) == FULL_SIZE));
        // The smallest size still allows the low end of a range, the full
        // size all of it.
        let lens = |seed: u64| (0..2000).map(move |i| Gen::from_seed((seed + i) * FULL_SIZE));
        assert!(lens(0).all(|mut g| g.vec(4..500, Gen::u32).len() == 4));
        let full: Vec<usize> = lens(7)
            .map(|g| {
                Gen {
                    size: FULL_SIZE,
                    ..g
                }
                .vec(4..8, Gen::u32)
                .len()
            })
            .collect();
        assert!(
            (4..8).all(|len| full.contains(&len)) && full.iter().all(|len| (4..8).contains(len))
        );
    }

    #[test]
    fn two_checks_draw_different_cases() {
        let first = RefCell::new(Vec::new());
        let second = RefCell::new(Vec::new());
        check(4, |g| first.borrow_mut().push(g.u64()));
        check(4, |g| second.borrow_mut().push(g.u64()));
        assert_ne!(first, second);
    }
}
