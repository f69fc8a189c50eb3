//! The two-run merge kernel against a textbook stable merge, item for item.
//!
//! Items are `(key, tag)` ordered by key only, so "equal to the reference"
//! means every tie was broken the same way: the kernel's lanes, blocks and
//! gallops must be invisible in the output. The shapes are the ones that
//! take each of its paths — few distinct keys and disjoint ranges (the
//! gallop), empty sides (the copy), lengths either side of the 64-step
//! block — and `co_rank`, which cuts the lanes, is checked at every rank.
//! The merge tree is held to the same reference with spares of every
//! length, and must merge through the spare it is lent, never a new one.

use pgxd_algos::merge::{balanced_merge, balanced_merge_with, merge_into, PARALLEL_MERGE_CUTOFF};
use pgxd_algos::search::co_rank;
use pgxd_datagen::cases::{check, Gen};

/// A key with the side and position it came from; only the key orders.
#[derive(Clone, Copy, Debug)]
struct Tagged {
    key: u64,
    tag: (u8, u32),
}

impl PartialEq for Tagged {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Tagged {}
impl PartialOrd for Tagged {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Tagged {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Sorts `keys` and tags each with `side` and its position in the run.
fn tagged_run(side: u8, mut keys: Vec<u64>) -> Vec<Tagged> {
    keys.sort_unstable();
    let tag = |(pos, key)| Tagged {
        key,
        tag: (side, pos as u32),
    };
    keys.into_iter().enumerate().map(tag).collect()
}

/// The textbook stable merge, ties to `a`. Also returns, for every output
/// length `r`, how many of the first `r` items came from `a`.
fn reference_merge(a: &[Tagged], b: &[Tagged]) -> (Vec<Tagged>, Vec<usize>) {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut from_a = vec![0];
    while i < a.len() || j < b.len() {
        if j == b.len() || (i < a.len() && a[i].key <= b[j].key) {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
        from_a.push(i);
    }
    (out, from_a)
}

/// Keys and tags both: `Tagged`'s own equality looks at keys only.
fn bits(items: &[Tagged]) -> Vec<(u64, (u8, u32))> {
    items.iter().map(|t| (t.key, t.tag)).collect()
}

fn assert_kernel_is_reference(a: &[Tagged], b: &[Tagged], what: &str) {
    let (expect, _) = reference_merge(a, b);
    let mut out = vec![
        Tagged {
            key: u64::MAX,
            tag: (9, 0)
        };
        a.len() + b.len()
    ];
    merge_into(a, b, &mut out);
    assert_eq!(bits(&out), bits(&expect), "{what}");
}

fn xorshift_keys(seed: u64, n: usize, modulus: u64) -> Vec<u64> {
    let mut x = seed | 1;
    let next = |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % modulus
    };
    (0..n).map(next).collect()
}

#[test]
fn duplicate_heavy_runs_merge_like_the_reference() {
    for modulus in [1u64, 2, 5] {
        for (na, nb) in [(1000, 1000), (3000, 170), (170, 3000)] {
            let a = tagged_run(0, xorshift_keys(11, na, modulus));
            let b = tagged_run(1, xorshift_keys(12, nb, modulus));
            assert_kernel_is_reference(&a, &b, &format!("modulus {modulus}, {na} + {nb}"));
        }
    }
}

#[test]
fn disjoint_ranges_merge_like_the_reference() {
    let low = tagged_run(0, (0..700).collect());
    let high = tagged_run(1, (700..1500).collect());
    assert_kernel_is_reference(&low, &high, "a below b");
    assert_kernel_is_reference(&high, &low, "a above b");
    // The two ranges meet in a tie.
    let touching = tagged_run(1, (699..1500).collect());
    assert_kernel_is_reference(&low, &touching, "a below b, one tie");
    assert_kernel_is_reference(&touching, &low, "a above b, one tie");
}

#[test]
fn empty_sides_merge_like_the_reference() {
    let run = tagged_run(0, xorshift_keys(3, 200, 50));
    assert_kernel_is_reference(&run, &[], "b empty");
    assert_kernel_is_reference(&[], &run, "a empty");
    assert_kernel_is_reference(&[], &[], "both empty");
}

#[test]
fn lengths_around_the_block_size_merge_like_the_reference() {
    let lens = [1usize, 63, 64, 65, 127, 128, 129];
    for na in lens {
        for nb in lens {
            for modulus in [3u64, 1 << 40] {
                let a = tagged_run(0, xorshift_keys(na as u64, na, modulus));
                let b = tagged_run(1, xorshift_keys(1000 + nb as u64, nb, modulus));
                assert_kernel_is_reference(&a, &b, &format!("{na} + {nb}, modulus {modulus}"));
            }
        }
    }
}

#[test]
fn co_rank_is_the_prefix_the_reference_consumed() {
    for (na, nb, modulus) in [
        (0, 0, 1),
        (0, 9, 4),
        (9, 0, 4),
        (40, 25, 1),
        (40, 25, 6),
        (33, 70, 1000),
    ] {
        let a = tagged_run(0, xorshift_keys(5, na, modulus));
        let b = tagged_run(1, xorshift_keys(6, nb, modulus));
        let (_, from_a) = reference_merge(&a, &b);
        for (r, &i) in from_a.iter().enumerate() {
            assert_eq!(
                co_rank(&a, &b, r),
                (i, r - i),
                "{na} + {nb}, modulus {modulus}, rank {r}"
            );
        }
    }
}

/// `runs` sorted runs of xorshift keys back to back, some of them empty.
fn sorted_runs(runs: usize, per_run: usize, with_empty: bool) -> (Vec<u64>, Vec<usize>) {
    let mut data = Vec::new();
    let mut bounds = vec![0];
    for r in 0..runs {
        let len = if with_empty && r % 3 == 1 {
            0
        } else {
            per_run + 7 * r
        };
        let mut run = xorshift_keys(r as u64 + 1, len, 1 << 20);
        run.sort_unstable();
        data.extend(run);
        bounds.push(data.len());
    }
    (data, bounds)
}

/// [`balanced_merge_with`], checking that the spare's allocation was kept:
/// on return `scratch` holds its own allocation or `data`'s, never a new
/// one, unless it came in with none.
fn merge_keeping_the_spare<T: Ord + Copy + Send + Sync>(
    data: Vec<T>,
    scratch: &mut Vec<T>,
    bounds: &[usize],
    workers: usize,
    what: &str,
) -> Vec<T> {
    let (data_at, spare_at, had_one) = (data.as_ptr(), scratch.as_ptr(), scratch.capacity() > 0);
    let got = balanced_merge_with(data, scratch, bounds, workers);
    if had_one {
        let now = scratch.as_ptr();
        assert!(
            now == spare_at || now == data_at,
            "{what}: the spare's allocation was replaced"
        );
    }
    got
}

#[test]
fn any_scratch_gives_the_same_tree() {
    for per_run in [200, PARALLEL_MERGE_CUTOFF / 2] {
        for runs in [1usize, 2, 3, 5, 8] {
            for with_empty in [false, true] {
                for workers in [1usize, 4] {
                    let (data, bounds) = sorted_runs(runs, per_run, with_empty);
                    let n = data.len();
                    let expect = balanced_merge(data.clone(), &bounds, workers);
                    assert!(expect.windows(2).all(|w| w[0] <= w[1]));
                    let scratches = [
                        ("empty", Vec::new()),
                        ("shorter", vec![1; n / 3]),
                        ("1 key short", vec![3; n - 1]),
                        ("64 keys short", vec![4; n - 64]),
                        ("n/2 short", vec![5; n - n / 2]),
                        ("longer", vec![2; 2 * n + 5]),
                        ("garbage", xorshift_keys(99, n, u64::MAX)),
                    ];
                    for (name, mut scratch) in scratches {
                        let what = format!(
                            "{name} scratch: {runs} runs of ~{per_run}, {workers} workers, \
                             empty runs: {with_empty}"
                        );
                        let got = merge_keeping_the_spare(
                            data.clone(),
                            &mut scratch,
                            &bounds,
                            workers,
                            &what,
                        );
                        assert_eq!(got, expect, "{what}");
                    }
                }
            }
        }
    }
}

#[test]
fn one_spare_serves_merge_after_merge() {
    // What step 6 does over a batch list: unequal merges, one spare.
    let mut spare = Vec::new();
    for (runs, per_run) in [(5usize, 900usize), (8, 100), (3, 4000), (4, 10)] {
        let (data, bounds) = sorted_runs(runs, per_run, false);
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(balanced_merge_with(data, &mut spare, &bounds, 2), expect);
    }
}

/// Cases per property.
const CASES: u32 = 64;

#[test]
fn merge_into_is_the_reference_stable_merge() {
    check(CASES, |g| {
        let a = g.vec(0..400, Gen::u64);
        let b = g.vec(0..400, Gen::u64);
        let modulus = g.select(&[1u64, 2, 5, 300, u64::MAX]);
        // Lifts `b` (or `a`) clear of the other side: the gallop's shape.
        let lift = g.select(&[(0u64, 0u64), (300, 0), (0, 300)]);
        let keys = |v: Vec<u64>, up: u64| {
            v.into_iter()
                .map(|k| (k % modulus).saturating_add(up))
                .collect()
        };
        let a = tagged_run(0, keys(a, lift.0));
        let b = tagged_run(1, keys(b, lift.1));
        let (expect, from_a) = reference_merge(&a, &b);
        let mut out = vec![
            Tagged {
                key: 0,
                tag: (9, 0)
            };
            a.len() + b.len()
        ];
        merge_into(&a, &b, &mut out);
        assert_eq!(bits(&out), bits(&expect));
        let r = from_a.len() / 2;
        assert_eq!(co_rank(&a, &b, r), (from_a[r], r - from_a[r]));
    });
}

/// The input shapes of [`balanced_merge_with_is_the_reference_stable_merge`]
/// and [`a_short_spare_gives_the_reference_stable_merge`], one per path of
/// the merge: runs that coalesce, groups the gather copies whole, a gather
/// that gives up and leaves the tree to overwrite it, and keys the tree
/// merges from the start.
#[derive(Clone, Copy, Debug)]
enum Shape {
    AllEqual,
    InOrder,
    /// `[v1… | v2…]` in every run: each machine's share of two duplicated
    /// splitter values.
    TwoValued,
    /// One group of a key every run holds many of, then distinct keys.
    BigGroupThenDistinct,
    Random,
}

/// Run `r`'s keys, sorted, for `shape`.
fn shaped_run(g: &mut Gen, shape: Shape, r: usize, len: usize) -> Vec<u64> {
    let mut keys: Vec<u64> = match shape {
        Shape::AllEqual => vec![5; len],
        // Run r spans [1000 r, 1000 (r + 1)]: neighbours may share a key.
        Shape::InOrder => (0..len)
            .map(|_| 1000 * r as u64 + g.u64_in(0..1001))
            .collect(),
        Shape::TwoValued => {
            let split = g.usize_in(0..len + 1);
            (0..len).map(|i| if i < split { 3 } else { 9 }).collect()
        }
        Shape::BigGroupThenDistinct => (0..len)
            .map(|i| {
                if i < len / 2 {
                    0
                } else {
                    g.u64_in(1..u64::MAX)
                }
            })
            .collect(),
        Shape::Random => {
            let modulus = g.select(&[3u64, 1000, u64::MAX]);
            (0..len).map(|_| g.u64() % modulus).collect()
        }
    };
    keys.sort_unstable();
    keys
}

/// `k` runs of `shape` tagged with run and position, so equal keys are
/// told apart, back to back; their bounds; and their stable merge (a
/// stable sort of the runs back to back).
fn tagged_runs(
    g: &mut Gen,
    shape: Shape,
    k: usize,
    max_len: usize,
    empty_runs: bool,
) -> (Vec<Tagged>, Vec<usize>, Vec<Tagged>) {
    let mut keys = Vec::new();
    let mut bounds = vec![0];
    for r in 0..k {
        // Empty runs at both ends and in the middle.
        let empty = empty_runs && (r == 0 || r == k - 1 || r == k / 2);
        let len = if empty { 0 } else { g.usize_in(0..max_len) };
        keys.extend(shaped_run(g, shape, r, len));
        bounds.push(keys.len());
    }
    let data: Vec<Tagged> = bounds
        .windows(2)
        .enumerate()
        .flat_map(|(r, w)| {
            let run = &keys[w[0]..w[1]];
            run.iter().enumerate().map(move |(i, &key)| Tagged {
                key,
                tag: (r as u8, i as u32),
            })
        })
        .collect();
    let mut expect = data.clone();
    expect.sort_by_key(|t| t.key);
    (data, bounds, expect)
}

const SHAPES: [Shape; 5] = [
    Shape::AllEqual,
    Shape::InOrder,
    Shape::TwoValued,
    Shape::BigGroupThenDistinct,
    Shape::Random,
];

#[test]
fn balanced_merge_with_is_the_reference_stable_merge() {
    check(24, |g| {
        let shape = g.select(&SHAPES);
        // Past PARALLEL_MERGE_CUTOFF in all at the top length and k ≥ 5.
        let max_len = g.select(&[40usize, 400, 4000]);
        let empty_runs = g.select(&[false, true]);
        for k in 1..=9 {
            let (data, bounds, expect) = tagged_runs(g, shape, k, max_len, empty_runs);
            for workers in [1, 2, 4] {
                let garbage = Tagged {
                    key: g.u64(),
                    tag: (99, 0),
                };
                let mut scratch = vec![garbage; g.usize_in(0..2 * data.len() + 2)];
                let what = format!("{shape:?}, k = {k}, {workers} workers, lengths {bounds:?}");
                let got =
                    merge_keeping_the_spare(data.clone(), &mut scratch, &bounds, workers, &what);
                assert_eq!(bits(&got), bits(&expect), "{what}");
            }
        }
    });
}

#[test]
fn a_short_spare_gives_the_reference_stable_merge() {
    // k = 1..=9 runs take 0 to 4 levels, so the heads end in either buffer,
    // and the two-valued shape is gathered in one pass; the spare's length
    // does not matter, its capacity does.
    check(16, |g| {
        let shape = g.select(&SHAPES);
        let max_len = g.select(&[40usize, 400, 4000]);
        let empty_runs = g.select(&[false, true]);
        for k in 1..=9 {
            let (data, bounds, expect) = tagged_runs(g, shape, k, max_len, empty_runs);
            let n = data.len();
            let step = n.div_ceil(16).max(1);
            let spares = (1..n).step_by(step).chain([n.saturating_sub(1)]);
            for spare in spares.filter(|&m| m > 0) {
                let workers = g.select(&[1, 2, 4]);
                let garbage = Tagged {
                    key: g.u64(),
                    tag: (99, 0),
                };
                let mut scratch = vec![garbage; spare];
                scratch.truncate(g.usize_in(0..spare + 1));
                let what = format!(
                    "{shape:?}, k = {k}, spare {spare} of {n}, {workers} workers, \
                     lengths {bounds:?}"
                );
                let got =
                    merge_keeping_the_spare(data.clone(), &mut scratch, &bounds, workers, &what);
                assert_eq!(bits(&got), bits(&expect), "{what}");
            }
        }
    });
}
