//! The output verifier, and the negative test that proves it can fail.

use crate::workload::{Item, Record, SplitMix64};

/// Order-independent summary of a multiset of items. Sum and xor of a
/// 64-bit hash: a dropped, duplicated or altered item changes at least one
/// of the three fields unless two independent 64-bit values collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub count: u64,
    pub sum: u64,
    pub xor: u64,
}

impl Fingerprint {
    pub fn of<T: Item>(shards: &[Vec<T>]) -> Self {
        let mut fp = Fingerprint {
            count: 0,
            sum: 0,
            xor: 0,
        };
        for item in shards.iter().flatten() {
            let d = item.digest();
            fp.count += 1;
            fp.sum = fp.sum.wrapping_add(d);
            fp.xor ^= d;
        }
        fp
    }
}

/// Checks one sort's per-machine outputs against the input's fingerprint:
/// every machine sorted by key, machine ranges ascending, every payload
/// still with its key, and the same multiset of items as the input.
pub fn verify<T: Item>(outputs: &[Vec<T>], input: &Fingerprint) -> Result<(), String> {
    let mut prev_last: Option<u64> = None;
    for (m, out) in outputs.iter().enumerate() {
        if let Some(at) = out.windows(2).position(|w| w[0].key() > w[1].key()) {
            return Err(format!("machine {m} not sorted at index {at}"));
        }
        if let Some(at) = out.iter().position(|item| !item.intact()) {
            return Err(format!(
                "machine {m} index {at}: payload does not match its key"
            ));
        }
        if let (Some(prev), Some(first)) = (prev_last, out.first()) {
            if prev > first.key() {
                return Err(format!("machine {m} starts below the machine before it"));
            }
        }
        prev_last = out.last().map(Item::key).or(prev_last);
    }
    let got = Fingerprint::of(outputs);
    if got != *input {
        return Err(format!(
            "fingerprint {got:x?} differs from the input's {input:x?}"
        ));
    }
    Ok(())
}

/// Feeds the verifier five kinds of wrong output; `Err` names any it let
/// through (or a correct output it refused).
pub fn selftest() -> Result<(), String> {
    let mut rng = SplitMix64::new(7);
    let mut keys: Vec<u64> = (0..4000).map(|_| rng.next_u64() >> 24).collect();
    keys.sort_unstable();
    let good: Vec<Vec<Record>> = keys
        .chunks(1000)
        .map(|c| c.iter().map(|&k| Record::from_key(k)).collect())
        .collect();
    let input = Fingerprint::of(&good);
    verify(&good, &input).map_err(|e| format!("correct output refused: {e}"))?;

    let mut swapped = good.clone();
    swapped[1].swap(10, 500);
    let mut dropped = good.clone();
    dropped[2].remove(3);
    let mut duplicated = good.clone();
    duplicated[0][1] = duplicated[0][0];
    let mut corrupted = good.clone();
    corrupted[3][7].1[2] ^= 1;
    let mut misordered = good.clone();
    misordered.swap(1, 2);

    let cases = [
        ("swapped pair", swapped),
        ("dropped key", dropped),
        ("duplicated key", duplicated),
        ("corrupted payload", corrupted),
        ("machines in the wrong order", misordered),
    ];
    for (what, bad) in &cases {
        match verify(bad, &input) {
            Err(caught) => println!("selftest: {what}: caught ({caught})"),
            Ok(()) => return Err(format!("{what} was not caught")),
        }
    }
    Ok(())
}
