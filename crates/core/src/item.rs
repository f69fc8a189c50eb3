//! Provenance-carrying sort items.
//!
//! The paper's sorting library "keeps information regards to their
//! previous processors and locations" (§IV step 6) so users can trace a
//! sorted entry back to where it came from — e.g. to fetch the rest of a
//! graph record after sorting by one property. [`Keyed`] packages a key
//! with its origin machine and original local index; ordering is by key
//! first, with `(origin, index)` as a deterministic tiebreak, so sorting
//! `Keyed` items yields a key-sorted, fully reproducible permutation.

/// A key plus its provenance (origin machine, original local index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Keyed<K> {
    /// The sort key.
    pub key: K,
    /// Machine the entry lived on before sorting.
    pub origin: u32,
    /// Index within that machine's original local array.
    pub index: u64,
}

impl<K: Ord> PartialOrd for Keyed<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> Ord for Keyed<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| self.origin.cmp(&other.origin))
            .then_with(|| self.index.cmp(&other.index))
    }
}

impl<K> Keyed<K> {
    /// Packages a key with its provenance.
    pub fn new(key: K, origin: u32, index: u64) -> Self {
        Keyed { key, origin, index }
    }
}

/// The key's image; the provenance rides in the rest column, beside the
/// key's own rest.
impl<K: pgxd::Wire> pgxd::Wire for Keyed<K> {
    type Rest = (K::Rest, u32, u64);

    fn image(&self) -> u64 {
        self.key.image()
    }

    fn rest(&self) -> Self::Rest {
        (self.key.rest(), self.origin, self.index)
    }

    fn join(image: u64, (rest, origin, index): Self::Rest) -> Self {
        Keyed::new(K::join(image, rest), origin, index)
    }
}

/// Tags every element of a machine's local array with provenance.
pub fn tag_with_provenance<K: Copy>(data: &[K], machine: usize) -> Vec<Keyed<K>> {
    data.iter()
        .enumerate()
        .map(|(i, &k)| Keyed::new(k, machine as u32, i as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_key_then_provenance() {
        let a = Keyed::new(5u64, 0, 9);
        let b = Keyed::new(5u64, 1, 0);
        let c = Keyed::new(4u64, 7, 7);
        let mut v = vec![b, a, c];
        v.sort();
        assert_eq!(v, vec![c, a, b]);
    }

    #[test]
    fn tagging_preserves_positions() {
        let tagged = tag_with_provenance(&[10u64, 20, 30], 3);
        assert_eq!(tagged[1], Keyed::new(20, 3, 1));
        assert_eq!(tagged.len(), 3);
    }

    #[test]
    fn equal_keys_distinct_items() {
        let a = Keyed::new(1u32, 0, 0);
        let b = Keyed::new(1u32, 0, 1);
        assert!(a < b);
        assert_ne!(a, b);
    }
}
