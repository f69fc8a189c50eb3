//! Workload generators for the evaluation (§V).
//!
//! The paper sorts one billion keys drawn from four distributions
//! (Fig. 4): **uniform**, **normal**, **right-skewed**, and
//! **exponential** — the last two specifically chosen to produce datasets
//! "containing many duplicated data entries" that stress the
//! duplicate-splitter investigator. Fig. 8 sorts the Twitter graph, which
//! we stand in for with an R-MAT power-law generator (see DESIGN.md for
//! the substitution argument); [`csr`] stores such a graph and
//! [`partition`] spreads it over machines the way PGX.D's data manager
//! loads graphs (§III).
//!
//! Everything is deterministic under a seed and generated chunk by chunk
//! on scoped threads, so billion-scale-style generation stays fast on a
//! laptop and the keys do not depend on how many threads produced them.
//! All randomness is the in-tree [`SplitMix64`]; the crate has no
//! dependency. The same generator drives [`cases`], the deterministic case
//! loop the workspace's property tests run on.

pub mod cases;
pub mod csr;
pub mod dist;
pub mod partition;
pub mod rmat;
pub mod rng;

pub use dist::{generate, generate_partitioned, Distribution};
pub use rmat::{rmat_edges, twitter_like_keys, RmatConfig};
pub use rng::SplitMix64;

/// Splits `data` into `parts` even contiguous chunks — the initial
/// "data already resident per machine" layout every experiment starts
/// from.
pub fn partition_even<T: Clone>(data: &[T], parts: usize) -> Vec<Vec<T>> {
    assert!(parts > 0);
    let base = data.len() / parts;
    let extra = data.len() % parts;
    let mut out = Vec::with_capacity(parts);
    let mut offset = 0;
    for i in 0..parts {
        let take = base + usize::from(i < extra);
        out.push(data[offset..offset + take].to_vec());
        offset += take;
    }
    debug_assert_eq!(offset, data.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_even_covers_all() {
        let data: Vec<u32> = (0..103).collect();
        let parts = partition_even(&data, 4);
        assert_eq!(parts.len(), 4);
        let flat: Vec<u32> = parts.concat();
        assert_eq!(flat, data);
        assert!(parts.iter().all(|p| p.len() == 25 || p.len() == 26));
    }

    #[test]
    fn partition_more_parts_than_items() {
        let data = vec![1u8, 2];
        let parts = partition_even(&data, 5);
        assert_eq!(parts.concat(), data);
        assert_eq!(parts.iter().filter(|p| p.is_empty()).count(), 3);
    }
}
