//! R-MAT graph generation — the stand-in for the paper's Twitter dataset
//! (Fig. 8, Table III).
//!
//! The Twitter follower graph is a canonical power-law graph: a few
//! celebrity vertices receive an enormous share of edges, so sort keys
//! derived from it (edge destinations, degrees) are heavily duplicated and
//! right-skewed — exactly what makes the Fig. 8 experiment interesting for
//! a load-balanced sort. R-MAT (Chakrabarti et al.) is the standard
//! synthetic generator with the same property.

use crate::rng::{fill_chunked, generator_threads, SplitMix64};

/// R-MAT parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatConfig {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Edges per vertex.
    pub edge_factor: usize,
    /// Quadrant probabilities; must sum to ~1. Defaults are the Graph500
    /// values (0.57, 0.19, 0.19, 0.05), which give a Twitter-like skew.
    pub a: f64,
    /// Upper-right quadrant probability.
    pub b: f64,
    /// Lower-left quadrant probability.
    pub c: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RmatConfig {
    /// Graph500-style defaults at the given scale.
    pub fn new(scale: u32, edge_factor: usize, seed: u64) -> Self {
        RmatConfig {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
        }
    }

    /// Vertex count (`2^scale`).
    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }

    /// Edge count.
    pub fn num_edges(&self) -> usize {
        self.num_vertices() * self.edge_factor
    }
}

/// Edges per generation chunk; each chunk draws from its own stream.
const CHUNK: usize = 1 << 14;

/// Generates the R-MAT edge list. Deterministic under the seed,
/// independent of thread count.
pub fn rmat_edges(config: &RmatConfig) -> Vec<(u32, u32)> {
    rmat_edges_on(config, generator_threads())
}

fn rmat_edges_on(config: &RmatConfig, threads: usize) -> Vec<(u32, u32)> {
    let mut edges = vec![(0u32, 0u32); config.num_edges()];
    fill_chunked(&mut edges, CHUNK, threads, |c, chunk| {
        let mut rng = SplitMix64::new(config.seed ^ (c as u64).wrapping_mul(0xd1342543de82ef95));
        chunk.fill_with(|| one_edge(config, &mut rng));
    });
    edges
}

fn one_edge(config: &RmatConfig, rng: &mut SplitMix64) -> (u32, u32) {
    let (mut src, mut dst) = (0u32, 0u32);
    for _ in 0..config.scale {
        src <<= 1;
        dst <<= 1;
        let r = rng.range_f64(0.0..1.0);
        if r < config.a {
            // upper-left: neither bit set
        } else if r < config.a + config.b {
            dst |= 1;
        } else if r < config.a + config.b + config.c {
            src |= 1;
        } else {
            src |= 1;
            dst |= 1;
        }
    }
    (src, dst)
}

/// Fig. 8 sort keys: edge destination ids of an R-MAT graph, widened to
/// `u64`. On a power-law graph these are massively duplicated (hub
/// vertices appear millions of times), reproducing the Twitter workload's
/// key profile.
pub fn twitter_like_keys(scale: u32, edge_factor: usize, seed: u64) -> Vec<u64> {
    let config = RmatConfig::new(scale, edge_factor, seed);
    rmat_edges(&config)
        .into_iter()
        .map(|(_, dst)| dst as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn edge_counts_and_ranges() {
        let cfg = RmatConfig::new(10, 8, 1);
        let edges = rmat_edges(&cfg);
        assert_eq!(edges.len(), 1024 * 8);
        assert!(edges.iter().all(|&(s, d)| s < 1024 && d < 1024));
    }

    #[test]
    fn first_edges_at_the_ledger_seed_are_pinned() {
        let edges = rmat_edges(&RmatConfig::new(10, 8, 20170529));
        assert_eq!(edges[..4], [(896, 19), (8, 516), (401, 776), (41, 520)]);
    }

    #[test]
    fn thread_count_does_not_change_the_edges() {
        // 2^16 edges are four chunks: one thread evaluates them in order.
        let cfg = RmatConfig::new(12, 16, 6);
        let one = rmat_edges_on(&cfg, 1);
        assert_eq!(rmat_edges(&cfg), one);
        assert_eq!(rmat_edges_on(&cfg, 3), one);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = RmatConfig::new(8, 4, 9);
        assert_eq!(rmat_edges(&cfg), rmat_edges(&cfg));
        let other = RmatConfig::new(8, 4, 10);
        assert_ne!(rmat_edges(&cfg), rmat_edges(&other));
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let cfg = RmatConfig::new(12, 16, 3);
        let edges = rmat_edges(&cfg);
        let mut in_degree: HashMap<u32, usize> = HashMap::new();
        for &(_, d) in &edges {
            *in_degree.entry(d).or_default() += 1;
        }
        let max_deg = *in_degree.values().max().unwrap();
        let mean_deg = edges.len() as f64 / in_degree.len() as f64;
        // Power-law: the hub dwarfs the mean.
        assert!(
            max_deg as f64 > 20.0 * mean_deg,
            "max={max_deg} mean={mean_deg}"
        );
    }

    #[test]
    fn twitter_keys_heavily_duplicated() {
        let keys = twitter_like_keys(12, 16, 4);
        let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
        assert!(distinct.len() < keys.len() / 4);
    }

    #[test]
    fn csr_roundtrip_with_pgxd() {
        // Smoke: R-MAT edges load into the data manager's CSR form.
        let cfg = RmatConfig::new(8, 4, 5);
        let edges = rmat_edges(&cfg);
        let g = crate::csr::Csr::from_edges(cfg.num_vertices(), &edges);
        assert_eq!(g.num_edges(), edges.len());
        assert_eq!(g.degrees().iter().sum::<u64>() as usize, edges.len());
    }
}
