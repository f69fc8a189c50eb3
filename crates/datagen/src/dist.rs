//! The four key distributions of Fig. 4.
//!
//! Keys are `u64`. The normal / right-skewed / exponential generators are
//! built from first principles (Box–Muller, log-normal, inverse-CDF) so no
//! extra statistics crate is needed, and each distribution carries a
//! *quantization* step that controls duplication: the paper's skewed and
//! exponential datasets owe their difficulty to massive duplication, which
//! quantization reproduces deterministically.

use crate::rng::{fill_chunked, generator_threads, SplitMix64};

/// Key distribution selector, mirroring Fig. 4 (a)–(d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// (a) Uniform over `[0, 2^40)`.
    Uniform,
    /// (b) Normal, mean 2^39, σ 2^36, quantized to 2^20 buckets.
    Normal,
    /// (c) Right-skewed (log-normal), coarsely quantized — many duplicates
    ///     concentrated at small values with a long right tail.
    RightSkewed,
    /// (d) Exponential, coarsely quantized — many duplicates at small
    ///     values.
    Exponential,
    /// Adversarial (chaos-harness): a configurable fraction of all keys
    /// collapse onto one hot value, the rest are uniform. At
    /// `hot_key_permille = 900` this is far past the Fig. 3 regime —
    /// splitter duplication is guaranteed at any processor count.
    /// Stored in permille so the enum stays `Eq + Hash`; build with
    /// [`Distribution::skew_storm`].
    SkewStorm {
        /// Fraction of keys equal to the hot key, in permille (0..=1000).
        hot_key_permille: u32,
    },
    /// Adversarial (chaos-harness): keys drawn uniformly from only
    /// `distinct` values, so every value repeats `n / distinct` times on
    /// average. Build with [`Distribution::duplicate_heavy`].
    DuplicateHeavy {
        /// Number of distinct key values (≥ 1; 0 is treated as 1).
        distinct: u64,
    },
}

impl Distribution {
    /// All four, in Fig. 4 order.
    pub const ALL: [Distribution; 4] = [
        Distribution::Uniform,
        Distribution::Normal,
        Distribution::RightSkewed,
        Distribution::Exponential,
    ];

    /// A skew storm where `hot_key_fraction` (in `[0, 1]`) of all keys
    /// equal one hot value. The fraction is rounded to permille.
    pub fn skew_storm(hot_key_fraction: f64) -> Self {
        let permille = (hot_key_fraction.clamp(0.0, 1.0) * 1000.0).round() as u32;
        Distribution::SkewStorm {
            hot_key_permille: permille,
        }
    }

    /// A duplicate-heavy stream over `distinct` values (0 treated as 1).
    pub fn duplicate_heavy(distinct: u64) -> Self {
        Distribution::DuplicateHeavy { distinct }
    }

    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            Distribution::Uniform => "uniform",
            Distribution::Normal => "normal",
            Distribution::RightSkewed => "right-skewed",
            Distribution::Exponential => "exponential",
            Distribution::SkewStorm { .. } => "skew-storm",
            Distribution::DuplicateHeavy { .. } => "duplicate-heavy",
        }
    }

    /// Draws one key.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        match self {
            Distribution::Uniform => rng.range_u64(0..1u64 << 40),
            Distribution::Normal => {
                let z = standard_normal(rng);
                let value = (1u64 << 39) as f64 + z * (1u64 << 36) as f64;
                let clamped = value.clamp(0.0, (1u64 << 40) as f64);
                // Quantize to 2^20 distinct buckets: mild duplication.
                let bucket = 1u64 << 20;
                (clamped as u64 / bucket) * bucket
            }
            Distribution::RightSkewed => {
                // Log-normal (μ = 3, σ = 1) coarsely quantized to buckets
                // of 16. The modal bucket holds ~40% of all keys, so at
                // realistic processor counts several splitters land on the
                // same value — the Fig. 3b/3c regime Table II reports
                // (a single dominant value shared across procs 2–9).
                let z = standard_normal(rng);
                let value = (3.0 + z).exp();
                (value as u64 / 16) * 16
            }
            Distribution::Exponential => {
                // Geometric-shaped: floor of an exponential with mean 2.
                // P(0) ≈ 39%, P(1) ≈ 24%, … — the "many duplicated data
                // entries" dataset of Fig. 4d, scaled to key units of 1000
                // so values remain visibly spread.
                let u = rng.range_f64(f64::EPSILON..1.0);
                let value = (-u.ln() * 2.0) as u64;
                value * 1000
            }
            Distribution::SkewStorm { hot_key_permille } => {
                // Hot key sits mid-range so both splitter halves see it.
                if rng.range_u32(0..1000) < (*hot_key_permille).min(1000) {
                    1u64 << 39
                } else {
                    rng.range_u64(0..1u64 << 40)
                }
            }
            Distribution::DuplicateHeavy { distinct } => {
                // Spread by a large odd stride so the distinct values are
                // not all adjacent integers (exercises splitter search).
                rng.range_u64(0..(*distinct).max(1))
                    .wrapping_mul(0x9e37_79b9)
                    & ((1 << 40) - 1)
            }
        }
    }
}

/// One standard-normal draw via Box–Muller (uses one of the pair).
fn standard_normal(rng: &mut SplitMix64) -> f64 {
    let u1 = rng.range_f64(f64::EPSILON..1.0);
    let u2 = rng.range_f64(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Keys per generation chunk; each chunk draws from its own stream.
const CHUNK: usize = 1 << 16;

/// Generates `n` keys from `dist`, deterministic under `seed`.
/// Chunked across the host's threads; each chunk derives its own stream so
/// results are identical regardless of thread count.
pub fn generate(dist: Distribution, n: usize, seed: u64) -> Vec<u64> {
    generate_on(dist, n, seed, generator_threads())
}

fn generate_on(dist: Distribution, n: usize, seed: u64, threads: usize) -> Vec<u64> {
    let mut keys = vec![0u64; n];
    fill_chunked(&mut keys, CHUNK, threads, |c, chunk| {
        let mut rng = SplitMix64::new(seed ^ (c as u64).wrapping_mul(0x9e3779b97f4a7c15));
        chunk.fill_with(|| dist.sample(&mut rng));
    });
    keys
}

/// Generates `n` keys split evenly across `machines` partitions — the
/// per-machine input layout of every experiment.
pub fn generate_partitioned(
    dist: Distribution,
    n: usize,
    machines: usize,
    seed: u64,
) -> Vec<Vec<u64>> {
    crate::partition_even(&generate(dist, n, seed), machines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const N: usize = 200_000;

    fn stats(v: &[u64]) -> (f64, f64) {
        let mean = v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / v.len() as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn first_keys_at_the_ledger_seed_are_pinned() {
        // An edit to the generator or to a distribution's arithmetic changes
        // every committed result produced from it; it has to show here.
        const HOT: u64 = 1 << 39;
        #[rustfmt::skip]
        let pins: [(Distribution, [u64; 8]); 6] = [
            (Distribution::Uniform, [988927715071, 882755414131, 947051155027, 286211458905,
                                     287444897359, 675464478291, 41880995867, 383176626760]),
            (Distribution::Normal, [560072753152, 547325214720, 465006755840, 447839469568,
                                    545433583616, 494903754752, 569932513280, 434990219264]),
            (Distribution::RightSkewed, [16, 16, 0, 0, 16, 0, 16, 0]),
            (Distribution::Exponential, [0, 0, 0, 2000, 2000, 0, 6000, 2000]),
            (Distribution::skew_storm(0.5), [882755414131, 286211458905, HOT, 41880995867,
                                             HOT, 811826207085, 492740137175, HOT]),
            (Distribution::duplicate_heavy(16), [37162100766, 31853229228, 34507664997, 10617743076,
                                                 10617743076, 23889921921, 0, 13272178845]),
        ];
        for (dist, keys) in pins {
            assert_eq!(generate(dist, 8, 20170529), keys, "{}", dist.name());
        }
    }

    #[test]
    fn thread_count_does_not_change_the_keys() {
        // Three chunks and a bit: one thread evaluates them in order.
        let n = 3 * CHUNK + 17;
        for dist in [Distribution::Uniform, Distribution::Exponential] {
            let one = generate_on(dist, n, 9, 1);
            assert_eq!(generate(dist, n, 9), one, "{}", dist.name());
            assert_eq!(generate_on(dist, n, 9, 3), one, "{}", dist.name());
        }
    }

    #[test]
    fn deterministic_under_seed() {
        for dist in Distribution::ALL {
            let a = generate(dist, 10_000, 42);
            let b = generate(dist, 10_000, 42);
            assert_eq!(a, b, "{}", dist.name());
            let c = generate(dist, 10_000, 43);
            assert_ne!(a, c, "{}", dist.name());
        }
    }

    #[test]
    fn uniform_mean_near_center() {
        let v = generate(Distribution::Uniform, N, 1);
        let (mean, _) = stats(&v);
        let center = (1u64 << 39) as f64;
        assert!((mean - center).abs() < center * 0.02, "mean={mean}");
    }

    #[test]
    fn normal_symmetric_around_mean() {
        let v = generate(Distribution::Normal, N, 2);
        let center = (1u64 << 39) as f64;
        let below = v.iter().filter(|&&x| (x as f64) < center).count();
        let frac = below as f64 / v.len() as f64;
        assert!((frac - 0.5).abs() < 0.02, "below-fraction={frac}");
    }

    #[test]
    fn right_skewed_is_right_skewed() {
        let v = generate(Distribution::RightSkewed, N, 3);
        let (mean, _) = stats(&v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let median = sorted[v.len() / 2] as f64;
        assert!(mean > median * 1.2, "mean={mean} median={median}");
    }

    #[test]
    fn exponential_is_right_skewed_too() {
        let v = generate(Distribution::Exponential, N, 4);
        let (mean, _) = stats(&v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let median = sorted[v.len() / 2] as f64;
        assert!(mean > median, "mean={mean} median={median}");
    }

    #[test]
    fn skewed_distributions_have_heavy_duplication() {
        for dist in [Distribution::RightSkewed, Distribution::Exponential] {
            let v = generate(dist, N, 5);
            let distinct: HashSet<u64> = v.iter().copied().collect();
            // Many duplicates: far fewer distinct values than keys.
            assert!(
                distinct.len() < N / 4,
                "{}: {} distinct of {N}",
                dist.name(),
                distinct.len()
            );
        }
    }

    #[test]
    fn uniform_has_little_duplication() {
        let v = generate(Distribution::Uniform, N, 6);
        let distinct: HashSet<u64> = v.iter().copied().collect();
        assert!(distinct.len() > N * 9 / 10);
    }

    #[test]
    fn skew_storm_concentrates_on_hot_key() {
        let dist = Distribution::skew_storm(0.9);
        assert_eq!(
            dist,
            Distribution::SkewStorm {
                hot_key_permille: 900
            }
        );
        let v = generate(dist, N, 11);
        let hot = v.iter().filter(|&&x| x == 1u64 << 39).count();
        let frac = hot as f64 / v.len() as f64;
        assert!((frac - 0.9).abs() < 0.02, "hot-fraction={frac}");
        // Determinism, as for the paper distributions.
        assert_eq!(v, generate(dist, N, 11));
    }

    #[test]
    fn skew_storm_extremes() {
        let all_hot = generate(Distribution::skew_storm(1.0), 5_000, 12);
        assert!(all_hot.iter().all(|&x| x == 1u64 << 39));
        let none_hot = generate(Distribution::skew_storm(0.0), 5_000, 13);
        let hot = none_hot.iter().filter(|&&x| x == 1u64 << 39).count();
        assert_eq!(hot, 0);
    }

    #[test]
    fn duplicate_heavy_bounds_distinct_values() {
        for wanted in [1u64, 2, 16, 1000] {
            let v = generate(Distribution::duplicate_heavy(wanted), 50_000, 14);
            let distinct: HashSet<u64> = v.iter().copied().collect();
            assert!(
                distinct.len() as u64 <= wanted,
                "wanted ≤{wanted}, got {}",
                distinct.len()
            );
            // With n >> distinct, nearly all values should actually occur.
            if wanted <= 16 {
                assert_eq!(distinct.len() as u64, wanted);
            }
        }
        // distinct = 0 degrades to a single value, not a panic.
        let v = generate(Distribution::duplicate_heavy(0), 1_000, 15);
        assert_eq!(v.iter().copied().collect::<HashSet<_>>().len(), 1);
    }

    #[test]
    fn adversarial_names() {
        assert_eq!(Distribution::skew_storm(0.5).name(), "skew-storm");
        assert_eq!(Distribution::duplicate_heavy(8).name(), "duplicate-heavy");
    }

    #[test]
    fn generate_exact_lengths() {
        for n in [0usize, 1, 100, 65_536, 65_537, 100_000] {
            assert_eq!(generate(Distribution::Uniform, n, 7).len(), n);
        }
    }

    #[test]
    fn partitioned_matches_flat() {
        let flat = generate(Distribution::Normal, 10_000, 8);
        let parts = generate_partitioned(Distribution::Normal, 10_000, 7, 8);
        assert_eq!(parts.concat(), flat);
    }
}
