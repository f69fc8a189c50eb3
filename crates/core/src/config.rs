//! Configuration of the distributed sort.
//!
//! The defaults are the paper's choices: buffer-sized sampling
//! (`X = 256 KiB / p` per machine, §IV-B) and the duplicate-splitter
//! investigator enabled. The sample size computed here is a *budget*:
//! [`select_regular_samples`](crate::sampling::select_regular_samples) never
//! samples a shard more densely than one key in eight, which binds when the
//! whole dataset is smaller than eight read buffers and moves no machine's
//! share by more than `p · 8` keys. Every knob exists because an experiment or
//! ablation in DESIGN.md sweeps it; steps 1 and 6 have none — every worker
//! quicksorts its chunk, and the final merge is the Fig. 2 balanced merge
//! handler.

/// Tuning knobs for [`DistSorter`](crate::DistSorter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SortConfig {
    /// Multiplier on the paper's sample size `X = buffer_bytes / p`.
    /// Fig. 9 sweeps {0.004, 0.04, 0.4, 1, 1.004, 1.04, 1.4}.
    pub sample_factor: f64,
    /// If set, overrides the buffer-sized rule with an absolute per-machine
    /// sample count.
    pub fixed_samples_per_machine: Option<usize>,
    /// Enable the duplicate-splitter investigator (§IV-B, Fig. 3c).
    /// Disabling reverts to naive `upper_bound` partitioning (Fig. 3b) —
    /// the load-imbalance ablation.
    pub investigator: bool,
}

impl Default for SortConfig {
    fn default() -> Self {
        SortConfig {
            sample_factor: 1.0,
            fixed_samples_per_machine: None,
            investigator: true,
        }
    }
}

impl SortConfig {
    /// Paper defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the Fig. 9 sample-size factor.
    pub fn sample_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "sample factor must be positive");
        self.sample_factor = factor;
        self
    }

    /// Overrides the buffer-sized sampling rule with a fixed count.
    pub fn fixed_samples(mut self, count: usize) -> Self {
        self.fixed_samples_per_machine = Some(count);
        self
    }

    /// Toggles the duplicate-splitter investigator.
    pub fn investigator(mut self, on: bool) -> Self {
        self.investigator = on;
        self
    }

    /// The sample budget of each machine: the §IV-B rule
    /// `factor · (buffer_bytes / p) / key_size`, at least 1, or the fixed
    /// override — also held to at least 1: with no samples there are no
    /// splitters and every key lands on machine 0. A shard of fewer than
    /// eight budgets' keys contributes one sample per eight keys instead.
    pub fn samples_per_machine(&self, buffer_bytes: usize, p: usize, key_size: usize) -> usize {
        if let Some(fixed) = self.fixed_samples_per_machine {
            return fixed.max(1);
        }
        let x_bytes = buffer_bytes as f64 / p.max(1) as f64;
        let samples = (self.sample_factor * x_bytes / key_size.max(1) as f64).round() as usize;
        samples.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rule_x_for_u64() {
        let cfg = SortConfig::default();
        // 256 KiB / 8 machines / 8-byte keys = 4096 samples.
        assert_eq!(cfg.samples_per_machine(256 * 1024, 8, 8), 4096);
        // More machines ⇒ fewer samples each, same master total.
        assert_eq!(cfg.samples_per_machine(256 * 1024, 32, 8), 1024);
    }

    #[test]
    fn factor_scales_linearly() {
        let small = SortConfig::default().sample_factor(0.004);
        let big = SortConfig::default().sample_factor(1.4);
        let base = SortConfig::default();
        let b = base.samples_per_machine(256 * 1024, 8, 8);
        assert_eq!(small.samples_per_machine(256 * 1024, 8, 8), 16);
        assert_eq!(
            big.samples_per_machine(256 * 1024, 8, 8),
            (b as f64 * 1.4) as usize
        );
    }

    #[test]
    fn fixed_override_wins() {
        let cfg = SortConfig::default().fixed_samples(77);
        assert_eq!(cfg.samples_per_machine(256 * 1024, 8, 8), 77);
    }

    #[test]
    fn never_zero_samples() {
        let cfg = SortConfig::default().sample_factor(1e-9);
        assert_eq!(cfg.samples_per_machine(256 * 1024, 64, 8), 1);
        // The fixed override is clamped too, through the builder and
        // through the pub field.
        let fixed = SortConfig::default().fixed_samples(0);
        assert_eq!(fixed.samples_per_machine(256 * 1024, 8, 8), 1);
        let field = SortConfig {
            fixed_samples_per_machine: Some(0),
            ..SortConfig::default()
        };
        assert_eq!(field.samples_per_machine(256 * 1024, 8, 8), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_factor_rejected() {
        let _ = SortConfig::default().sample_factor(0.0);
    }
}
