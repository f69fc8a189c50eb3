//! Load-balance and range statistics — the quantities Tables II/III and
//! Fig. 10 report.

/// Per-machine load statistics after a sort.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadStats {
    /// Element count per machine, by id.
    pub counts: Vec<usize>,
}

impl LoadStats {
    /// Builds from per-machine counts.
    pub fn new(counts: Vec<usize>) -> Self {
        LoadStats { counts }
    }

    /// Total elements.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Table II's rows: each machine's share of the total, as a fraction.
    /// Zero-total inputs give all-zero shares.
    pub fn shares(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Smallest per-machine count (Fig. 10's min series).
    pub fn min(&self) -> usize {
        self.counts.iter().copied().min().unwrap_or(0)
    }

    /// Largest per-machine count (Fig. 10's max series).
    pub fn max(&self) -> usize {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Max − min — the paper's "load difference" metric for Fig. 10.
    pub fn load_difference(&self) -> usize {
        self.max() - self.min()
    }

    /// Max / ideal — 1.0 is perfect balance; the usual imbalance factor.
    pub fn imbalance_factor(&self) -> f64 {
        let n = self.counts.len();
        if n == 0 || self.total() == 0 {
            return 1.0;
        }
        let ideal = self.total() as f64 / n as f64;
        self.max() as f64 / ideal
    }
}

/// Per-machine key ranges (Table III).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeStats<K> {
    /// `(min, max)` held by each machine, `None` when a machine is empty.
    pub ranges: Vec<Option<(K, K)>>,
}

impl<K: PartialOrd + Copy> RangeStats<K> {
    /// Builds from per-machine ranges.
    pub fn new(ranges: Vec<Option<(K, K)>>) -> Self {
        RangeStats { ranges }
    }

    /// Table III's correctness property: smaller data on smaller ids —
    /// machine ranges must be non-overlapping and ascending with id
    /// (empty machines skipped).
    pub fn is_ascending(&self) -> bool {
        let mut prev_hi: Option<K> = None;
        for r in self.ranges.iter().flatten() {
            let (lo, hi) = *r;
            if lo > hi {
                return false;
            }
            if let Some(p) = prev_hi {
                if lo < p {
                    return false;
                }
            }
            prev_hi = Some(hi);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let s = LoadStats::new(vec![10, 20, 30, 40]);
        let shares = s.shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((shares[3] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn min_max_difference() {
        let s = LoadStats::new(vec![100, 95, 110, 99]);
        assert_eq!(s.min(), 95);
        assert_eq!(s.max(), 110);
        assert_eq!(s.load_difference(), 15);
        assert_eq!(s.total(), 404);
    }

    #[test]
    fn imbalance_factor_perfect_and_skewed() {
        let perfect = LoadStats::new(vec![50, 50, 50, 50]);
        assert!((perfect.imbalance_factor() - 1.0).abs() < 1e-12);
        let skewed = LoadStats::new(vec![200, 0, 0, 0]);
        assert!((skewed.imbalance_factor() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats() {
        let s = LoadStats::new(vec![]);
        assert_eq!(s.total(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.imbalance_factor(), 1.0);
        let z = LoadStats::new(vec![0, 0]);
        assert_eq!(z.shares(), vec![0.0, 0.0]);
    }

    #[test]
    fn ranges_ascending_detection() {
        let good = RangeStats::new(vec![Some((0u64, 5)), None, Some((5, 9)), Some((10, 12))]);
        assert!(good.is_ascending());
        let overlapping = RangeStats::new(vec![Some((0u64, 7)), Some((5, 9))]);
        assert!(!overlapping.is_ascending());
        let inverted = RangeStats::new(vec![Some((7u64, 3))]);
        assert!(!inverted.is_ascending());
        let empty = RangeStats::<u64>::new(vec![None, None]);
        assert!(empty.is_ascending());
    }
}
