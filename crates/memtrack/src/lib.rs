//! Heap-usage accounting for the memory experiments (paper Fig. 11).
//!
//! The paper reports two memory quantities for the sort: the resident set
//! that stays allocated for the duration of the process (RSS, dark blue in
//! Fig. 11) and the *temporary* memory that is allocated during the sort
//! and freed again before it finishes (light blue). We reproduce both with
//! a wrapping global allocator that keeps three counters:
//!
//! - `current` — bytes currently allocated,
//! - `peak` — high-water mark of `current` since the last [`reset_peak`],
//! - `total_allocated` — cumulative bytes ever allocated (monotonic).
//!
//! From a region bracketed by [`MemRegion`], the *retained* bytes are
//! `current_end - current_start` and the *temporary* bytes are
//! `peak - current_end` (memory that was live at the peak but freed by the
//! end), which is exactly the decomposition Fig. 11 plots.
//!
//! The allocator is a passive wrapper around the system allocator; binaries
//! opt in with:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: pgxd_memtrack::TrackingAlloc = pgxd_memtrack::TrackingAlloc;
//! ```
//!
//! When the tracking allocator is *not* installed the counters simply stay
//! at zero, so library code can query them unconditionally.

// The tracking allocator implements `GlobalAlloc`, an unsafe trait: this
// crate is on the unsafe allowlist.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static TOTAL: AtomicUsize = AtomicUsize::new(0);

/// A `GlobalAlloc` wrapper around [`System`] that maintains the module's
/// current/peak/total counters. Install it with `#[global_allocator]`.
pub struct TrackingAlloc;

impl TrackingAlloc {
    #[inline]
    fn record_alloc(size: usize) {
        let cur = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
        TOTAL.fetch_add(size, Ordering::Relaxed);
        // Lock-free peak update: lose races benignly (peak is a watermark).
        let mut peak = PEAK.load(Ordering::Relaxed);
        while cur > peak {
            match PEAK.compare_exchange_weak(peak, cur, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(p) => peak = p,
            }
        }
    }

    #[inline]
    fn record_dealloc(size: usize) {
        CURRENT.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: defers all allocation to `System`; only adds counter updates.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::record_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::record_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Self::record_dealloc(layout.size());
            Self::record_alloc(new_size);
        }
        p
    }
}

/// Bytes currently allocated through the tracking allocator.
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// High-water mark of [`current_bytes`] since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Cumulative bytes ever allocated (monotonically increasing).
pub fn total_allocated_bytes() -> usize {
    TOTAL.load(Ordering::Relaxed)
}

/// Reset the peak watermark to the current allocation level so a new
/// region's peak can be measured.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Memory statistics for a bracketed region, in the Fig. 11 decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemStats {
    /// Bytes live when the region started.
    pub start_bytes: usize,
    /// Bytes live when the region ended.
    pub end_bytes: usize,
    /// Peak bytes live at any point inside the region.
    pub peak_bytes: usize,
    /// Cumulative allocation churn inside the region.
    pub allocated_bytes: usize,
}

impl MemStats {
    /// Memory retained across the region (the "RSS" component of Fig. 11).
    /// Saturates at zero if the region freed more than it kept.
    pub fn retained(&self) -> usize {
        self.end_bytes.saturating_sub(self.start_bytes)
    }

    /// Temporary memory: live at the peak but released by the end of the
    /// region (the light-blue component of Fig. 11).
    pub fn temporary(&self) -> usize {
        self.peak_bytes.saturating_sub(self.end_bytes)
    }

    /// Peak growth above the starting level.
    pub fn peak_above_start(&self) -> usize {
        self.peak_bytes.saturating_sub(self.start_bytes)
    }
}

/// Measures allocator activity between construction and [`MemRegion::finish`].
///
/// Resets the peak watermark on entry, so `peak_bytes` reflects only this
/// region. Regions must not be nested across threads that also reset the
/// peak; the experiment harness uses a single region at a time.
pub struct MemRegion {
    start_bytes: usize,
    start_total: usize,
}

impl MemRegion {
    /// Start measuring. Resets the global peak watermark.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        reset_peak();
        MemRegion {
            start_bytes: current_bytes(),
            start_total: total_allocated_bytes(),
        }
    }

    /// Stop measuring and return the region's statistics.
    pub fn finish(self) -> MemStats {
        MemStats {
            start_bytes: self.start_bytes,
            end_bytes: current_bytes(),
            peak_bytes: peak_bytes(),
            allocated_bytes: total_allocated_bytes() - self.start_total,
        }
    }
}

/// Pretty-print a byte count with binary units, e.g. `300.0 MiB`.
pub fn fmt_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the tracking allocator is not installed as the global allocator
    // in unit tests, so counter-reading tests exercise the bookkeeping
    // functions directly. The counters are global, so tests that touch
    // them serialize on this lock.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn record_alloc_updates_current_total_and_peak() {
        let _g = LOCK.lock().unwrap();
        let c0 = current_bytes();
        reset_peak();
        TrackingAlloc::record_alloc(1024);
        assert_eq!(current_bytes(), c0 + 1024);
        assert!(peak_bytes() >= c0 + 1024);
        TrackingAlloc::record_dealloc(1024);
        assert_eq!(current_bytes(), c0);
    }

    #[test]
    fn peak_is_watermark_not_current() {
        let _g = LOCK.lock().unwrap();
        reset_peak();
        let c0 = current_bytes();
        TrackingAlloc::record_alloc(4096);
        TrackingAlloc::record_dealloc(4096);
        assert_eq!(current_bytes(), c0);
        assert!(peak_bytes() >= c0 + 4096);
    }

    #[test]
    fn region_decomposition() {
        let _g = LOCK.lock().unwrap();
        let region = MemRegion::new();
        TrackingAlloc::record_alloc(1000); // temporary
        TrackingAlloc::record_alloc(500); // retained
        TrackingAlloc::record_dealloc(1000);
        let stats = region.finish();
        assert_eq!(stats.retained(), 500);
        assert_eq!(stats.temporary(), 1000);
        assert_eq!(stats.peak_above_start(), 1500);
        assert_eq!(stats.allocated_bytes, 1500);
        TrackingAlloc::record_dealloc(500);
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(300 * 1024 * 1024), "300.0 MiB");
        assert_eq!(fmt_bytes(0), "0 B");
    }

    #[test]
    fn memstats_saturating() {
        let s = MemStats {
            start_bytes: 100,
            end_bytes: 50,
            peak_bytes: 40,
            allocated_bytes: 0,
        };
        assert_eq!(s.retained(), 0);
        assert_eq!(s.temporary(), 0);
        assert_eq!(s.peak_above_start(), 0);
    }
}
