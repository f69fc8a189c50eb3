//! Should-fail fixture: the same pooled chunk is released twice.
//!
//! `drain` acquires one chunk and hands it to `release` twice on the
//! same straight-line path — the second release hands the pool a buffer
//! it already owns, aliasing whoever reacquired it in between.
//!
//! This file is never compiled; it exists to be scanned by the
//! integration tests (`analysis_fixtures.rs`), which assert the finding
//! and its chain.

impl InjDoubleFree {
    fn drain(&self, n: usize) {
        let buf = self.inj_pool.acquire::<u64>(n);
        self.inj_pool.release(buf);
        self.inj_pool.release(buf);
    }
}
