//! Should-fail fixture: seqlock publication with a `Relaxed` store.
//!
//! `publish` writes the payload with `Relaxed` before bumping the
//! version — readers can observe the new version without the payload,
//! which is exactly the reorder the seqlock discipline exists to stop.
//!
//! This file is never compiled; it exists to be scanned (both by the
//! integration tests and by the must-fail table in `workspace_gate.rs`,
//! which adds it to the real runtime sources and requires a finding).

// analyze: scope(atomics-ordering)

impl InjSeqCell {
    fn publish(&self, v: u64) {
        self.inj_payload.store(v, Ordering::Relaxed);
        self.inj_version.store(1, Ordering::Release);
    }
}
