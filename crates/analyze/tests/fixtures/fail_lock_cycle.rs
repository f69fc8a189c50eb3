//! Should-fail fixture: a lock-order cycle split across two functions.
//!
//! `flush_side` takes `ring` then calls `refill`, which takes `slab` and
//! calls back into `admit_side`, which takes `ring` again — so the
//! interprocedural held-lock graph contains `ring -> slab -> ring`.
//! Expected findings: two `blocking-under-lock` acquires (the call sites
//! at lines 16 and 22) and one `lock-order` cycle.
//!
//! This file is never compiled; it exists to be scanned (both by the
//! integration tests and by the must-fail table in `workspace_gate.rs`,
//! which adds it to the real runtime sources and requires a finding).

impl InjCyclePool {
    fn flush_side(&self) {
        let ring = self.inj_ring.lock();
        self.refill();
        drop(ring);
    }

    fn refill(&self) {
        let slab = self.inj_slab.lock();
        self.admit_side();
        drop(slab);
    }

    fn admit_side(&self) {
        let ring = self.inj_ring.lock();
        drop(ring);
    }
}
