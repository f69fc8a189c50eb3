//! Should-fail fixture: only the master's arm reaches the barrier.
//!
//! `sync_round` enters the cluster barrier on the master arm but skips
//! it on the worker arm; with a data-dependent condition every other
//! machine deadlocks waiting for the worker that never arrives. The
//! wait-graph pass must flag the barrier site with the branch line.
//!
//! This file is never compiled; it exists to be scanned (both by the
//! integration tests and by the must-fail table in `workspace_gate.rs`,
//! which adds it to the real runtime sources and requires a finding).

// analyze: scope(wait-graph)

impl InjAsymSync {
    fn sync_round(&self, is_master: bool) {
        if is_master {
            self.barrier.wait();
        } else {
            self.tally();
        }
    }
}
