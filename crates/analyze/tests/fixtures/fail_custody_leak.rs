//! Should-fail fixture: a pooled chunk leaks on an early return.
//!
//! `fill` acquires a chunk from the pool, then bails out on the empty
//! input before either releasing or handing it off — the chunk-custody
//! dataflow pass must report the escape at the `return` with a chain
//! back to the acquire site.
//!
//! This file is never compiled; it exists to be scanned (both by the
//! integration tests and by the must-fail table in `workspace_gate.rs`,
//! which adds it to the real runtime sources and requires a finding).

impl InjLeaker {
    fn fill(&self, n: usize) -> bool {
        let buf = self.inj_pool.acquire::<u64>(n);
        if n == 0 {
            return false;
        }
        self.inj_pool.release(buf);
        true
    }
}
