//! Should-fail fixture: four dead inline markers. A marker naming a rule
//! no pass reads inline (one of them a deleted pass's) and one in a file
//! outside its rule's scope are each a `dead-marker` finding.

impl InjMarked {
    fn inj_wait(&self) {
        // analyze: allow(blocking-under-lock): no pass reads this rule inline
        let g = self.inj_state.lock();
        drop(g);
    }

    // analyze: allow(panic-surface): the pass that read this is gone
    fn inj_index(&self) -> u8 {
        self.inj_bytes[0]
    }

    fn inj_bump(&self) {
        // analyze: allow(atomics-ordering): this file is outside the scope
        self.inj_n.fetch_add(1, Ordering::Relaxed);
    }

    fn inj_fill(&self) -> Vec<u8> {
        // analyze: allow(hot-path-alloc): the pass that read this is gone too
        vec![0u8; 4]
    }
}
