//! Should-fail fixture: four dead inline markers and one live one. A
//! marker naming a rule no pass reads inline, one in a file outside its
//! rule's scope, and one covering no finding are each a `dead-marker`
//! finding; the marker that covers the `vec!` is not.
// analyze: scope(hot-path-alloc)

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

    fn hot_fill(&self) {
        // analyze: allow(hot-path-alloc): the live marker, covering the vec!
        let v = vec![0u8; 4];
        // analyze: allow(hot-path-alloc): nothing on the next line allocates
        drop(v);
    }
}
