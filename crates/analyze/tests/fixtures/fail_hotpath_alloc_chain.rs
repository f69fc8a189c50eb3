//! Should-fail fixture: a hot root reaches a `to_vec` two calls deep —
//! the full root-to-site chain must name every hop.
// analyze: scope(hot-path-alloc)

pub struct InjShipper {
    data: Vec<u8>,
}

impl InjShipper {
    fn hot_drive(&self, c: &C) {
        self.inj_ship(c);
    }

    fn inj_ship(&self, c: &C) {
        self.inj_pack(c);
    }

    fn inj_pack(&self, _c: &C) {
        let copy = self.data.to_vec();
        drop(copy);
    }
}
