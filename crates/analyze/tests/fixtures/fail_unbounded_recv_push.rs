//! Should-fail fixture: packets accumulate in a receive loop with no
//! drain, break, or escape. The inline marker below must NOT silence
//! it — unbounded growth in a pump loop is a structural leak, never a
//! judgment call.
// analyze: scope(loop-discipline)

impl InjPump {
    fn inj_pump(&mut self) {
        loop {
            let pkt = self.rx.recv_packet();
            // analyze: allow(loop-discipline): bounded upstream (it is not)
            self.backlog.push(pkt);
        }
    }
}
