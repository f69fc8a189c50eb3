//! Loom model checking for the overlapped-exchange protocol shape
//! (§IV-C "send while receiving").
//!
//! Compiled only under `--cfg loom`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test --release \
//!     --manifest-path crates/pgxd/modelcheck/Cargo.toml --test loom_exchange
//! ```
//!
//! The real fabric receives with a deadline, which loom (it has no clock)
//! cannot model, so this test drives a miniature single-destination fabric
//! of the same shape: a queue behind [`pgxd::sync`]'s `Mutex`/`Condvar`,
//! the primitives the real queues and the cluster barrier use. The
//! protocol under test is the exchange's essential concurrency: a sender
//! thread allocating each chunk and publishing it, offset-addressed,
//! while the receiving thread concurrently drains them, writes each into
//! its slot of a preallocated output, and drops it. Every interleaving
//! must produce the identity permutation and write each output slot
//! exactly once.

#![cfg(loom)]

use pgxd::sync::{thread, Arc, Condvar, Mutex};
use std::collections::VecDeque;

/// Offset-addressed chunks in flight plus the sender's done flag.
type Mailbox = (VecDeque<(usize, Vec<u64>)>, bool);

/// One-destination mailbox guarded by the shim's mutex/condvar.
struct MiniFabric {
    q: Mutex<Mailbox>,
    cv: Condvar,
}

impl MiniFabric {
    fn new() -> Self {
        MiniFabric {
            q: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    fn send(&self, offset: usize, chunk: Vec<u64>) {
        self.q.lock().0.push_back((offset, chunk));
        self.cv.notify_one();
    }

    fn finish_sending(&self) {
        self.q.lock().1 = true;
        self.cv.notify_one();
    }

    /// Blocks for the next chunk; `None` once the sender finished and the
    /// queue drained.
    fn recv(&self) -> Option<(usize, Vec<u64>)> {
        let mut guard = self.q.lock();
        loop {
            if let Some(item) = guard.0.pop_front() {
                return Some(item);
            }
            if guard.1 {
                return None;
            }
            guard = self.cv.wait(guard);
        }
    }
}

const CHUNK: usize = 2;
const CHUNKS: usize = 2;
const TOTAL: usize = CHUNK * CHUNKS;

#[test]
fn send_while_receiving_round() {
    loom::model(|| {
        let fabric = Arc::new(MiniFabric::new());

        let sender = {
            let fabric = fabric.clone();
            thread::spawn(move || {
                for c in 0..CHUNKS {
                    let base = c * CHUNK;
                    fabric.send(base, (base..base + CHUNK).map(|v| v as u64).collect());
                }
                fabric.finish_sending();
            })
        };

        // Receive concurrently: place each chunk at its offset, count the
        // writes per slot, drop the chunk.
        let mut out = [0u64; TOTAL];
        let mut writes = [0usize; TOTAL];
        while let Some((offset, chunk)) = fabric.recv() {
            for (i, v) in chunk.iter().enumerate() {
                out[offset + i] = *v;
                writes[offset + i] += 1;
            }
        }
        sender.join().unwrap();

        // Interleaving-independent invariants: exact tiling (each slot
        // written exactly once) and the identity permutation.
        assert!(writes.iter().all(|&n| n == 1), "offset tiling violated");
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64));
    });
}
