//! Recycled chunk buffers for the §IV-C exchange pipeline.
//!
//! PGX.D's data manager does not allocate a fresh buffer for every
//! outgoing request packet: buffers are drawn from a pool and returned
//! once the receiver has consumed them, so a steady-state exchange costs
//! no allocation per chunk. [`ChunkPool`] reproduces that mechanism for
//! the simulator: the send side ([`RequestBuffer`](crate::buffer::RequestBuffer))
//! acquires chunk backing stores here, and the receive side of
//! [`exchange`](crate::machine::MachineCtx::exchange)
//! releases every arriving chunk back after placing its elements, so the
//! same allocations circulate for the whole exchange (and across
//! exchanges, since the pool lives on the machine context).
//!
//! The pool is sharded: a handful of mutex-protected free lists, with
//! release/acquire spreading across shards via an atomic cursor, so the
//! receive thread and the task-manager send workers do not serialize on
//! one lock. Buffers are stored type-erased as raw allocations keyed by
//! `(TypeId, byte capacity)` — keying by `TypeId` guarantees a buffer is
//! only ever rebuilt into a `Vec` of the exact element type it was
//! allocated for, which keeps `Vec::from_raw_parts` sound (same layout,
//! same alignment, same element-capacity arithmetic).
//!
//! Synchronization goes through [`crate::sync`], so `--cfg loom` builds
//! model-check the shard locking (`tests/loom_pool.rs`); in debug builds
//! a pool created by the cluster runtime also reports chunk custody to the
//! fabric's [`ProtocolChecker`].

use crate::checker::{self, ProtocolChecker};
use crate::metrics::SharedCommStats;
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::trace::{EventKind, MachineTrace, LANE_MAIN};
use crate::sync::Mutex;
use std::any::TypeId;
use std::collections::{BTreeMap, HashMap, HashSet};
// The checker handle is deliberately a std Arc, not the loom one from
// crate::sync: it is plain shared ownership of non-loom-modeled state
// (the ledger's own Mutex is the shim's), and the fabric side
// (comm/machine/cluster) hands it over as std::sync::Arc.
use std::sync::Arc;

/// Number of independent free-list shards. Shrunk under loom so the model
/// checker's state space stays tractable while still exercising the
/// cross-shard cursor logic.
#[cfg(not(loom))]
const SHARDS: usize = 8;
#[cfg(loom)]
const SHARDS: usize = 2;

/// Per-shard retention bound: beyond this many bytes parked in one shard,
/// released buffers are dropped instead of pooled (keeps a pathological
/// burst of in-flight chunks from pinning memory forever).
const MAX_SHARD_BYTES: usize = 16 << 20;

/// A type-erased, empty `Vec<T>` allocation: pointer + byte capacity plus
/// the dropper that can rebuild and free it.
struct RawChunk {
    ptr: *mut u8,
    cap_bytes: usize,
    /// Rebuilds the original `Vec<T>` (len 0) and drops it.
    ///
    /// SAFETY contract: must only be called with the `ptr`/`cap_bytes`
    /// captured alongside it, exactly once.
    drop_fn: unsafe fn(*mut u8, usize),
}

// SAFETY: a RawChunk is the guts of an empty Vec<T> where T: Send (enforced
// by `release`'s bound); an empty buffer carries no T values, so moving the
// allocation between threads is safe.
unsafe impl Send for RawChunk {}

/// SAFETY contract: `(ptr, cap_bytes)` must be the parts of an empty
/// `Vec<T>` with capacity `cap_bytes / size_of::<T>()`, not freed yet.
unsafe fn drop_chunk<T>(ptr: *mut u8, cap_bytes: usize) {
    // SAFETY: caller guarantees (ptr, cap_bytes) came from an empty Vec<T>
    // with capacity cap_bytes / size_of::<T>().
    unsafe {
        drop(Vec::from_raw_parts(
            ptr.cast::<T>(),
            0,
            cap_bytes / std::mem::size_of::<T>(),
        ));
    }
}

/// One shard: free lists per element type, ordered by byte capacity so an
/// acquire can grab the smallest buffer that is big enough.
#[derive(Default)]
struct Shard {
    lists: HashMap<TypeId, BTreeMap<usize, Vec<RawChunk>>>,
    held_bytes: usize,
}

/// Sharded free-list of recycled chunk buffers, keyed by byte capacity.
///
/// One pool per simulated machine (created by the cluster runtime and
/// shared between the machine's receive thread and its send workers via
/// `Arc`). Hit/miss/recycle counters feed the cluster-wide
/// [`ExchangeStats`](crate::metrics::ExchangeStats).
pub struct ChunkPool {
    shards: Vec<Mutex<Shard>>,
    cursor: AtomicUsize,
    stats: SharedCommStats,
    /// Byte capacities this pool has ever handed out of `acquire` — a
    /// `release` of a buffer whose capacity was never handed out means a
    /// foreign buffer is being pushed into the free lists (debug builds
    /// and the `checker` feature assert against it; see
    /// [`release`](ChunkPool::release)).
    known_caps: Mutex<HashSet<usize>>,
    /// Fabric-wide checker custody ledger, when this pool belongs to a
    /// running cluster (debug builds).
    checker: Option<Arc<ProtocolChecker>>,
    /// Machine id for checker diagnostics (`usize::MAX` = standalone pool).
    machine: usize,
    /// The machine's trace sink (hit/miss instants); `None` when untraced.
    /// std Arc for the same reason as `checker` above.
    trace: Option<Arc<MachineTrace>>,
}

impl Drop for Shard {
    fn drop(&mut self) {
        for by_cap in self.lists.values_mut() {
            for chunks in by_cap.values_mut() {
                for c in chunks.drain(..) {
                    // SAFETY: (ptr, cap_bytes, drop_fn) were captured
                    // together from a live Vec in `release`.
                    unsafe { (c.drop_fn)(c.ptr, c.cap_bytes) };
                }
            }
        }
    }
}

impl Drop for ChunkPool {
    fn drop(&mut self) {
        // Tell the checker the parked allocations are about to be freed,
        // so their addresses can be legitimately reused by later
        // allocations without tripping the double-release diagnostic.
        if checker::ENABLED {
            if let Some(chk) = &self.checker {
                for shard in &self.shards {
                    let shard = shard.lock();
                    for by_cap in shard.lists.values() {
                        for chunks in by_cap.values() {
                            for c in chunks {
                                chk.chunk_freed(c.ptr as usize);
                            }
                        }
                    }
                }
            }
        }
    }
}

impl ChunkPool {
    /// A pool reporting its counters into `stats`.
    pub fn new(stats: SharedCommStats) -> Self {
        ChunkPool {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            cursor: AtomicUsize::new(0),
            stats,
            known_caps: Mutex::new(HashSet::new()),
            checker: None,
            machine: usize::MAX,
            trace: None,
        }
    }

    /// A pool that additionally reports chunk custody for `machine` to the
    /// fabric's protocol checker (used by the cluster runtime).
    pub(crate) fn with_checker(
        stats: SharedCommStats,
        checker: Arc<ProtocolChecker>,
        machine: usize,
    ) -> Self {
        ChunkPool {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            cursor: AtomicUsize::new(0),
            stats,
            known_caps: Mutex::new(HashSet::new()),
            checker: Some(checker),
            machine,
            trace: None,
        }
    }

    /// Attaches the machine's trace sink (must run before the pool is
    /// shared; [`MachineCtx::new`](crate::machine::MachineCtx) does so).
    pub(crate) fn set_trace(&mut self, trace: Arc<MachineTrace>) {
        self.trace = Some(trace);
    }

    /// An empty `Vec<T>` with capacity for at least `cap_elems` elements:
    /// recycled if a big-enough buffer of this type is pooled (a *hit*),
    /// freshly allocated otherwise (a *miss*).
    // Shard index is `% SHARDS`; the range lookups assert free-list invariants
    // the pool itself maintains.
    pub fn acquire<T: Send + 'static>(&self, cap_elems: usize) -> Vec<T> {
        let size = std::mem::size_of::<T>();
        if size == 0 {
            return Vec::with_capacity(cap_elems);
        }
        let want_bytes = cap_elems * size;
        let key = TypeId::of::<T>();
        // analyze: allow(atomics-ordering): round-robin probe hint only —
        // a stale read just starts the shard probe elsewhere; the chunks
        // themselves are published by the shard locks.
        let start = self.cursor.load(Ordering::Relaxed);
        for i in 0..SHARDS {
            let mut shard = self.shards[(start + i) % SHARDS].lock();
            let Some(by_cap) = shard.lists.get_mut(&key) else {
                continue;
            };
            let Some((&cap_bytes, _)) = by_cap.range(want_bytes..).next() else {
                continue;
            };
            let chunks = by_cap.get_mut(&cap_bytes).expect("range key present");
            let chunk = chunks.pop().expect("empty capacity bucket not pruned");
            if chunks.is_empty() {
                by_cap.remove(&cap_bytes);
            }
            shard.held_bytes -= cap_bytes;
            // Ledger update happens inside the shard critical section so
            // custody order and ledger order can never diverge: once the
            // lock drops, a concurrent release may re-park this address,
            // and its chunk_released must observe our chunk_acquired.
            self.note_handed_out(chunk.ptr as usize, cap_bytes);
            drop(shard);
            self.stats.exchange.record_pool_hit();
            if let Some(t) = &self.trace {
                t.instant(LANE_MAIN, EventKind::PoolHit, want_bytes as u64, 0);
            }
            // SAFETY: TypeId match guarantees the allocation was made as a
            // Vec<T>, so layout/alignment agree and cap_bytes is an exact
            // multiple of size_of::<T>().
            return unsafe { Vec::from_raw_parts(chunk.ptr.cast::<T>(), 0, cap_bytes / size) };
        }
        self.stats.exchange.record_pool_miss();
        if let Some(t) = &self.trace {
            t.instant(LANE_MAIN, EventKind::PoolMiss, want_bytes as u64, 0);
        }
        let fresh: Vec<T> = Vec::with_capacity(cap_elems);
        if fresh.capacity() > 0 {
            self.note_handed_out(fresh.as_ptr() as usize, fresh.capacity() * size);
        }
        fresh
    }

    /// Records an allocation leaving the pool (debug builds): its capacity
    /// becomes a legitimate `release` key, and the fabric checker starts
    /// tracking its custody.
    fn note_handed_out(&self, addr: usize, cap_bytes: usize) {
        if !checker::ENABLED {
            return;
        }
        self.known_caps.lock().insert(cap_bytes);
        if let Some(chk) = &self.checker {
            chk.chunk_acquired(self.machine, addr, cap_bytes);
        }
    }

    /// Returns a spent chunk buffer to the pool. The contents are cleared;
    /// only the allocation is kept. Buffers of zero capacity (or arriving
    /// while the shard is at its retention bound) are simply dropped.
    ///
    /// In debug builds (or with the `checker` feature) this asserts the
    /// buffer's byte capacity matches one this pool ever handed out — a
    /// foreign buffer pushed into the free lists would otherwise poison
    /// them silently. Chunks that arrived over the fabric from *another*
    /// machine's pool go through `release_inbound` instead, which admits
    /// their capacity.
    pub fn release<T: Send + 'static>(&self, buf: Vec<T>) {
        self.release_impl(buf, false);
    }

    /// Returns an *inbound* chunk — one whose backing store was acquired
    /// from the sending machine's pool and arrived here over the fabric —
    /// adopting its capacity as a legitimate key for this pool.
    pub(crate) fn release_inbound<T: Send + 'static>(&self, buf: Vec<T>) {
        self.release_impl(buf, true);
    }

    // Shard index is `% SHARDS` (the hash cannot select an out-of-range
    // shard).
    fn release_impl<T: Send + 'static>(&self, mut buf: Vec<T>, admit_capacity: bool) {
        let size = std::mem::size_of::<T>();
        buf.clear();
        let cap_bytes = buf.capacity() * size;
        if cap_bytes == 0 {
            return;
        }
        if checker::ENABLED {
            let mut known = self.known_caps.lock();
            if admit_capacity {
                known.insert(cap_bytes);
            } else {
                assert!(
                    known.contains(&cap_bytes),
                    "ChunkPool::release: machine {} got a foreign buffer \
                     ({cap_bytes} B capacity, type {}) that this pool never \
                     handed out — release_inbound is for chunks from remote \
                     pools",
                    self.machine_label(),
                    std::any::type_name::<T>(),
                );
            }
        }
        let addr = buf.as_ptr() as usize;
        // analyze: allow(atomics-ordering): placement counter spreading
        // releases across shards; the buffer is published by the shard
        // lock taken on the next line, not by this counter.
        let shard_idx = self.cursor.fetch_add(1, Ordering::Relaxed) % SHARDS;
        let mut shard = self.shards[shard_idx].lock();
        if shard.held_bytes + cap_bytes > MAX_SHARD_BYTES {
            self.note_released(addr, cap_bytes, false);
            drop(shard);
            return; // buf drops: allocation is freed
        }
        let mut buf = std::mem::ManuallyDrop::new(buf);
        let chunk = RawChunk {
            ptr: buf.as_mut_ptr().cast::<u8>(),
            cap_bytes,
            drop_fn: drop_chunk::<T>,
        };
        shard.held_bytes += cap_bytes;
        shard
            .lists
            .entry(TypeId::of::<T>())
            .or_default()
            .entry(cap_bytes)
            .or_default()
            .push(chunk);
        // Record the release inside the critical section that publishes the
        // chunk: the moment the shard lock drops, a concurrent acquire can
        // pop this chunk and record chunk_acquired — the ledger must
        // already show it parked by then, or the checker reports a phantom
        // "handed out twice".
        self.note_released(addr, cap_bytes, true);
        drop(shard);
        self.stats.exchange.record_recycled();
    }

    /// Records an allocation returning to the pool for the fabric checker
    /// (debug builds). `parked` is false when the retention bound dropped
    /// the allocation instead of keeping it.
    fn note_released(&self, addr: usize, cap_bytes: usize, parked: bool) {
        if !checker::ENABLED {
            return;
        }
        if let Some(chk) = &self.checker {
            chk.chunk_released(self.machine, addr, cap_bytes, parked);
        }
    }

    // analyze: allow(hot-path-alloc): label string is only built on trace/
    // checker-enabled release paths; production release never calls this.
    fn machine_label(&self) -> String {
        if self.machine == usize::MAX {
            "<standalone>".to_string()
        } else {
            self.machine.to_string()
        }
    }

    /// Total bytes currently parked across all shards (diagnostics).
    pub fn held_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().held_bytes).sum()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::metrics::CommStats;
    use std::sync::Arc;

    fn pool() -> (ChunkPool, SharedCommStats) {
        let stats: SharedCommStats = Arc::new(CommStats::default());
        (ChunkPool::new(stats.clone()), stats)
    }

    #[test]
    fn miss_then_hit_roundtrip() {
        let (pool, stats) = pool();
        let v: Vec<u64> = pool.acquire(100);
        assert!(v.capacity() >= 100);
        assert_eq!(stats.exchange.summary().pool_misses, 1);
        pool.release(v);
        assert_eq!(stats.exchange.summary().chunks_recycled, 1);
        let v2: Vec<u64> = pool.acquire(100);
        assert!(v2.capacity() >= 100);
        assert_eq!(stats.exchange.summary().pool_hits, 1);
        pool.release(v2);
    }

    #[test]
    fn acquire_prefers_big_enough_buffer() {
        let (pool, stats) = pool();
        let small: Vec<u64> = pool.acquire(10);
        let big: Vec<u64> = pool.acquire(1000);
        pool.release(small);
        pool.release(big);
        // Wants 100: the 10-cap buffer cannot satisfy it, the 1000-cap can.
        let v: Vec<u64> = pool.acquire(100);
        assert!(v.capacity() >= 1000);
        assert_eq!(stats.exchange.summary().pool_hits, 1);
        pool.release(v);
    }

    #[test]
    fn types_do_not_mix() {
        let (pool, stats) = pool();
        let owned: Vec<u64> = pool.acquire(64);
        pool.release(owned);
        // A pooled u64 buffer covers the byte size, but the element type
        // differs: must be a miss.
        let v: Vec<u32> = pool.acquire(64);
        assert_eq!(v.len(), 0);
        assert_eq!(stats.exchange.summary().pool_misses, 2);
        assert_eq!(stats.exchange.summary().pool_hits, 0);
    }

    #[test]
    fn release_clears_contents() {
        let (pool, _) = pool();
        let mut v: Vec<u64> = pool.acquire(3);
        v.extend([1, 2, 3]);
        pool.release(v);
        let v: Vec<u64> = pool.acquire(1);
        assert!(v.is_empty());
        assert!(v.capacity() >= 3);
        pool.release(v);
    }

    #[test]
    fn zero_capacity_release_is_noop() {
        let (pool, stats) = pool();
        pool.release::<u64>(Vec::new());
        assert_eq!(stats.exchange.summary().chunks_recycled, 0);
        assert_eq!(pool.held_bytes(), 0);
    }

    #[test]
    fn inbound_chunk_adopted_and_recirculated() {
        // A chunk arriving over the fabric originates on the *sender's*
        // pool; release_inbound admits it, after which it recirculates
        // like any owned buffer.
        let (pool, stats) = pool();
        pool.release_inbound(vec![1u64, 2, 3, 4]);
        assert_eq!(stats.exchange.summary().chunks_recycled, 1);
        let v: Vec<u64> = pool.acquire(4);
        assert!(v.capacity() >= 4);
        assert_eq!(stats.exchange.summary().pool_hits, 1);
        pool.release(v);
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "checker"))]
    #[should_panic(expected = "foreign buffer")]
    fn foreign_release_asserts() {
        let (pool, _) = pool();
        // Never handed out by this pool and not inbound: must assert.
        pool.release(vec![1u64, 2, 3]);
    }

    #[test]
    fn pool_drop_frees_parked_buffers() {
        // No assertion beyond "does not leak / crash" (miri verifies).
        let (pool, _) = pool();
        for _ in 0..20 {
            let a: Vec<u64> = pool.acquire(32);
            let b: Vec<u8> = pool.acquire(7);
            pool.release(a);
            pool.release(b);
        }
        drop(pool);
    }

    #[test]
    fn concurrent_acquire_release() {
        let (pool, stats) = pool();
        let pool = Arc::new(pool);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = pool.clone();
                s.spawn(move || {
                    for _ in 0..200 {
                        let v: Vec<u64> = pool.acquire(128);
                        pool.release(v);
                    }
                });
            }
        });
        let ex = stats.exchange.summary();
        assert_eq!(ex.pool_hits + ex.pool_misses, 800);
        assert!(ex.pool_hits > 0);
    }

    #[test]
    fn concurrent_custody_ledger_stays_consistent() {
        // Regression: the checker ledger must be updated inside the shard
        // critical section. With the old unlock-then-notify ordering, an
        // acquire racing a release could pop a chunk and record
        // chunk_acquired before the release's chunk_released landed,
        // tripping a phantom "handed out twice" panic on a correct run.
        let stats: SharedCommStats = Arc::new(CommStats::default());
        let chk = Arc::new(ProtocolChecker::new(1));
        let pool = Arc::new(ChunkPool::with_checker(stats, chk.clone(), 0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = pool.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        let v: Vec<u64> = pool.acquire(128);
                        pool.release(v);
                    }
                });
            }
        });
        // Every buffer was released: nothing may still be live.
        chk.check_quiescent("pool stress teardown", Some(0));
    }
}
