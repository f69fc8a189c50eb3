//! Synchronization shim: the one import point for the primitives the
//! runtime synchronizes through, swappable between the production
//! implementations and [loom]'s model-checked versions.
//!
//! Compiled normally, every export is `std`, wrapped only where the runtime
//! needs a different contract: [`Mutex`] and [`Condvar`] never poison, a
//! debug build checks that no thread holds two guards or blocks under one
//! ([one guard at a time](Mutex#one-guard-at-a-time)), and the fabric
//! queue ([`unbounded`]) is a `VecDeque` behind that pair. The
//! crate has no dependency outside the workspace. Compiled with
//! `--cfg loom` through `crates/pgxd/modelcheck/Cargo.toml` (the manifest
//! that names the `loom` crate, so the default workspace never resolves
//! it), every export resolves to the `loom` equivalent, so the loom tests
//! can exhaustively explore thread interleavings of the overlapped-exchange
//! protocol instead of sampling whichever schedule the
//! OS happens to produce.
//!
//! Everything in `pgxd` that synchronizes between threads must go through
//! this module or through [`TaskManager`](crate::task::TaskManager). The
//! crate's clippy configuration (`clippy.toml`, denied in its manifest)
//! rejects `std::sync::{Mutex, RwLock, Condvar}`, the `std::sync::mpsc`
//! channels and `std::thread::spawn` anywhere else in the crate, however
//! they are imported, so no code path can silently opt out of model
//! checking. This module is the one that allows them.
//!
//! The deliberate exceptions, documented here so the policy is auditable:
//!
//! - [`CommStats`](crate::metrics::CommStats) counters stay on
//!   `std::sync::atomic` — they are monotonic statistics with `Relaxed`
//!   ordering that never gate control flow, and keeping them invisible to
//!   loom keeps the model state space tractable.
//! - The fabric's queues ([`unbounded`], used by [`comm`](crate::comm))
//!   receive in timed slices, between which a waiter checks the run's
//!   stall rule, and loom has no time model, so the loom tests exercise a
//!   miniature fabric of the same shape — a queue behind this module's
//!   `Mutex`/`Condvar` — instead (`tests/loom_exchange.rs`). The cluster
//!   barrier (`fault::ClusterBarrier`) is built on this module's
//!   primitives directly.
//!
//! [loom]: https://docs.rs/loom

#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
#[cfg(not(loom))]
use std::sync::PoisonError;
use std::time::{Duration, Instant};

#[cfg(loom)]
pub use loom::sync::atomic;
#[cfg(not(loom))]
pub use std::sync::atomic;

#[cfg(loom)]
pub use loom::sync::Arc;
#[cfg(not(loom))]
pub use std::sync::Arc;

#[cfg(loom)]
pub use loom::thread;
#[cfg(not(loom))]
pub use std::thread;

/// Guard returned by [`Mutex::lock`]: the primitive's own guard, and the
/// thread's [one-guard](Mutex#one-guard-at-a-time) token beside it. It has
/// no `Drop` of its own, so [`Condvar::wait`] can take it apart.
pub struct MutexGuard<'a, T> {
    #[cfg(not(loom))]
    inner: std::sync::MutexGuard<'a, T>,
    #[cfg(loom)]
    inner: loom::sync::MutexGuard<'a, T>,
    held: Held,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Mutual exclusion for the fabric queues, the cluster barrier, the trace
/// sinks, the fault plane's parked chunks and a task list:
/// `std::sync::Mutex` in production builds, `loom::sync::Mutex` under
/// `--cfg loom`.
///
/// `lock` is infallible: a holder that panicked does not poison the lock.
/// A barrier's shared verdict makes several machines panic while others
/// still lock, and every structure guarded here is valid between any two
/// of its updates. Under loom, poisoning cannot be observed because a
/// panicking model execution aborts the run.
///
/// # One guard at a time
///
/// No thread holds two guards: the runtime's lock graph has no edge, so
/// it cannot have a cycle. Debug builds check this where it runs. `lock`
/// panics, naming both guarded types, if the thread already holds a
/// guard; so do the fabric's send and receive and the cluster barrier,
/// which lock their own mutex, and [`TaskManager`]'s joins. A
/// [`Condvar`] wait gives the thread's guard up for its sleep. Release
/// builds and loom check nothing, and the guard's token is zero-sized.
///
/// [`TaskManager`]: crate::task::TaskManager
pub struct Mutex<T> {
    #[cfg(not(loom))]
    inner: std::sync::Mutex<T>,
    #[cfg(loom)]
    inner: loom::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A new mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            #[cfg(not(loom))]
            inner: std::sync::Mutex::new(value),
            #[cfg(loom)]
            inner: loom::sync::Mutex::new(value),
        }
    }

    /// Acquires the mutex, blocking until it is available. In debug
    /// builds, panics if this thread already holds a guard.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        // Checked before blocking: a second lock of the same mutex would
        // otherwise deadlock instead of panicking.
        let held = Held::take::<T>();
        #[cfg(not(loom))]
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        #[cfg(loom)]
        let inner = self.inner.lock().unwrap();
        MutexGuard { inner, held }
    }
}

/// Whether this build checks the one-guard rule: debug builds do, release
/// builds and loom (whose model threads share one OS thread) do not.
const CHECKED: bool = cfg!(all(debug_assertions, not(loom)));

thread_local! {
    /// The type the thread's live guard protects, if it holds one.
    static HELD: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// The type the thread's live guard protects, if it holds one and this
/// build checks.
fn held() -> Option<&'static str> {
    if CHECKED {
        HELD.get()
    } else {
        None
    }
}

/// The thread's one-guard token, zero-sized: taking it records the
/// guarded type, and dropping it, with its guard or for a condvar's
/// sleep, clears it.
struct Held;

impl Held {
    fn take<T>() -> Held {
        let wanted = std::any::type_name::<T>();
        if let Some(held) = held() {
            panic!("locking a `Mutex<{wanted}>` while holding a `Mutex<{held}>` guard: pgxd takes one lock at a time");
        }
        if CHECKED {
            HELD.set(Some(wanted));
        }
        Held
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        if CHECKED {
            HELD.set(None);
        }
    }
}

/// Panics if this thread holds a guard while it is about to `block`
/// (where the build checks the one-guard rule).
pub(crate) fn assert_no_guard(block: &str) {
    if let Some(held) = held() {
        panic!("{block} while holding a `Mutex<{held}>` guard: pgxd blocks under no lock");
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// Condition variable paired with [`Mutex`]: `std::sync::Condvar` in
/// production builds, `loom::sync::Condvar` under `--cfg loom`. Like the
/// mutex, its waits ignore poisoning.
pub struct Condvar {
    #[cfg(not(loom))]
    inner: std::sync::Condvar,
    #[cfg(loom)]
    inner: loom::sync::Condvar,
}

impl Condvar {
    /// A new condition variable.
    pub fn new() -> Self {
        Condvar {
            #[cfg(not(loom))]
            inner: std::sync::Condvar::new(),
            #[cfg(loom)]
            inner: loom::sync::Condvar::new(),
        }
    }

    /// Blocks on `guard` until notified, reacquiring the lock on wake.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let MutexGuard { inner, held } = guard;
        drop(held);
        #[cfg(not(loom))]
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        #[cfg(loom)]
        let inner = self.inner.wait(inner).unwrap();
        MutexGuard {
            inner,
            held: Held::take::<T>(),
        }
    }

    /// Blocks on `guard` until notified or `timeout` elapses, reacquiring
    /// the lock on wake. Returns the guard and whether the wait timed out.
    ///
    /// Under loom this degrades to an untimed [`Condvar::wait`] that never
    /// reports a timeout: loom has no time model, and the callers (the
    /// cluster barrier's and the fabric receive's slices) are not
    /// exercised by the loom suites.
    pub fn wait_for<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        #[cfg(not(loom))]
        {
            let MutexGuard { inner, held } = guard;
            drop(held);
            let (inner, result) = self
                .inner
                .wait_timeout(inner, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            (
                MutexGuard {
                    inner,
                    held: Held::take::<T>(),
                },
                result.timed_out(),
            )
        }
        #[cfg(loom)]
        {
            let _ = timeout;
            (self.wait(guard), false)
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one()
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all()
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// One fabric queue: the values in flight and whether anyone can still
/// receive them.
struct Queue<T> {
    inner: Mutex<QueueState<T>>,
    ready: Condvar,
}

struct QueueState<T> {
    values: VecDeque<T>,
    receiver_gone: bool,
}

/// An unbounded queue from any number of [`Sender`]s to one [`Receiver`],
/// first in first out per sender: a machine's inbox on the fabric.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let queue = Arc::new(Queue {
        inner: Mutex::new(QueueState {
            values: VecDeque::new(),
            receiver_gone: false,
        }),
        ready: Condvar::new(),
    });
    (
        Sender {
            queue: queue.clone(),
        },
        Receiver { queue },
    )
}

/// The sending half of [`unbounded`]; clones feed the same queue.
pub struct Sender<T> {
    queue: Arc<Queue<T>>,
}

/// The receiving half of [`unbounded`].
pub struct Receiver<T> {
    queue: Arc<Queue<T>>,
}

impl<T> Sender<T> {
    /// Queues `value` and wakes the receiver. Once the receiver has been
    /// dropped nothing can read the queue, and the value comes back as the
    /// error.
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut state = self.queue.inner.lock();
        if state.receiver_gone {
            return Err(value);
        }
        state.values.push_back(value);
        drop(state);
        self.queue.ready.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender {
            queue: self.queue.clone(),
        }
    }
}

impl<T> Receiver<T> {
    /// The next value, waiting for at most `timeout` — parked on the
    /// condition variable, not polling. `None` when the time is up.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut state = self.queue.inner.lock();
        loop {
            if let Some(value) = state.values.pop_front() {
                return Some(value);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            state = self.queue.ready.wait_for(state, left).0;
        }
    }

    /// Frees the queue's buffer if it holds nothing, so a queue keeps no
    /// memory of its largest burst between bursts.
    pub fn release_if_empty(&self) {
        let mut state = self.queue.inner.lock();
        if state.values.is_empty() {
            state.values = VecDeque::new();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.queue.inner.lock().receiver_gone = true;
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (m.clone(), cv.clone());
        let h = std::thread::spawn(move || {
            *m2.lock() = true;
            cv2.notify_one();
        });
        let mut guard = m.lock();
        while !*guard {
            guard = cv.wait(guard);
        }
        h.join().unwrap();
    }

    #[test]
    fn wait_for_reports_timeout() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let (_guard, timed_out) = cv.wait_for(m.lock(), std::time::Duration::from_millis(10));
        assert!(timed_out);
    }

    #[test]
    fn lock_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(1));
        let m2 = m.clone();
        let holder = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g = 2;
            panic!("holder dies with the lock held");
        });
        assert!(holder.join().is_err());
        assert_eq!(*m.lock(), 2);
        // A guard unwound by a panic gives the thread's token back.
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock();
            panic!("holder unwinds with the lock held");
        }));
        assert!(unwound.is_err());
        assert_eq!(held(), None);
        assert_eq!(*m.lock(), 2);
    }

    /// The message of the panic `f` raises.
    #[cfg(debug_assertions)]
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the call panics");
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .expect("a message")
                .to_string(),
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_nested_lock_panics_naming_both_types() {
        let (a, b) = (Mutex::new(0u8), Mutex::new(String::new()));
        let _a = a.lock();
        let message = panic_message(|| drop(b.lock()));
        assert!(
            message.contains("`Mutex<alloc::string::String>`"),
            "{message}"
        );
        assert!(message.contains("`Mutex<u8>` guard"), "{message}");
        // Relocking the held mutex panics too, where it would deadlock.
        let message = panic_message(|| drop(a.lock()));
        assert!(
            message.contains("`Mutex<u8>` while holding a `Mutex<u8>`"),
            "{message}"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_queue_send_or_receive_under_a_guard_panics() {
        let (tx, rx) = unbounded::<u32>();
        let m = Mutex::new(0u16);
        let _g = m.lock();
        let message = panic_message(|| {
            let _ = tx.send(1);
        });
        assert!(
            message.contains("while holding a `Mutex<u16>` guard"),
            "{message}"
        );
        let message = panic_message(|| {
            let _ = rx.recv_timeout(Duration::ZERO);
        });
        assert!(
            message.contains("while holding a `Mutex<u16>` guard"),
            "{message}"
        );
    }

    #[test]
    fn waits_give_the_guard_up_and_a_dropped_guard_can_be_retaken() {
        let (a, b) = (Mutex::new(()), Mutex::new(()));
        let cv = Condvar::new();
        let (g, timed_out) = cv.wait_for(a.lock(), Duration::from_millis(1));
        assert!(timed_out);
        assert_eq!(held(), CHECKED.then_some("()"));
        drop(g);
        let g = b.lock();
        drop(g);
        let flag = Arc::new(Mutex::new(false));
        let flag2 = flag.clone();
        let cv = Arc::new(Condvar::new());
        let cv2 = cv.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                *flag2.lock() = true;
                cv2.notify_one();
            });
            let mut g = flag.lock();
            while !*g {
                g = cv.wait(g);
            }
        });
        assert_eq!(held(), None);
        drop(a.lock());
    }

    #[test]
    #[cfg(debug_assertions)]
    fn joining_tasks_under_a_guard_panics() {
        let tm = crate::task::TaskManager::new(2);
        let m = Mutex::new(0i8);
        let _g = m.lock();
        let message = panic_message(|| tm.run_tasks(vec![Box::new(|| ())]));
        assert!(
            message.contains("joining a step's tasks while holding a `Mutex<i8>`"),
            "{message}"
        );
        let message = panic_message(|| tm.run_tasks_overlapping(vec![Box::new(|| ())], || ()));
        assert!(
            message.contains("joining a step's tasks while holding"),
            "{message}"
        );
    }

    #[test]
    fn send_fails_once_the_receiver_is_dropped() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        assert_eq!(tx.send(1), Ok(()));
        drop(rx);
        assert_eq!(tx.send(2), Err(2));
        assert_eq!(tx2.send(3), Err(3));
    }

    #[test]
    fn recv_timeout_blocks_for_the_timeout() {
        let (_tx, rx) = unbounded::<u32>();
        let start = Instant::now();
        let timeout = Duration::from_millis(30);
        assert_eq!(rx.recv_timeout(timeout), None);
        assert!(start.elapsed() >= timeout);
    }

    #[test]
    fn recv_timeout_returns_a_value_sent_meanwhile() {
        let (tx, rx) = unbounded::<u32>();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| rx.recv_timeout(Duration::from_secs(30)));
            tx.send(7).unwrap();
            assert_eq!(waiter.join().unwrap(), Some(7));
        });
    }

    #[test]
    fn values_arrive_in_each_senders_order() {
        const PER_SENDER: u64 = 500;
        let (tx, rx) = unbounded::<(u64, u64)>();
        std::thread::scope(|scope| {
            for sender in 0..3 {
                let tx = tx.clone();
                scope.spawn(move || {
                    for i in 0..PER_SENDER {
                        tx.send((sender, i)).unwrap();
                    }
                });
            }
            let mut next = [0u64; 3];
            for _ in 0..3 * PER_SENDER {
                let (sender, i) = rx.recv_timeout(Duration::from_secs(30)).expect("a value");
                assert_eq!(i, next[sender as usize], "sender {sender}");
                next[sender as usize] += 1;
            }
            assert_eq!(rx.recv_timeout(Duration::ZERO), None);
        });
    }
}
