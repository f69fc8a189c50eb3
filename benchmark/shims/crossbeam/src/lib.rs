//! std-only stand-in for `crossbeam`, covering exactly what `pgxd` calls:
//! an unbounded multi-producer multi-consumer channel with cloneable
//! receivers. One mutex-guarded queue plus a condvar — slower under
//! contention than the real lock-free channel, which is why benchmark
//! output is labelled `"deps": "std-shims"`.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    impl<T> Shared<T> {
        // A panic while the lock is held can only happen inside VecDeque
        // push/pop, which leave the queue valid, so poisoning is ignored.
        fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
            self.queue.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Sender<T> {
        /// Queues `value`; fails only when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(value));
            }
            self.shared.lock().push_back(value);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Take the lock so a receiver between its emptiness check
                // and its wait cannot miss this wake-up.
                let _queue = self.shared.lock();
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks for the next value; errors once the queue is empty and
        /// the last sender has dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.shared.lock();
            loop {
                if let Some(value) = queue.pop_front() {
                    return Ok(value);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                queue = self
                    .shared
                    .ready
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Returns a queued value without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            match self.shared.lock().pop_front() {
                Some(value) => Ok(value),
                None if self.shared.senders.load(Ordering::SeqCst) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks (parked on the condvar, not polling) for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut queue = self.shared.lock();
            loop {
                if let Some(value) = queue.pop_front() {
                    return Ok(value);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                queue = self
                    .shared
                    .ready
                    .wait_timeout(queue, left)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// The value that could not be sent. `Debug` without `T: Debug`, so
    /// `send(boxed_closure).expect(..)` compiles as it does with crossbeam.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::Barrier;

        #[test]
        fn recv_errors_only_after_last_sender_drops() {
            let (tx, rx) = unbounded::<u32>();
            let tx2 = tx.clone();
            tx.send(1).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            tx2.send(2).unwrap();
            drop(tx2);
            // Queued values outlive their senders.
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn worker_loops_drain_and_exit() {
            // The TaskManager shape: cloned receivers, `while let Ok(..)`.
            let (tx, rx) = unbounded::<u64>();
            for i in 0..1000 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let total: u64 = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let rx = rx.clone();
                        scope.spawn(move || {
                            let mut sum = 0;
                            while let Ok(v) = rx.recv() {
                                sum += v;
                            }
                            sum
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(total, 999 * 1000 / 2);
        }

        #[test]
        fn blocked_recv_wakes_when_last_sender_drops() {
            let (tx, rx) = unbounded::<u32>();
            let gate = Barrier::new(2);
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| {
                    gate.wait();
                    rx.recv()
                });
                gate.wait();
                drop(tx);
                assert_eq!(waiter.join().unwrap(), Err(RecvError));
            });
        }

        #[test]
        fn recv_timeout_blocks_for_the_timeout() {
            let (_tx, rx) = unbounded::<u32>();
            let start = Instant::now();
            let timeout = Duration::from_millis(30);
            assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
            assert!(start.elapsed() >= timeout);
        }

        #[test]
        fn recv_timeout_returns_a_value_sent_meanwhile() {
            let (tx, rx) = unbounded::<u32>();
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| rx.recv_timeout(Duration::from_secs(30)));
                tx.send(7).unwrap();
                assert_eq!(waiter.join().unwrap(), Ok(7));
            });
        }

        #[test]
        fn send_fails_once_receivers_are_gone() {
            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert!(tx.send(1).is_err());
        }
    }
}
