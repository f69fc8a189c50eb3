//! std-only stand-in for `parking_lot`, covering exactly what
//! `pgxd::sync` calls: a non-poisoning `Mutex` and a `Condvar` whose waits
//! take the guard by `&mut`.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

/// Holds the std guard in an `Option` only so `Condvar` can move it into
/// std's by-value wait and put the reacquired guard back.
pub struct MutexGuard<'a, T> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Never fails: like parking_lot, a panic in another holder does not
    /// poison the lock. The runtime's checker relies on this — its shared
    /// verdict makes several machines panic while others still lock.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside a wait")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside a wait")
    }
}

#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard.inner.take().expect("guard present outside a wait");
        guard.inner = Some(self.inner.wait(held).unwrap_or_else(|e| e.into_inner()));
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let held = guard.inner.take().expect("guard present outside a wait");
        let (held, result) = self
            .inner
            .wait_timeout(held, timeout)
            .unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(held);
        WaitTimeoutResult(result.timed_out())
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

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
    }

    #[test]
    fn wait_for_reports_a_time_out_and_keeps_the_lock() {
        let m = Mutex::new(5);
        let cv = Condvar::new();
        let mut g = m.lock();
        let start = Instant::now();
        let timeout = Duration::from_millis(20);
        assert!(cv.wait_for(&mut g, timeout).timed_out());
        assert!(start.elapsed() >= timeout);
        *g += 1;
        assert_eq!(*g, 6);
    }

    #[test]
    fn wait_for_reports_a_notification_as_not_timed_out() {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let state2 = state.clone();
        let mut g = state.0.lock();
        let setter = std::thread::spawn(move || {
            *state2.0.lock() = true;
            state2.1.notify_all();
        });
        let mut timed_out = false;
        while !*g && !timed_out {
            timed_out = state
                .1
                .wait_for(&mut g, Duration::from_secs(30))
                .timed_out();
        }
        assert!(*g && !timed_out);
        drop(g);
        setter.join().unwrap();
    }

    #[test]
    fn wait_wakes_on_notify() {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let state2 = state.clone();
        let setter = std::thread::spawn(move || {
            *state2.0.lock() = true;
            state2.1.notify_one();
        });
        let mut g = state.0.lock();
        while !*g {
            state.1.wait(&mut g);
        }
        drop(g);
        setter.join().unwrap();
    }
}
