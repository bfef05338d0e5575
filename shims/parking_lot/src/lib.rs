//! Offline stand-in for `parking_lot`, used because crates.io is
//! unreachable in this build environment.
//!
//! Wraps `std::sync` primitives behind parking_lot's poison-free API:
//! `lock()` returns the guard directly, and `Condvar::wait` takes the
//! guard by `&mut`. Poisoned std locks are recovered with `into_inner`
//! rather than propagated, matching parking_lot's no-poisoning semantics.

use std::ops::{Deref, DerefMut};
use std::sync;

/// A mutex whose `lock` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T> {
    inner: sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex { inner: sync::Mutex::new(value) }
    }

    /// Acquire the lock, recovering (not propagating) poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { inner: self.inner.lock().unwrap_or_else(sync::PoisonError::into_inner) }
    }
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

/// A reader-writer lock whose acquisition never returns a poison error.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    inner: sync::RwLock<T>,
}

/// RAII shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T> {
    inner: sync::RwLockReadGuard<'a, T>,
}

/// RAII exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T> {
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock { inner: sync::RwLock::new(value) }
    }

    /// Acquire shared read access, recovering (not propagating) poisoning.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard { inner: self.inner.read().unwrap_or_else(sync::PoisonError::into_inner) }
    }

    /// Acquire exclusive write access, recovering poisoning.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard { inner: self.inner.write().unwrap_or_else(sync::PoisonError::into_inner) }
    }
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable matching parking_lot's `&mut guard` wait API.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar { inner: sync::Condvar::new() }
    }

    /// Atomically release the lock and block until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        // std's wait consumes and returns the guard; parking_lot's mutates
        // it in place. Bridge the two by moving the guard out and back.
        //
        // SAFETY: `guard` is exclusively borrowed and the moved-out value
        // is overwritten via `ptr::write` before anyone can observe the
        // hole. std's `Condvar::wait` can still unwind (e.g. if a condvar
        // is paired with two different mutexes); unwinding past the hole
        // would double-drop the guard, so an abort guard turns that into
        // a process abort instead of UB. Poisoning is recovered, not
        // propagated.
        struct AbortOnUnwind;
        impl Drop for AbortOnUnwind {
            fn drop(&mut self) {
                std::process::abort();
            }
        }
        unsafe {
            let taken = std::ptr::read(&guard.inner);
            let bomb = AbortOnUnwind;
            let reacquired = self.inner.wait(taken).unwrap_or_else(sync::PoisonError::into_inner);
            std::mem::forget(bomb);
            std::ptr::write(&mut guard.inner, reacquired);
        }
    }

    /// Atomically release the lock and block until notified or until
    /// `timeout` elapses, matching parking_lot's `wait_for`.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> WaitTimeoutResult {
        // Same guard-bridging scheme as `wait` above; see its SAFETY note.
        struct AbortOnUnwind;
        impl Drop for AbortOnUnwind {
            fn drop(&mut self) {
                std::process::abort();
            }
        }
        unsafe {
            let taken = std::ptr::read(&guard.inner);
            let bomb = AbortOnUnwind;
            let (reacquired, result) = match self.inner.wait_timeout(taken, timeout) {
                Ok((g, r)) => (g, r),
                Err(poisoned) => {
                    let (g, r) = poisoned.into_inner();
                    (g, r)
                }
            };
            std::mem::forget(bomb);
            std::ptr::write(&mut guard.inner, reacquired);
            WaitTimeoutResult { timed_out: result.timed_out() }
        }
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// Whether a [`Condvar::wait_for`] returned because the timeout elapsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// `true` if the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

#[cfg(test)]
mod tests {
    use super::{Condvar, Mutex, RwLock};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn rwlock_readers_share_writers_exclude() {
        let l = RwLock::new(7usize);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 14);
        }
        *l.write() += 1;
        assert_eq!(*l.read(), 8);
    }

    #[test]
    fn lock_guards_mutation() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn wait_for_times_out_without_notification() {
        let state = (Mutex::new(false), Condvar::new());
        let mut flag = state.0.lock();
        let r = state.1.wait_for(&mut flag, Duration::from_millis(10));
        assert!(r.timed_out());
        assert!(!*flag);
    }

    #[test]
    fn wait_for_wakes_on_notify() {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let (lock, cv) = &*state;
                let mut done = lock.lock();
                while !*done {
                    cv.wait_for(&mut done, Duration::from_secs(5));
                }
                true
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        *state.0.lock() = true;
        state.1.notify_all();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn condvar_wakes_waiter() {
        let state = Arc::new((Mutex::new(0usize), Condvar::new()));
        let waiter = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let (lock, cv) = &*state;
                let mut count = lock.lock();
                while *count < 3 {
                    cv.wait(&mut count);
                }
                *count
            })
        };
        let (lock, cv) = &*state;
        for _ in 0..3 {
            *lock.lock() += 1;
            cv.notify_all();
        }
        assert_eq!(waiter.join().unwrap(), 3);
    }
}
