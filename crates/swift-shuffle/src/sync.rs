//! Poison-free `Mutex`/`Condvar` wrappers over `std::sync`.
//!
//! The data path used `parking_lot`'s ergonomic API (`lock()` returns the
//! guard directly, `Condvar::wait` takes `&mut guard`). The workspace
//! builds offline with no external crates, so this module reproduces that
//! API shape on top of the standard library. Poisoned locks are recovered
//! rather than propagated: a panicking producer thread must not wedge
//! every consumer blocked on the same Cache Worker store.

#![expect(
    clippy::disallowed_types,
    reason = "this module is the poison-free lock shim over std::sync; interior mutability is its purpose"
)]

use std::sync;

/// A mutex whose `lock` returns the guard directly, recovering from
/// poisoning.
#[derive(Default, Debug)]
pub struct Mutex<T> {
    inner: sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`].
///
/// Holds the inner std guard in an `Option` so [`Condvar::wait`] can take
/// it out, block, and put it back — reproducing the `&mut guard` wait API.
pub struct MutexGuard<'a, T> {
    guard: Option<sync::MutexGuard<'a, T>>,
}

impl<T: std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.guard {
            Some(g) => std::fmt::Debug::fmt(&**g, f),
            None => f.write_str("MutexGuard(<taken for wait>)"),
        }
    }
}

impl<T> Mutex<T> {
    /// Creates a mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Acquires the lock, recovering the data if a previous holder panicked.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self
            .inner
            .lock()
            .unwrap_or_else(sync::PoisonError::into_inner);
        MutexGuard { guard: Some(guard) }
    }

    /// Consumes the mutex and returns the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present outside wait")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present outside wait")
    }
}

/// A condition variable whose `wait` takes the guard by `&mut`.
#[derive(Default, Debug)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    pub fn new() -> Self {
        Condvar::default()
    }

    /// Atomically releases the guarded lock and blocks until notified,
    /// reacquiring the lock before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.guard.take().expect("guard present before wait");
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(sync::PoisonError::into_inner);
        guard.guard = Some(inner);
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the shim is exercised from real threads"
)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let waiter = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            true
        });
        thread::sleep(std::time::Duration::from_millis(10));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7, "lock recovers after a panicking holder");
    }
}
