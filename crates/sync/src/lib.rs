//! Poison-tolerant synchronisation primitives with a `parking_lot`-style API,
//! and the lock-free [`PageTable`] under every sparse side table.
//!
//! The workspace builds hermetically (no registry access), so every external
//! dependency is banned. This crate wraps `std::sync` primitives behind the
//! ergonomic `parking_lot` surface the rest of the workspace was written
//! against: `lock()` / `read()` / `write()` return guards directly instead of
//! `Result`s, and a panicking thread never poisons a lock for everyone else —
//! the inner value is recovered and handed to the next waiter. That recovery
//! policy matches the fault-tolerance posture of the runtime: a tool or kernel
//! body that panics must not wedge the whole process.

#![warn(missing_docs)]

mod page_table;

pub use page_table::PageTable;

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`]. Wraps the std guard in an `Option` so that
/// [`Condvar::wait`] can take the guard out and put the re-acquired one back
/// without consuming the caller's binding (the `parking_lot` calling
/// convention).
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a new mutex protecting `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available. Poison from a
    /// panicked holder is discarded.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner: Some(guard) }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(e)) => {
                Some(MutexGuard { inner: Some(e.into_inner()) })
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside Condvar::wait")
    }
}

/// A condition variable paired with [`Mutex`], `parking_lot`-style: `wait`
/// borrows the guard mutably instead of consuming it.
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Condvar {
        Condvar { inner: std::sync::Condvar::new() }
    }

    /// Atomically release the guard's lock and wait for a notification,
    /// re-acquiring the lock before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard present before wait");
        let inner = self.inner.wait(inner).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(inner);
    }

    /// Like [`Condvar::wait`] with a timeout; returns `true` if the wait
    /// timed out.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> bool {
        let inner = guard.inner.take().expect("guard present before wait");
        let (inner, res) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(inner);
        res.timed_out()
    }

    /// Wake one waiting thread.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiting threads.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// A reader-writer lock whose `read()`/`write()` return guards directly.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// Shared-access RAII guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-access RAII guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Create a new lock protecting `value`.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock { inner: std::sync::RwLock::new(value) }
    }

    /// Consume the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access, discarding poison.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard { inner: self.inner.read().unwrap_or_else(PoisonError::into_inner) }
    }

    /// Acquire exclusive write access, discarding poison.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard { inner: self.inner.write().unwrap_or_else(PoisonError::into_inner) }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn mutex_survives_poison() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // A parking_lot-style lock hands the value back regardless.
        *m.lock() += 7;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn condvar_wait_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let h = thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut done = lock.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        h.join().unwrap();
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2, 3]);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(r1.len() + r2.len(), 6);
        }
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
    }
}
