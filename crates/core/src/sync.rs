//! The locks the runtime runs on, under their real names.
//!
//! [`Mutex`], [`Condvar`] and [`RwLock`] are `std::sync`'s behind
//! entry points that absorb poisoning: a task body that panics is a
//! typed [`JadeFault`](crate::error::JadeFault), not a reason for
//! every later `lock()` to fail, and the executors' recovery paths
//! re-take locks a panicking thread held. The guards are `std`'s own,
//! so a wait is `guard = cv.wait(guard)`.
//!
//! [`OwnedRwLock`] is the one hand-rolled lock: its guards own an
//! `Arc` of the lock instead of borrowing it, which `std` cannot
//! express and which the access guards handed to task bodies
//! ([`ReadGuard`](crate::ctx::ReadGuard) /
//! [`WriteGuard`](crate::ctx::WriteGuard)) need — they outlive the
//! object-store borrow they were looked up through. All `unsafe` lock
//! code in the workspace is in this module.
//!
//! [`CachePadded`] is not a lock: it keeps a value that two threads
//! write on every task off the cache line of its neighbours.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard};

/// `std::sync::Mutex` whose `lock` absorbs poison.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Create a mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, whether or not a holder panicked.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `std::sync::Condvar` whose `wait` absorbs poison. Every notify is a
/// `futex` call whether or not anyone waits, so callers on a hot path
/// gate their notifies on a waiter they know exists.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Release the guard's lock, block until notified, re-acquire.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// `std::sync::RwLock` whose `read`/`write` absorb poison.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Create an unlocked lock.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A value alone on its cache line (128 bytes: x86 prefetches lines in
/// adjacent pairs). For a counter or lock that two threads write on
/// every task: padded, a write by one no longer evicts whatever the
/// other reads next to it.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

#[derive(Debug)]
struct RwState {
    readers: usize,
    writer: bool,
    /// Threads parked on `cond`. An unlock notifies only when this is
    /// non-zero; it is read and written under `state`, so an unlocker
    /// either sees the waiter or the waiter sees the unlocked state.
    waiting: usize,
}

/// A readers-writer lock whose guards hold an `Arc` of the lock: the
/// cell of one shared-object version.
#[derive(Debug)]
pub struct OwnedRwLock<T> {
    state: Mutex<RwState>,
    cond: Condvar,
    data: UnsafeCell<T>,
}

// SAFETY: `data` is reached only through the guards below, and the
// reader/writer protocol on `state` hands out either any number of
// shared guards (`&T` on several threads, hence `T: Sync`) or one
// exclusive guard (`&mut T` on whichever thread took it, hence
// `T: Send`), never both — the bounds of `std::sync::RwLock`.
unsafe impl<T: Send + Sync> Sync for OwnedRwLock<T> {}

impl<T> OwnedRwLock<T> {
    /// Create an unlocked lock.
    pub const fn new(value: T) -> Self {
        OwnedRwLock {
            state: Mutex::new(RwState { readers: 0, writer: false, waiting: 0 }),
            cond: Condvar::new(),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquire shared access; the guard keeps the lock alive.
    pub fn read_owned(self: Arc<Self>) -> OwnedReadGuard<T> {
        let mut st = self.state.lock();
        while st.writer {
            st.waiting += 1;
            st = self.cond.wait(st);
            st.waiting -= 1;
        }
        st.readers += 1;
        drop(st);
        OwnedReadGuard { lock: self }
    }

    /// Acquire exclusive access; the guard keeps the lock alive.
    pub fn write_owned(self: Arc<Self>) -> OwnedWriteGuard<T> {
        let mut st = self.state.lock();
        while st.writer || st.readers > 0 {
            st.waiting += 1;
            st = self.cond.wait(st);
            st.waiting -= 1;
        }
        st.writer = true;
        drop(st);
        OwnedWriteGuard { lock: self }
    }
}

/// Shared access to an [`OwnedRwLock`]'s value.
#[derive(Debug)]
pub struct OwnedReadGuard<T> {
    lock: Arc<OwnedRwLock<T>>,
}

impl<T> Deref for OwnedReadGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this guard counts in `readers`, so no writer holds
        // or can take the lock until it drops; only `&T` exist.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> Drop for OwnedReadGuard<T> {
    fn drop(&mut self) {
        let mut st = self.lock.state.lock();
        st.readers -= 1;
        if st.readers == 0 && st.waiting > 0 {
            self.lock.cond.notify_all();
        }
    }
}

/// Exclusive access to an [`OwnedRwLock`]'s value.
#[derive(Debug)]
pub struct OwnedWriteGuard<T> {
    lock: Arc<OwnedRwLock<T>>,
}

impl<T> Deref for OwnedWriteGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this guard set `writer`, which excludes every other
        // guard until it drops.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for OwnedWriteGuard<T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`, and `&mut self` makes this the only
        // reference derived from the one exclusive guard.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for OwnedWriteGuard<T> {
    fn drop(&mut self) {
        let mut st = self.lock.state.lock();
        st.writer = false;
        if st.waiting > 0 {
            self.lock.cond.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Run `f` on its own thread and fail if it has not returned after
    /// `secs`: a lost wake-up must be a test failure, not a hung suite.
    fn under_watchdog(secs: u64, f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        let h = std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        match rx.recv_timeout(Duration::from_secs(secs)) {
            Ok(()) => h.join().unwrap(),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(h.join().unwrap_err())
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("no progress after {secs} s"),
        }
    }

    #[test]
    fn mutex_and_condvar_roundtrip() {
        let m = Arc::new(Mutex::new(0u32));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let h = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g = 7;
            cv2.notify_all();
        });
        let mut g = m.lock();
        while *g != 7 {
            g = cv.wait(g);
        }
        drop(g);
        h.join().unwrap();
    }

    #[test]
    fn mutex_absorbs_poison() {
        let m = Arc::new(Mutex::new(1u8));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 1);
        assert_eq!(Arc::try_unwrap(m).unwrap().into_inner(), 1);
    }

    #[test]
    fn rwlock_absorbs_poison() {
        let l = Arc::new(RwLock::new(1u8));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*l.read(), 1);
        *l.write() = 2;
        assert_eq!(*l.read(), 2);
    }

    #[test]
    fn rwlock_excludes_writers() {
        let l = Arc::new(OwnedRwLock::new(0u64));
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        *l.clone().write_owned() += 1;
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(*l.read_owned(), 400);
    }

    #[test]
    fn arc_guards_outlive_borrow() {
        let (g, g2) = {
            let l = Arc::new(OwnedRwLock::new(5i32));
            (l.clone().read_owned(), l.read_owned())
        };
        assert_eq!(*g + *g2, 10);
        let l = Arc::clone(&g.lock);
        drop((g, g2));
        let mut w = l.clone().write_owned();
        *w = 6;
        drop(w);
        assert_eq!(*l.read_owned(), 6);
    }

    /// Spin until `n` threads are parked on the lock's condvar.
    fn until_waiting<T>(l: &OwnedRwLock<T>, n: usize) {
        while l.state.lock().waiting != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn readers_overlap_and_a_writer_excludes_both() {
        under_watchdog(30, || {
            let l = Arc::new(OwnedRwLock::new(0u32));
            let r1 = l.clone().read_owned();
            // A second reader gets in while the first still holds.
            let l2 = Arc::clone(&l);
            std::thread::spawn(move || assert_eq!(*l2.read_owned(), 0)).join().unwrap();

            let entered = Arc::new(AtomicBool::new(false));
            let (go_tx, go_rx) = mpsc::channel::<()>();
            let (l2, entered2) = (Arc::clone(&l), Arc::clone(&entered));
            let writer = std::thread::spawn(move || {
                let mut w = l2.write_owned();
                entered2.store(true, Ordering::SeqCst);
                *w = 1;
                go_rx.recv().unwrap();
                *w = 2;
            });
            // The writer parks behind the held read guard.
            until_waiting(&l, 1);
            assert!(!entered.load(Ordering::SeqCst), "writer entered beside a reader");
            drop(r1);
            while !entered.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // A reader that arrives while the writer holds parks, and
            // sees only the writer's final value.
            let l2 = Arc::clone(&l);
            let reader = std::thread::spawn(move || assert_eq!(*l2.read_owned(), 2));
            until_waiting(&l, 1);
            go_tx.send(()).unwrap();
            writer.join().unwrap();
            reader.join().unwrap();
        });
    }

    #[test]
    fn alternating_handoffs_lose_no_wakeup() {
        // Two threads take turns advancing a counter under the write
        // guard. The turn is passed *while the guard is still held*,
        // so the other side runs into the held lock and parks; the
        // holder then only spins on the turn, never touching the lock
        // again — nothing but its own unlock can wake the parked side.
        const ROUNDS: u64 = 100_000;
        under_watchdog(120, || {
            let l = Arc::new(OwnedRwLock::new(0u64));
            let turn = Arc::new(AtomicU64::new(0));
            let hs: Vec<_> = (0..2u64)
                .map(|me| {
                    let (l, turn) = (Arc::clone(&l), Arc::clone(&turn));
                    std::thread::spawn(move || {
                        for _ in 0..ROUNDS {
                            while turn.load(Ordering::SeqCst) % 2 != me {
                                std::thread::yield_now();
                            }
                            assert_eq!(*l.clone().read_owned() % 2, me, "missed a write");
                            let mut w = l.clone().write_owned();
                            *w += 1;
                            turn.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(*l.read_owned(), 2 * ROUNDS);
        });
    }

    #[test]
    fn panicking_holder_leaves_the_lock_usable() {
        let l = Arc::new(OwnedRwLock::new(1u8));
        for write in [true, false] {
            let l2 = Arc::clone(&l);
            let _ = std::thread::spawn(move || {
                let _w = write.then(|| l2.clone().write_owned());
                let _r = (!write).then(|| l2.read_owned());
                panic!("holder died");
            })
            .join();
        }
        *l.clone().write_owned() += 1;
        assert_eq!(*l.read_owned(), 2);
    }

    #[test]
    fn contended_mix_keeps_the_invariant() {
        // Writers keep two fields equal; readers must never see them
        // differ (a reader admitted beside a writer would).
        under_watchdog(60, || {
            let l = Arc::new(OwnedRwLock::new((0u64, 0u64)));
            let torn = Arc::new(AtomicUsize::new(0));
            let hs: Vec<_> = (0..4)
                .map(|i| {
                    let (l, torn) = (Arc::clone(&l), Arc::clone(&torn));
                    std::thread::spawn(move || {
                        for _ in 0..5_000 {
                            if i % 2 == 0 {
                                let mut w = l.clone().write_owned();
                                w.0 += 1;
                                std::hint::spin_loop();
                                w.1 += 1;
                            } else {
                                let r = l.clone().read_owned();
                                if r.0 != r.1 {
                                    torn.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(torn.load(Ordering::Relaxed), 0);
            assert_eq!(*l.read_owned(), (10_000, 10_000));
        });
    }
}
