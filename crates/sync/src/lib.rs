//! # parcoach-sync — every lock and every thread of the workspace
//!
//! Two halves, one crate, so that one hook sees both the threads and
//! what they wait on:
//!
//! * the locks: [`Mutex`], [`RwLock`], [`Condvar`] (`wait`,
//!   `wait_while`, `wait_until`, `notify_one`, `notify_all`) and
//!   [`ReentrantMutex`] (for `critical` sections, which OpenMP defines
//!   as reentrant per-name locks), implemented purely on `std::sync` so
//!   the workspace builds with zero external dependencies. `lock()`
//!   returns a guard directly, and a condvar wait takes the guard by
//!   `&mut` instead of by value;
//! * the threads: [`ThreadCache`] and the process-wide
//!   [`thread_cache`], whose [`ThreadCache::run_map`] is the one
//!   fork/join of the simulators and whose [`ThreadCache::spawn`] runs
//!   the detached tasks (the daemon's connections, the fuzz oracle's
//!   watchdog).
//!
//! Poisoning is deliberately swallowed (`PoisonError::into_inner`): a
//! panicking simulator thread is itself the error condition under test,
//! and the deadlock census must keep running to report it; a panicking
//! daemon worker must not turn every later lock of its connection into a
//! second panic.

mod cache;

pub use cache::{thread_cache, ThreadCache};

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{self as ss};
use std::thread::{self, ThreadId};
use std::time::Instant;

/// A mutex whose `lock` never returns a poison error.
pub struct Mutex<T: ?Sized>(ss::Mutex<T>);

/// RAII guard for [`Mutex`]. Holds the inner std guard in an `Option` so
/// [`Condvar::wait`] can temporarily take ownership through `&mut`.
pub struct MutexGuard<'a, T: ?Sized>(Option<ss::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex(ss::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(ss::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(
            self.0.lock().unwrap_or_else(ss::PoisonError::into_inner),
        ))
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard taken during condvar wait")
    }
}

/// Outcome of a timed condition-variable wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Condition variable whose waits take the guard by `&mut` instead of
/// by value (std style).
///
/// It counts its sleepers, so a notify with nobody waiting makes no
/// system call (std's futex condvar keeps no count and always makes
/// one). The count cannot miss a sleeper as long as every notifier
/// first changes, under the mutex its waiters hold, the state they
/// re-check: a waiter raises the count before the wait releases that
/// mutex, so a notifier that then takes the mutex sees the raised
/// count, and one that took it earlier made its change before the
/// waiter looked. Notify after the unlock: a thread woken while the
/// notifier still holds the mutex only blocks again on it.
#[derive(Default)]
pub struct Condvar {
    cv: ss::Condvar,
    /// Threads inside a wait. `Relaxed`: the mutex orders every raise
    /// before the notifies that must see it.
    sleepers: AtomicUsize,
}

impl Condvar {
    pub fn new() -> Self {
        Condvar::default()
    }

    pub fn notify_one(&self) {
        if self.sleepers.load(Relaxed) > 0 {
            self.cv.notify_one();
        }
    }

    pub fn notify_all(&self) {
        if self.sleepers.load(Relaxed) > 0 {
            self.cv.notify_all();
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard already taken");
        self.sleepers.fetch_add(1, Relaxed);
        let inner = self
            .cv
            .wait(inner)
            .unwrap_or_else(ss::PoisonError::into_inner);
        self.sleepers.fetch_sub(1, Relaxed);
        guard.0 = Some(inner);
    }

    /// Block until `condition` returns false: re-checks after every
    /// wakeup, so spurious wakeups and notify-storms are absorbed here
    /// instead of at every caller.
    pub fn wait_while<T, F>(&self, guard: &mut MutexGuard<'_, T>, mut condition: F)
    where
        F: FnMut(&mut T) -> bool,
    {
        while condition(&mut *guard) {
            self.wait(guard);
        }
    }

    /// Wait until `deadline`; returns whether the wait timed out. A
    /// deadline already in the past degenerates to a zero-length wait,
    /// which reports a timeout unless the condvar is already signalled.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let timeout = deadline.saturating_duration_since(Instant::now());
        let inner = guard.0.take().expect("guard already taken");
        self.sleepers.fetch_add(1, Relaxed);
        let (inner, result) = match self.cv.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(poisoned) => poisoned.into_inner(),
        };
        self.sleepers.fetch_sub(1, Relaxed);
        guard.0 = Some(inner);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }
}

/// Reader-writer lock without poisoning.
pub struct RwLock<T: ?Sized>(ss::RwLock<T>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock(ss::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> ss::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(ss::PoisonError::into_inner)
    }

    pub fn write(&self) -> ss::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(ss::PoisonError::into_inner)
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.try_read() {
            Ok(guard) => f.debug_tuple("RwLock").field(&&*guard).finish(),
            Err(_) => f.write_str("RwLock(<locked>)"),
        }
    }
}

/// A mutex the owning thread may lock any number of times, as OpenMP
/// requires of `critical` sections guarding recursive code.
pub struct ReentrantMutex<T: ?Sized> {
    state: ss::Mutex<ReentrantState>,
    cv: ss::Condvar,
    data: T,
}

struct ReentrantState {
    owner: Option<ThreadId>,
    depth: usize,
}

/// RAII guard for [`ReentrantMutex`]. `!Send`: the lock must be released
/// on the thread that acquired it.
pub struct ReentrantMutexGuard<'a, T: ?Sized> {
    lock: &'a ReentrantMutex<T>,
    _not_send: PhantomData<*const ()>,
}

unsafe impl<T: ?Sized + Send> Send for ReentrantMutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for ReentrantMutex<T> {}

impl<T> ReentrantMutex<T> {
    pub fn new(data: T) -> Self {
        ReentrantMutex {
            state: ss::Mutex::new(ReentrantState {
                owner: None,
                depth: 0,
            }),
            cv: ss::Condvar::new(),
            data,
        }
    }
}

impl<T: ?Sized> ReentrantMutex<T> {
    pub fn lock(&self) -> ReentrantMutexGuard<'_, T> {
        let me = thread::current().id();
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(ss::PoisonError::into_inner);
        loop {
            match st.owner {
                None => {
                    st.owner = Some(me);
                    st.depth = 1;
                    break;
                }
                Some(owner) if owner == me => {
                    st.depth += 1;
                    break;
                }
                Some(_) => {
                    st = self.cv.wait(st).unwrap_or_else(ss::PoisonError::into_inner);
                }
            }
        }
        ReentrantMutexGuard {
            lock: self,
            _not_send: PhantomData,
        }
    }
}

impl<T: ?Sized> Deref for ReentrantMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.lock.data
    }
}

impl<T: ?Sized> Drop for ReentrantMutexGuard<'_, T> {
    fn drop(&mut self) {
        let mut st = self
            .lock
            .state
            .lock()
            .unwrap_or_else(ss::PoisonError::into_inner);
        st.depth -= 1;
        if st.depth == 0 {
            st.owner = None;
            self.lock.cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_and_condvar_roundtrip() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            cv.wait(&mut done);
        }
        assert!(*done);
        h.join().unwrap();
    }

    #[test]
    fn wait_while_blocks_until_condition_clears() {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = thread::spawn(move || {
            let (m, cv) = &*p2;
            for _ in 0..3 {
                *m.lock() += 1;
                cv.notify_all();
            }
        });
        let (m, cv) = &*pair;
        let mut g = m.lock();
        cv.wait_while(&mut g, |v| *v < 3);
        assert_eq!(*g, 3);
        drop(g);
        h.join().unwrap();
    }

    /// A waiter counts as a sleeper from before it releases the mutex
    /// until it holds it again, so the notify that wakes it is made.
    #[test]
    fn a_waiter_counts_while_it_sleeps() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = thread::spawn(move || {
            let (m, cv) = &*p2;
            cv.wait_while(&mut m.lock(), |ready| !*ready);
        });
        let (m, cv) = &*pair;
        while cv.sleepers.load(Relaxed) == 0 {
            thread::yield_now();
        }
        *m.lock() = true;
        cv.notify_all();
        h.join().unwrap();
        assert_eq!(cv.sleepers.load(Relaxed), 0);
    }

    #[test]
    fn wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(10));
        assert!(res.timed_out());
    }

    #[test]
    fn reentrant_lock_is_reentrant() {
        let m = ReentrantMutex::new(());
        let _a = m.lock();
        let _b = m.lock(); // must not deadlock
    }

    #[test]
    fn reentrant_lock_excludes_other_threads() {
        let m = Arc::new(ReentrantMutex::new(()));
        let counter = Arc::new(Mutex::new(0u32));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..100 {
                    let _g = m.lock();
                    let mut c = counter.lock();
                    let old = *c;
                    thread::yield_now();
                    *c = old + 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 400);
    }

    #[test]
    fn rwlock_many_readers() {
        let l = RwLock::new(5);
        let a = l.read();
        let b = l.read();
        assert_eq!(*a + *b, 10);
    }
}
