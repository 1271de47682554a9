//! A cache of parked OS threads for *blocking* simulator workloads.
//!
//! The compute [`Pool`](crate::Pool) must never run tasks that block on
//! each other: a team of 4 simulated threads meeting at a barrier needs
//! all 4 running **simultaneously**, which a fixed-width work-stealing
//! pool cannot guarantee. The [`ThreadCache`] keeps that guarantee while
//! killing the per-region spawn cost the simulators used to pay: a
//! [`run_set`] of `n` members runs member 0 on the calling thread — which
//! would otherwise only park until the set is done — and acquires one
//! *dedicated* parked thread for each of the other `n - 1` (spawning new
//! OS threads only when the idle list runs dry); the threads return to
//! the idle list when their member finishes — the next `parallel` region
//! or rank set reuses them.
//!
//! A member returns its thread to the idle list *before* it counts down
//! the completion latch, so by the time `run_set` returns, every thread
//! it used is already reusable — back-to-back regions never over-spawn.
//!
//! [`run_set`]: ThreadCache::run_set

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

type CacheTask = Box<dyn FnOnce() + Send + 'static>;

/// Erase a scoped task's lifetime so it can cross into a cached worker.
///
/// # Safety
/// The caller must not return (or otherwise invalidate the borrows)
/// before the task has finished running. A boxed trait object's layout
/// does not depend on its lifetime parameter.
unsafe fn erase_task_lifetime<'a>(task: Box<dyn FnOnce() + Send + 'a>) -> CacheTask {
    std::mem::transmute(task)
}

/// Message box of one cached worker thread.
struct WorkSlot {
    cell: Mutex<SlotMsg>,
    cv: Condvar,
}

enum SlotMsg {
    /// Parked, waiting for work.
    Idle,
    /// One task to run.
    Run(CacheTask),
    /// Exit the worker loop (idle list was full on release).
    Retire,
}

impl WorkSlot {
    fn new() -> WorkSlot {
        WorkSlot {
            cell: Mutex::new(SlotMsg::Idle),
            cv: Condvar::new(),
        }
    }

    fn deliver(&self, msg: SlotMsg) {
        *self.cell.lock() = msg;
        self.cv.notify_one();
    }
}

struct CacheShared {
    idle: Mutex<Vec<Arc<WorkSlot>>>,
    /// Idle threads kept beyond this are retired instead.
    max_idle: usize,
    spawned: AtomicUsize,
    reused: AtomicUsize,
}

impl CacheShared {
    /// Put a worker's slot back on the idle list (or retire it). Called
    /// from *inside* the worker's current task, so the worker is
    /// guaranteed to observe the Retire message on its next wait.
    fn release(&self, slot: &Arc<WorkSlot>) {
        let mut idle = self.idle.lock();
        if idle.len() >= self.max_idle {
            slot.deliver(SlotMsg::Retire);
        } else {
            idle.push(Arc::clone(slot));
        }
    }
}

fn cached_worker(slot: Arc<WorkSlot>) {
    loop {
        let task = {
            let mut g = slot.cell.lock();
            loop {
                match std::mem::replace(&mut *g, SlotMsg::Idle) {
                    SlotMsg::Run(t) => break t,
                    SlotMsg::Retire => return,
                    SlotMsg::Idle => slot.cv.wait(&mut g),
                }
            }
        };
        task();
    }
}

/// Countdown latch with a panic slot: `run_set` waits on it and resumes
/// the first member panic.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn Any + Send + 'static>>,
}

impl Latch {
    fn new(n: usize) -> Latch {
        Latch {
            state: Mutex::new(LatchState {
                remaining: n,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn count_down(&self, panic: Option<Box<dyn Any + Send + 'static>>) {
        let mut st = self.state.lock();
        if let Some(p) = panic {
            st.panic.get_or_insert(p);
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            drop(st);
            self.done.notify_all();
        }
    }

    fn wait(&self) -> Option<Box<dyn Any + Send + 'static>> {
        let mut st = self.state.lock();
        self.done.wait_while(&mut st, |s| s.remaining > 0);
        st.panic.take()
    }
}

/// The cache. Cheap to share (`&'static` via
/// [`thread_cache`](crate::thread_cache) in normal use).
pub struct ThreadCache {
    shared: Arc<CacheShared>,
}

impl Default for ThreadCache {
    fn default() -> Self {
        ThreadCache::new(64)
    }
}

impl ThreadCache {
    /// A cache keeping at most `max_idle` parked threads.
    pub fn new(max_idle: usize) -> ThreadCache {
        ThreadCache {
            shared: Arc::new(CacheShared {
                idle: Mutex::new(Vec::new()),
                max_idle,
                spawned: AtomicUsize::new(0),
                reused: AtomicUsize::new(0),
            }),
        }
    }

    /// Total OS threads ever spawned by this cache.
    pub fn spawned_total(&self) -> usize {
        self.shared.spawned.load(Ordering::Relaxed)
    }

    /// Total dispatches served by a parked (reused) thread.
    pub fn reused_total(&self) -> usize {
        self.shared.reused.load(Ordering::Relaxed)
    }

    /// Run `f(0), f(1), …, f(n-1)` concurrently and return when all have
    /// finished: `f(0)` on the calling thread, every other member on a
    /// dedicated thread of its own. Members may block on one another
    /// (barriers, collectives); the concurrency guarantee is what the
    /// simulators' fork/join semantics require. `run_set(1, f)` touches
    /// no other thread. A member panic is resumed on the caller once
    /// every member has finished — member 0's own first, else the first
    /// one reported.
    pub fn run_set<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if n == 0 {
            return;
        }
        // Phase 1 — acquire the n - 1 threads up front. This is the only
        // fallible part (OS thread-spawn can fail near the process's
        // thread limit): if it panics here, no task has been delivered
        // yet, so no lifetime-erased borrow of `f` is live and the
        // unwind is a clean panic, not a use-after-free. Already-parked
        // acquisitions are merely lost from the idle list in that case.
        let slots: Vec<Arc<WorkSlot>> = (1..n).map(|_| self.acquire_slot()).collect();
        // Phase 2 — cannot unwind: deliver members 1.., run member 0
        // here with its panic caught, then block on the latch.
        let latch = Arc::new(Latch::new(n - 1));
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        for (i, slot) in (1..n).zip(slots) {
            let latch = Arc::clone(&latch);
            let shared = Arc::clone(&self.shared);
            let task_slot = Arc::clone(&slot);
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(|| f_ref(i)));
                // Reusable before the caller can observe completion.
                shared.release(&task_slot);
                latch.count_down(result.err());
            });
            // SAFETY: once the first task is delivered, nothing on this
            // path can unwind before `latch.wait()` below — member 0
            // runs under `catch_unwind` and its panic is resumed only
            // after the wait — and every dispatched member counts the
            // latch down only after it finished using `f_ref`. So the
            // erased borrow of `f` outlives every use.
            let task: CacheTask = unsafe { erase_task_lifetime(task) };
            slot.deliver(SlotMsg::Run(task));
        }
        let own = catch_unwind(AssertUnwindSafe(|| f_ref(0)));
        let dispatched = latch.wait();
        if let Some(p) = own.err().or(dispatched) {
            resume_unwind(p);
        }
    }

    /// Pop a parked worker or spawn a fresh one.
    fn acquire_slot(&self) -> Arc<WorkSlot> {
        let popped = self.shared.idle.lock().pop();
        match popped {
            Some(slot) => {
                self.shared.reused.fetch_add(1, Ordering::Relaxed);
                slot
            }
            None => {
                self.shared.spawned.fetch_add(1, Ordering::Relaxed);
                let slot = Arc::new(WorkSlot::new());
                let worker_slot = Arc::clone(&slot);
                std::thread::Builder::new()
                    .name("parcoach-sim-worker".into())
                    .spawn(move || cached_worker(worker_slot))
                    .expect("spawn cached simulator thread");
                slot
            }
        }
    }

    /// Run one detached task on a cached thread and return immediately.
    ///
    /// The daemon uses this for per-connection reader/worker threads:
    /// connection churn reuses parked threads instead of paying an OS
    /// spawn per client. The thread returns to the idle list when `f`
    /// finishes; a panic in `f` is contained to the task (the worker
    /// survives and re-parks) — detached callers have no join point to
    /// resume it on.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let slot = self.acquire_slot();
        let shared = Arc::clone(&self.shared);
        let task_slot = Arc::clone(&slot);
        let task: CacheTask = Box::new(move || {
            let _ = catch_unwind(AssertUnwindSafe(f));
            shared.release(&task_slot);
        });
        slot.deliver(SlotMsg::Run(task));
    }

    /// [`run_set`](Self::run_set) collecting one result per member, in
    /// member order.
    pub fn run_map<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        self.run_set(n, |i| {
            *slots[i].lock() = Some(f(i));
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().expect("member wrote its result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn members_run_concurrently() {
        // A barrier among all members only passes if they are truly
        // concurrent — a serializing pool would deadlock here.
        let cache = ThreadCache::default();
        let barrier = Barrier::new(8);
        cache.run_set(8, |_| {
            barrier.wait();
        });
    }

    #[test]
    fn threads_are_reused_across_sets() {
        let cache = ThreadCache::default();
        // A barrier keeps all 4 members alive at once, forcing 3
        // distinct threads beside the caller (without it, a member
        // finishing early can release its thread for a later member to
        // reuse).
        let barrier = Barrier::new(4);
        cache.run_set(4, |_| {
            barrier.wait();
        });
        assert_eq!(cache.spawned_total(), 3);
        for _ in 0..10 {
            cache.run_set(4, |_| {});
        }
        // Three threads idle when each later set starts (release happens
        // before the completion latch), so nothing new ever spawns.
        assert_eq!(cache.spawned_total(), 3);
        assert_eq!(cache.reused_total(), 30);
    }

    #[test]
    fn nested_sets_grow_the_cache() {
        let cache = ThreadCache::default();
        // All four inner members alive at once: the caller (member 0 of
        // the outer set and of its inner set), the outer set's other
        // member, and one more thread per inner set.
        let all_inner = Barrier::new(4);
        cache.run_set(2, |_| {
            cache.run_set(2, |_| {
                all_inner.wait();
            });
        });
        assert_eq!(cache.spawned_total(), 3);
    }

    #[test]
    fn a_set_of_one_runs_on_the_caller() {
        let cache = ThreadCache::default();
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(None);
        cache.run_set(1, |i| {
            assert_eq!(i, 0);
            *ran_on.lock() = Some(std::thread::current().id());
        });
        assert_eq!(ran_on.into_inner(), Some(caller));
        assert_eq!(cache.spawned_total(), 0);
        assert_eq!(cache.reused_total(), 0);
    }

    #[test]
    fn member_0_is_the_caller_also_when_nested() {
        let cache = ThreadCache::default();
        let caller = std::thread::current().id();
        // (outer, inner) → the thread it ran on.
        let ran_on = Mutex::new(Vec::new());
        cache.run_set(2, |outer| {
            if outer == 0 {
                cache.run_set(2, |inner| {
                    ran_on
                        .lock()
                        .push(((outer, inner), std::thread::current().id()));
                });
            } else {
                ran_on
                    .lock()
                    .push(((outer, 0), std::thread::current().id()));
            }
        });
        let mut ran_on = ran_on.into_inner();
        ran_on.sort_by_key(|(member, _)| *member);
        assert_eq!(ran_on.len(), 3);
        assert_eq!(ran_on[0], ((0, 0), caller));
        assert_ne!(ran_on[1].1, caller, "inner member 1 has its own thread");
        assert_ne!(ran_on[2].1, caller, "outer member 1 has its own thread");
    }

    #[test]
    fn run_map_collects_in_order() {
        let cache = ThreadCache::default();
        let out = cache.run_map(6, |i| i * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn member_panic_propagates() {
        let cache = ThreadCache::default();
        for down in 0..3 {
            let res = catch_unwind(AssertUnwindSafe(|| {
                cache.run_set(3, |i| {
                    if i == down {
                        panic!("member down");
                    }
                });
            }));
            assert!(res.is_err(), "member {down}");
        }
        // The cache still works afterwards.
        cache.run_set(3, |_| {});
    }

    /// `down` panics as soon as it has told `slow` (over a channel, so
    /// `slow` is provably still inside `f`); `slow` then dawdles. The
    /// caller must unwind only after `slow` has finished: `f` and
    /// everything it borrows die with `run_set`'s frame.
    fn panic_waits_for_the_other_member(down: usize, slow: usize) {
        let cache = ThreadCache::default();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let finished = std::sync::atomic::AtomicBool::new(false);
        let res = catch_unwind(AssertUnwindSafe(|| {
            cache.run_set(2, |i| {
                if i == down {
                    tx.lock().send(()).unwrap();
                    panic!("member {down} down");
                } else {
                    assert_eq!(i, slow);
                    rx.lock().recv().unwrap();
                    // Not what orders the two members (the channel
                    // does): it only gives a caller that unwinds too
                    // early the time to be caught doing so.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    finished.store(true, Ordering::SeqCst);
                }
            });
        }));
        assert!(res.is_err());
        assert!(
            finished.load(Ordering::SeqCst),
            "run_set unwound while member {slow} was still running"
        );
    }

    #[test]
    fn member_0_panic_is_resumed_only_after_member_1_finished() {
        panic_waits_for_the_other_member(0, 1);
    }

    #[test]
    fn member_1_panic_is_resumed_only_after_member_0_finished() {
        panic_waits_for_the_other_member(1, 0);
    }

    #[test]
    fn spawn_is_detached_and_reuses_threads() {
        let cache = ThreadCache::default();
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..5 {
            let tx = tx.clone();
            cache.spawn(move || {
                tx.send(i).unwrap();
            });
        }
        let mut got: Vec<i32> = (0..5).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        // A panicking detached task neither kills the process nor leaks
        // the worker: the thread re-parks and serves the next spawn.
        cache.spawn(|| panic!("detached task down"));
        let (tx2, rx2) = std::sync::mpsc::channel();
        cache.spawn(move || tx2.send(7i32).unwrap());
        assert_eq!(rx2.recv().unwrap(), 7);
        assert!(cache.reused_total() > 0, "spawns reuse parked threads");
    }

    #[test]
    fn retirement_respects_idle_cap() {
        let cache = ThreadCache::new(2);
        let barrier = Barrier::new(6);
        cache.run_set(6, |_| {
            barrier.wait();
        });
        // Of the 5 threads beside the caller only 2 stayed parked; the
        // rest retired. A second wave reuses those 2 and spawns the
        // difference.
        cache.run_set(4, |_| {});
        assert_eq!(cache.spawned_total(), 6);
        assert_eq!(cache.reused_total(), 2);
    }
}
