//! A reusable, poisonable, deadlock-detecting thread barrier.
//!
//! Unlike `std::sync::Barrier`, this barrier
//!
//! * reports a **timeout** instead of hanging when part of the team never
//!   arrives — exactly the failure mode of a control-flow divergent
//!   `barrier`/`single` the paper detects;
//! * can be **poisoned** when another thread aborts (a failed dynamic
//!   check must stop the whole program, not deadlock it). A generation
//!   that completed before the poison still returns `Ok` to every member
//!   it released: the poison stops only waits that were not decided.

use parcoach_sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why a barrier wait did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BarrierError {
    /// Not all team members arrived within the timeout: the team has
    /// diverged (some threads skipped the barrier or exited the region).
    Timeout {
        /// Threads that arrived before the timeout fired.
        arrived: usize,
        /// Team size expected.
        expected: usize,
    },
    /// The barrier was poisoned by an abort elsewhere.
    Poisoned,
}

impl std::fmt::Display for BarrierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BarrierError::Timeout { arrived, expected } => write!(
                f,
                "thread barrier timeout: only {arrived}/{expected} threads arrived \
                 (control-flow divergent barrier?)"
            ),
            BarrierError::Poisoned => write!(f, "barrier poisoned by abort"),
        }
    }
}

struct State {
    /// Threads waiting in the current generation.
    arrived: usize,
    /// Team members that left the region body for good (reached the
    /// join). A departed member can never arrive at the barrier again,
    /// so `arrived + departed == size` with `arrived < size` *proves*
    /// divergence — no timeout needed.
    departed: usize,
    /// Completed-barrier generation counter.
    generation: u64,
    /// Set on abort.
    poisoned: bool,
}

/// The barrier itself. One instance per team; reusable across phases.
pub struct SimBarrier {
    size: usize,
    state: Mutex<State>,
    cv: Condvar,
}

impl SimBarrier {
    /// A barrier for `size` threads.
    pub fn new(size: usize) -> SimBarrier {
        SimBarrier {
            size,
            state: Mutex::new(State {
                arrived: 0,
                departed: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Team size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Wait for the whole team, giving up after `timeout`.
    pub fn wait(&self, timeout: Duration) -> Result<(), BarrierError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        if st.poisoned {
            return Err(BarrierError::Poisoned);
        }
        st.arrived += 1;
        if st.arrived == self.size {
            // Last arriver releases the generation.
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            drop(st);
            self.cv.notify_all();
            return Ok(());
        }
        if st.arrived + st.departed == self.size {
            // Everyone else has left the region: the missing members can
            // never arrive. Divergence, proven without waiting.
            return Err(self.diverged(st));
        }
        let gen = st.generation;
        loop {
            let res = self.cv.wait_until(&mut st, deadline);
            if st.generation != gen {
                return Ok(());
            }
            if st.poisoned {
                return Err(BarrierError::Poisoned);
            }
            if st.arrived + st.departed == self.size || res.timed_out() {
                return Err(self.diverged(st));
            }
        }
    }

    /// Report divergence from inside `wait`: leave the barrier so other
    /// waiters see a consistent count, and poison it — the team is
    /// broken.
    fn diverged(&self, mut st: MutexGuard<'_, State>) -> BarrierError {
        let arrived = st.arrived;
        st.poisoned = true;
        drop(st);
        self.cv.notify_all();
        BarrierError::Timeout {
            arrived,
            expected: self.size,
        }
    }

    /// Record that one team member has left the region body for good
    /// (reached the join). Wakes waiters so a now-provable divergence is
    /// reported immediately instead of at the timeout.
    pub fn depart(&self) {
        let mut st = self.state.lock();
        st.departed += 1;
        let divergence = st.arrived > 0 && st.arrived + st.departed == self.size;
        drop(st);
        if divergence {
            self.cv.notify_all();
        }
    }

    /// Poison the barrier: all current and future waiters fail with
    /// [`BarrierError::Poisoned`].
    pub fn poison(&self) {
        self.state.lock().poisoned = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn all_arrive_released() {
        let b = Arc::new(SimBarrier::new(4));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let b = b.clone();
                s.spawn(move || {
                    assert_eq!(b.wait(Duration::from_secs(5)), Ok(()));
                });
            }
        });
    }

    #[test]
    fn reusable_across_generations() {
        let b = Arc::new(SimBarrier::new(3));
        std::thread::scope(|s| {
            for _ in 0..3 {
                let b = b.clone();
                s.spawn(move || {
                    for _ in 0..10 {
                        assert_eq!(b.wait(Duration::from_secs(5)), Ok(()));
                    }
                });
            }
        });
    }

    #[test]
    fn missing_thread_times_out() {
        let b = SimBarrier::new(2);
        let res = b.wait(Duration::from_millis(50));
        assert_eq!(
            res,
            Err(BarrierError::Timeout {
                arrived: 1,
                expected: 2
            })
        );
    }

    #[test]
    fn timeout_poisons_for_late_arrivers() {
        let b = Arc::new(SimBarrier::new(3));
        // One thread waits and times out; a later arriver must see the
        // poison instead of waiting forever for a broken team.
        let b2 = b.clone();
        let h = std::thread::spawn(move || b2.wait(Duration::from_millis(30)));
        let first = h.join().unwrap();
        assert!(matches!(first, Err(BarrierError::Timeout { .. })));
        assert_eq!(
            b.wait(Duration::from_millis(30)),
            Err(BarrierError::Poisoned)
        );
    }

    #[test]
    fn poison_wakes_waiters() {
        let b = Arc::new(SimBarrier::new(2));
        let b2 = b.clone();
        let h = std::thread::spawn(move || b2.wait(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        b.poison();
        assert_eq!(h.join().unwrap(), Err(BarrierError::Poisoned));
        assert!(b.state.lock().poisoned);
    }

    #[test]
    fn a_generation_completed_before_a_poison_returns_ok() {
        let b = SimBarrier::new(2);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| b.wait(Duration::from_secs(30)));
            while b.state.lock().arrived == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            // The last member arrives and the team is poisoned in the same
            // hold of the lock: the waiter wakes to both.
            let mut st = b.state.lock();
            st.arrived = 0;
            st.generation += 1;
            st.poisoned = true;
            drop(st);
            b.cv.notify_all();
            assert_eq!(waiter.join().unwrap(), Ok(()));
        });
        // A wait that starts after the poison is stopped.
        assert_eq!(b.wait(Duration::from_secs(1)), Err(BarrierError::Poisoned));
    }

    #[test]
    fn single_thread_barrier_trivial() {
        let b = SimBarrier::new(1);
        for _ in 0..5 {
            assert_eq!(b.wait(Duration::from_millis(1)), Ok(()));
        }
    }
}
