//! # parcoach-ompsim — fork/join threading substrate
//!
//! A small OpenMP-model runtime on real OS threads: nested teams,
//! `single`/`master`/`sections` dispatch, `critical` mutual exclusion,
//! static worksharing chunks, and poisonable deadlock-detecting
//! barriers. It implements exactly the execution model the paper assumes
//! ("explicit fork/join, perfectly nested regions") and exposes the
//! introspection the dynamic checks need (`in_parallel`, `thread_num`,
//! barrier epochs).
//!
//! Substitution note (DESIGN.md): this stands in for libgomp. Real
//! concurrency is preserved — concurrent-collective bugs genuinely race
//! here — while divergence bugs that would *hang* a real OpenMP program
//! surface as timeout errors instead.
//!
//! ```
//! use parcoach_ompsim::{OmpSim, ThreadCtx};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let sim = OmpSim::default();
//! let hits = AtomicUsize::new(0);
//! let mut ctx = ThreadCtx::initial();
//! sim.fork::<(), _>(&mut ctx, Some(4), &|ctx| {
//!     if ctx.enter_single(0) {
//!         hits.fetch_add(1, Ordering::Relaxed);
//!     }
//!     ctx.barrier(std::time::Duration::from_secs(5)).unwrap();
//!     Ok(())
//! })
//! .unwrap();
//! assert_eq!(hits.load(Ordering::Relaxed), 1); // exactly one thread ran the single
//! ```

pub mod barrier;
pub mod team;

pub use barrier::{BarrierError, SimBarrier};
pub use team::{OmpError, TeamShared, ThreadCtx};

use parcoach_sync::{ReentrantMutex, ReentrantMutexGuard};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Maximum nesting depth of parallel regions (defensive bound): a fork
/// at level `MAX_LEVELS + 1` is refused.
pub const MAX_LEVELS: usize = 8;

/// Most simulated threads a run may have alive at once, the initial
/// threads included. A fork whose team would pass it is refused before
/// any member starts, so neither a program's `num_threads` (multiplied
/// by nesting) nor a configuration can ask the host for an unbounded
/// number of OS threads.
pub const MAX_THREADS: usize = 256;

/// Configuration of the threading substrate.
#[derive(Debug, Clone)]
pub struct OmpConfig {
    /// Team size when `parallel` has no `num_threads` clause.
    pub default_num_threads: usize,
    /// How long barriers wait before declaring divergence.
    pub barrier_timeout: Duration,
}

impl Default for OmpConfig {
    fn default() -> Self {
        OmpConfig {
            default_num_threads: 4,
            barrier_timeout: Duration::from_secs(5),
        }
    }
}

/// The runtime: configuration, the global `critical` lock and the count
/// of the run's live threads.
pub struct OmpSim {
    /// Configuration.
    pub cfg: OmpConfig,
    /// The (unnamed) `critical` lock. Reentrant so nested criticals in a
    /// call chain do not self-deadlock.
    critical: ReentrantMutex<()>,
    /// The simulated threads alive in the run, at most [`MAX_THREADS`]:
    /// shared by the runtimes of one run's MPI ranks. `Relaxed`: it
    /// orders nothing but itself.
    live: Arc<AtomicUsize>,
}

impl Default for OmpSim {
    fn default() -> Self {
        OmpSim::new(OmpConfig::default())
    }
}

impl OmpSim {
    /// Build a runtime for a run of its own, with one thread alive.
    pub fn new(cfg: OmpConfig) -> OmpSim {
        OmpSim::sharing(cfg, Arc::new(AtomicUsize::new(1)))
    }

    /// Build a runtime whose teams count against `live`, the threads
    /// alive in a run it shares with other runtimes (one per MPI rank).
    pub fn sharing(cfg: OmpConfig, live: Arc<AtomicUsize>) -> OmpSim {
        OmpSim {
            cfg,
            critical: ReentrantMutex::new(()),
            live,
        }
    }

    /// Fork a team of `num_threads` (or the configured default) and run
    /// `body` on every member: the encountering thread *is* member 0, as
    /// in OpenMP, and members 1.. each get a dedicated concurrent thread.
    /// Returns when every member has left `body` — the join is the
    /// region's closing synchronisation, so a `body` need not end in a
    /// barrier of its own — with the first error if any member failed.
    ///
    /// `E` is the caller's error type (the executor threads its own
    /// run-time errors through).
    pub fn fork<E, F>(
        &self,
        parent: &mut ThreadCtx,
        num_threads: Option<usize>,
        body: &F,
    ) -> Result<(), ForkError<E>>
    where
        E: Send,
        F: Fn(&mut ThreadCtx) -> Result<(), E> + Sync,
    {
        let size = num_threads.unwrap_or(self.cfg.default_num_threads).max(1);
        let level = parent.active_level() + 1;
        if level > MAX_LEVELS {
            return Err(ForkError::Omp(OmpError::ForkRefused(format!(
                "parallel nesting depth {level} exceeds the configured maximum {MAX_LEVELS}"
            ))));
        }
        // Members 1.. are new threads: count them in, or refuse the fork
        // before any of them starts.
        let started = size - 1;
        let counted = self
            .live
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                n.checked_add(started).filter(|&m| m <= MAX_THREADS)
            });
        if counted.is_err() {
            return Err(ForkError::Omp(OmpError::team_too_large(size)));
        }
        let team = TeamShared::new(size, level, parent.is_initial_thread());
        // Cached simulator threads ([`parcoach_sync::ThreadCache`]) for
        // members 1..: the spawn cost is paid once per process, not once
        // per member per region.
        let results = parcoach_sync::thread_cache().run_map(size, |tid| {
            let mut ctx = team::member_ctx(team.clone(), tid);
            let res = body(&mut ctx);
            // The member has left the region body for good: siblings
            // still waiting at a barrier learn immediately whether
            // the team has diverged.
            team.barrier.depart();
            res
        });
        self.live.fetch_sub(started, Ordering::Relaxed);
        match results.into_iter().find_map(Result::err) {
            Some(e) => Err(ForkError::Body(e)),
            None => Ok(()),
        }
    }

    /// Poison a team's barrier — used by executors to abort a whole team
    /// when a dynamic check fails on one thread.
    pub fn poison_team(team: &Arc<TeamShared>) {
        team.barrier.poison();
    }

    /// Enter the global `critical` section; the guard releases on drop.
    pub fn critical(&self) -> ReentrantMutexGuard<'_, ()> {
        self.critical.lock()
    }

    /// The configured barrier timeout.
    pub fn barrier_timeout(&self) -> Duration {
        self.cfg.barrier_timeout
    }
}

/// Error from [`OmpSim::fork`].
#[derive(Debug)]
pub enum ForkError<E> {
    /// The runtime itself refused or failed.
    Omp(OmpError),
    /// The first body error.
    Body(E),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fork_runs_all_threads() {
        let sim = OmpSim::default();
        let count = AtomicUsize::new(0);
        let mut ctx = ThreadCtx::initial();
        sim.fork::<(), _>(&mut ctx, Some(8), &|c| {
            count.fetch_add(1, Ordering::Relaxed);
            assert!(c.in_parallel());
            assert_eq!(c.num_threads(), 8);
            assert!(c.thread_num() < 8);
            Ok(())
        })
        .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn default_team_size_used() {
        let sim = OmpSim::new(OmpConfig {
            default_num_threads: 3,
            ..OmpConfig::default()
        });
        let count = AtomicUsize::new(0);
        let mut ctx = ThreadCtx::initial();
        sim.fork::<(), _>(&mut ctx, None, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
        .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn nested_fork_levels() {
        let sim = OmpSim::default();
        let mut ctx = ThreadCtx::initial();
        sim.fork::<(), _>(&mut ctx, Some(2), &|c| {
            assert_eq!(c.active_level(), 1);
            let inner_sim = OmpSim::default();
            inner_sim
                .fork::<(), _>(c, Some(2), &|c2| {
                    assert_eq!(c2.active_level(), 2);
                    assert_eq!(c2.num_threads(), 2);
                    Ok(())
                })
                .map_err(|_| ())?;
            Ok(())
        })
        .unwrap();
    }

    /// Fork `levels` nested teams of one, each from the previous one's
    /// member.
    fn nest(sim: &OmpSim, ctx: &mut ThreadCtx, levels: usize) -> Result<(), OmpError> {
        if levels == 0 {
            return Ok(());
        }
        sim.fork(ctx, Some(1), &|c| nest(sim, c, levels - 1))
            .map_err(|e| match e {
                ForkError::Omp(e) | ForkError::Body(e) => e,
            })
    }

    #[test]
    fn nesting_limit_enforced() {
        let sim = OmpSim::default();
        assert_eq!(nest(&sim, &mut ThreadCtx::initial(), MAX_LEVELS), Ok(()));
        let res = nest(&sim, &mut ThreadCtx::initial(), MAX_LEVELS + 1);
        assert!(
            matches!(&res, Err(OmpError::ForkRefused(m)) if m.contains("depth 9 ")),
            "{res:?}"
        );
    }

    #[test]
    fn only_member_0_of_teams_the_initial_thread_forked_is_the_initial_thread() {
        let sim = OmpSim::default();
        let initial = std::sync::Mutex::new(Vec::new());
        sim.fork::<(), _>(&mut ThreadCtx::initial(), Some(2), &|outer| {
            let o = outer.thread_num();
            initial
                .lock()
                .unwrap()
                .push((o, None, outer.is_initial_thread()));
            sim.fork::<(), _>(outer, Some(2), &|inner| {
                let i = inner.thread_num();
                initial
                    .lock()
                    .unwrap()
                    .push((o, Some(i), inner.is_initial_thread()));
                Ok(())
            })
            .map_err(|_| ())
        })
        .unwrap();
        let mut seen = initial.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(
            seen,
            [
                (0, None, true),
                (0, Some(0), true),
                (0, Some(1), false),
                (1, None, false),
                (1, Some(0), false),
                (1, Some(1), false),
            ]
        );
    }

    #[test]
    fn body_error_propagates() {
        let sim = OmpSim::default();
        let mut ctx = ThreadCtx::initial();
        let res = sim.fork::<String, _>(&mut ctx, Some(4), &|c| {
            if c.thread_num() == 2 {
                Err("boom".to_string())
            } else {
                Ok(())
            }
        });
        assert!(matches!(res, Err(ForkError::Body(ref s)) if s == "boom"));
    }

    /// Member 3 fails first in time; the fork still reports member 1's
    /// error, the first in member order.
    #[test]
    fn fork_reports_the_first_error_in_member_order() {
        let sim = OmpSim::default();
        let mut ctx = ThreadCtx::initial();
        let res = sim.fork::<String, _>(&mut ctx, Some(4), &|c| match c.thread_num() {
            1 => {
                std::thread::sleep(Duration::from_millis(20));
                Err("member 1".to_string())
            }
            3 => Err("member 3".to_string()),
            _ => Ok(()),
        });
        assert!(
            matches!(res, Err(ForkError::Body(ref s)) if s == "member 1"),
            "{res:?}"
        );
    }

    #[test]
    fn barrier_synchronizes_team() {
        let sim = OmpSim::default();
        let before = AtomicUsize::new(0);
        let violated = AtomicUsize::new(0);
        let mut ctx = ThreadCtx::initial();
        sim.fork::<BarrierError, _>(&mut ctx, Some(4), &|c| {
            before.fetch_add(1, Ordering::SeqCst);
            c.barrier(Duration::from_secs(5))?;
            // After the barrier, all 4 must have incremented.
            if before.load(Ordering::SeqCst) != 4 {
                violated.fetch_add(1, Ordering::SeqCst);
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(violated.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn divergent_barrier_detected() {
        let sim = OmpSim::default();
        let mut ctx = ThreadCtx::initial();
        let res = sim.fork::<BarrierError, _>(&mut ctx, Some(2), &|c| {
            if c.thread_num() == 0 {
                // Thread 0 waits at a barrier thread 1 never reaches.
                c.barrier(Duration::from_millis(100))
            } else {
                Ok(())
            }
        });
        match res {
            Err(ForkError::Body(BarrierError::Timeout { .. })) => {}
            other => panic!("expected barrier timeout, got {other:?}"),
        }
    }

    #[test]
    fn critical_is_mutually_exclusive() {
        let sim = OmpSim::default();
        let inside = AtomicUsize::new(0);
        let max_seen = AtomicUsize::new(0);
        let mut ctx = ThreadCtx::initial();
        sim.fork::<(), _>(&mut ctx, Some(8), &|_| {
            for _ in 0..100 {
                let _g = sim.critical();
                let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                max_seen.fetch_max(now, Ordering::SeqCst);
                inside.fetch_sub(1, Ordering::SeqCst);
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(max_seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn single_across_team_with_barriers() {
        let sim = OmpSim::default();
        let hits = AtomicUsize::new(0);
        let mut ctx = ThreadCtx::initial();
        sim.fork::<BarrierError, _>(&mut ctx, Some(4), &|c| {
            for _ in 0..10 {
                if c.enter_single(42) {
                    hits.fetch_add(1, Ordering::SeqCst);
                }
                c.barrier(Duration::from_secs(5))?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(
            hits.load(Ordering::SeqCst),
            10,
            "one execution per encounter"
        );
    }
}
