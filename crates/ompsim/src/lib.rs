//! # parcoach-ompsim — fork/join threading substrate
//!
//! A small OpenMP-model runtime on real OS threads: nested teams,
//! `single`/`master`/`sections` dispatch, `critical` mutual exclusion,
//! static worksharing chunks, and poisonable deadlock-detecting
//! barriers. It implements exactly the execution model the paper assumes
//! ("explicit fork/join, perfectly nested regions") and exposes the
//! introspection the dynamic checks need (`in_parallel`, `thread_num`,
//! team instance ids).
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

use parking_lot::ReentrantMutex;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the threading substrate.
#[derive(Debug, Clone)]
pub struct OmpConfig {
    /// Team size when `parallel` has no `num_threads` clause.
    pub default_num_threads: usize,
    /// How long barriers wait before declaring divergence.
    pub barrier_timeout: Duration,
    /// Maximum nesting depth of parallel regions (defensive bound).
    pub max_levels: usize,
}

impl Default for OmpConfig {
    fn default() -> Self {
        OmpConfig {
            default_num_threads: 4,
            barrier_timeout: Duration::from_secs(5),
            max_levels: 8,
        }
    }
}

/// The runtime: configuration plus the global `critical` lock.
pub struct OmpSim {
    /// Configuration.
    pub cfg: OmpConfig,
    /// The (unnamed) `critical` lock. Reentrant so nested criticals in a
    /// call chain do not self-deadlock.
    critical: ReentrantMutex<()>,
}

impl Default for OmpSim {
    fn default() -> Self {
        OmpSim::new(OmpConfig::default())
    }
}

impl OmpSim {
    /// Build a runtime.
    pub fn new(cfg: OmpConfig) -> OmpSim {
        OmpSim {
            cfg,
            critical: ReentrantMutex::new(()),
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
        if level > self.cfg.max_levels {
            return Err(ForkError::Omp(OmpError::ForkRefused(format!(
                "parallel nesting depth {level} exceeds the configured maximum {}",
                self.cfg.max_levels
            ))));
        }
        let team = team::new_team(size, level);
        let results: Vec<parking_lot::Mutex<Option<Result<(), E>>>> =
            (0..size).map(|_| parking_lot::Mutex::new(None)).collect();
        // Cached simulator threads ([`parcoach_pool::ThreadCache`]) for
        // members 1..: the spawn cost is paid once per process, not once
        // per member per region.
        parcoach_pool::thread_cache().run_set(size, |tid| {
            let mut ctx = team::member_ctx(team.clone(), tid);
            *results[tid].lock() = Some(body(&mut ctx));
            // The member has left the region body for good: siblings
            // still waiting at a barrier learn immediately whether
            // the team has diverged.
            team.barrier.depart();
        });
        let mut first_err = None;
        for r in results.into_iter().filter_map(|m| m.into_inner()) {
            if let Err(e) = r {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
        match first_err {
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
    pub fn critical(&self) -> parking_lot::ReentrantMutexGuard<'_, ()> {
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

    #[test]
    fn nesting_limit_enforced() {
        let sim = OmpSim::new(OmpConfig {
            max_levels: 1,
            ..OmpConfig::default()
        });
        let mut ctx = ThreadCtx::initial();
        let res = sim.fork::<OmpError, _>(&mut ctx, Some(2), &|c| {
            let inner = OmpSim::new(OmpConfig {
                max_levels: 1,
                ..OmpConfig::default()
            });
            match inner.fork::<OmpError, _>(c, Some(2), &|_| Ok(())) {
                Err(ForkError::Omp(e)) => Err(e),
                _ => Ok(()),
            }
        });
        assert!(matches!(
            res,
            Err(ForkError::Body(OmpError::ForkRefused(_)))
        ));
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

    #[test]
    fn barrier_synchronizes_team() {
        let sim = OmpSim::default();
        let before = AtomicUsize::new(0);
        let violated = AtomicUsize::new(0);
        let mut ctx = ThreadCtx::initial();
        sim.fork::<OmpError, _>(&mut ctx, Some(4), &|c| {
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
        let res = sim.fork::<OmpError, _>(&mut ctx, Some(2), &|c| {
            if c.thread_num() == 0 {
                // Thread 0 waits at a barrier thread 1 never reaches.
                c.barrier(Duration::from_millis(100)).map(|_| ())
            } else {
                Ok(())
            }
        });
        match res {
            Err(ForkError::Body(OmpError::Barrier(BarrierError::Timeout { .. }))) => {}
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
        sim.fork::<OmpError, _>(&mut ctx, Some(4), &|c| {
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

    #[test]
    fn team_instances_unique() {
        let sim = OmpSim::default();
        let mut ids = Vec::new();
        for _ in 0..3 {
            let mut ctx = ThreadCtx::initial();
            let id = std::sync::Mutex::new(0u64);
            sim.fork::<(), _>(&mut ctx, Some(2), &|c| {
                *id.lock().unwrap() = c.team_instance();
                Ok(())
            })
            .unwrap();
            ids.push(*id.lock().unwrap());
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }
}
