//! # parcoach-pool — the workspace's threading subsystem
//!
//! Two complementary primitives, both dependency-free (built on
//! `parcoach-sync`, the workspace's `parking_lot` shim):
//!
//! * [`Pool`] — a work-stealing compute pool exposing a rayon-compatible
//!   subset (`scope`/`spawn`, `join`, `par_map`). Used by the *static*
//!   side: `AnalysisSession` fans per-function analysis out over it, and
//!   the bench harness compiles workloads concurrently. Results are
//!   structurally deterministic (index-ordered merges); deterministic
//!   mode (`PoolConfig::deterministic`) additionally seeds victim
//!   selection so task placement reproduces run to run.
//! * [`ThreadCache`] — parked OS threads for the *dynamic* side. Team
//!   members and MPI ranks block on barriers/collectives, so they need
//!   dedicated concurrent threads, not pool lanes: member 0 of a set
//!   runs on the thread that forked it, the others on cached threads
//!   reused across `parallel` regions and rank sets instead of
//!   respawned per encounter (the per-call spawn cost was the
//!   simulators' scalability killer).
//!
//! ## Globals
//!
//! Most callers go through [`global()`] / [`thread_cache()`]. The global
//! pool is configured once, either explicitly ([`configure`], used by
//! `parcoachc --jobs N [--deterministic]`) or from the environment
//! (`PARCOACH_JOBS`, `PARCOACH_DETERMINISTIC`, `PARCOACH_SEED`) on first
//! use. Library code that needs a *specific* pool (the determinism
//! property tests compare `jobs = 1` against `jobs = N`) constructs
//! [`Pool`]s directly and calls the `*_with` entry points of
//! `parcoach-core`.
//!
//! ```
//! use parcoach_pool::{Pool, PoolConfig};
//!
//! let pool = Pool::new(PoolConfig { jobs: 4, deterministic: true, seed: 1 });
//! let squares = pool.par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]); // index order, any schedule
//! ```

pub mod cache;
pub mod pool;

pub use cache::ThreadCache;
pub use pool::{default_jobs, Pool, PoolConfig, Scope};

use parking_lot::Mutex;
use std::sync::OnceLock;

static GLOBAL_CONFIG: Mutex<Option<PoolConfig>> = Mutex::new(None);
static GLOBAL_POOL: OnceLock<Pool> = OnceLock::new();
static GLOBAL_CACHE: OnceLock<ThreadCache> = OnceLock::new();

/// Error from [`configure`]: the global pool was already built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlreadyInitialized;

impl std::fmt::Display for AlreadyInitialized {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the global pool is already initialized; configure() must run before first use")
    }
}

impl std::error::Error for AlreadyInitialized {}

/// Set the configuration the global pool will be built with. Must be
/// called before the first [`global()`]; later calls fail.
pub fn configure(cfg: PoolConfig) -> Result<(), AlreadyInitialized> {
    if GLOBAL_POOL.get().is_some() {
        return Err(AlreadyInitialized);
    }
    *GLOBAL_CONFIG.lock() = Some(cfg);
    // Between the check and the store someone may have built the pool;
    // they used either the env config or an earlier configure() — both
    // are first-use wins, which callers (the CLI) invoke early enough
    // to not race anything.
    Ok(())
}

/// The process-wide compute pool (built on first use).
pub fn global() -> &'static Pool {
    GLOBAL_POOL.get_or_init(|| {
        let cfg = GLOBAL_CONFIG
            .lock()
            .take()
            .unwrap_or_else(PoolConfig::from_env);
        Pool::new(cfg)
    })
}

/// The process-wide simulator thread cache.
pub fn thread_cache() -> &'static ThreadCache {
    GLOBAL_CACHE.get_or_init(ThreadCache::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_pool_and_cache_exist() {
        assert!(global().jobs() >= 1);
        thread_cache().run_set(2, |_| {});
    }

    #[test]
    fn env_config_parses() {
        // Do not set env vars here (tests run in-process, in parallel);
        // just exercise the default path.
        let cfg = PoolConfig::from_env();
        assert!(cfg.jobs >= 1);
    }
}
