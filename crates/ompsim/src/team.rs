//! Teams and thread contexts — the fork/join execution model.
//!
//! The paper's model (§1): "an explicit fork/join model, with perfectly
//! nested regions". A [`ThreadCtx`] describes one thread's position in
//! the (possibly nested) team tree; [`crate::OmpSim::fork`] creates a new
//! team and runs a closure on every member thread.

use crate::barrier::{BarrierError, SimBarrier};
use parcoach_sync::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Errors surfaced by the threading substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OmpError {
    /// The runtime refused to fork (e.g. nesting beyond the configured
    /// limit).
    ForkRefused(String),
}

impl OmpError {
    /// The refusal of a team of `size` threads, which would pass
    /// [`crate::MAX_THREADS`].
    pub fn team_too_large(size: usize) -> OmpError {
        OmpError::ForkRefused(format!(
            "a team of {size} threads would pass the {} simulated threads a run may have alive",
            crate::MAX_THREADS
        ))
    }
}

impl std::fmt::Display for OmpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OmpError::ForkRefused(m) => write!(f, "fork refused: {m}"),
        }
    }
}

/// Shared state of one team *instance* (one dynamic encounter of a
/// `parallel` construct).
pub struct TeamShared {
    /// Number of threads.
    pub size: usize,
    /// Nesting level (outermost parallel region = level 1).
    pub level: usize,
    /// The team barrier.
    pub barrier: SimBarrier,
    /// Whether the thread that forked this team is the initial thread:
    /// then this team's member 0 is the initial thread too.
    forked_by_initial: bool,
    /// `single` instance claims: (region id, per-team encounter index) →
    /// claimed flag.
    singles: Mutex<HashMap<(u32, u64), Arc<AtomicBool>>>,
}

impl TeamShared {
    /// A fresh team instance, forked by the initial thread or not.
    pub(crate) fn new(size: usize, level: usize, forked_by_initial: bool) -> Arc<TeamShared> {
        Arc::new(TeamShared {
            size,
            level,
            barrier: SimBarrier::new(size),
            forked_by_initial,
            singles: Mutex::new(HashMap::new()),
        })
    }

    /// Claim flag for a `single` instance, creating it on first access.
    fn single_claim(&self, region: u32, encounter: u64) -> Arc<AtomicBool> {
        self.singles
            .lock()
            .entry((region, encounter))
            .or_insert_with(|| Arc::new(AtomicBool::new(false)))
            .clone()
    }
}

/// One thread's execution context: its position in the team tree plus
/// per-thread encounter counters for worksharing constructs.
pub struct ThreadCtx {
    /// The team this thread belongs to (`None` = initial thread outside
    /// any parallel region).
    pub team: Option<Arc<TeamShared>>,
    /// Thread number within the team (0 for the initial thread).
    pub thread_num: usize,
    /// How many times this thread has encountered each `single`/
    /// `sections` region (instances must match across the team).
    encounters: HashMap<u32, u64>,
    /// Team barriers this member has passed. Barriers synchronize the
    /// whole team, so after any barrier every member agrees on the
    /// count — it identifies the current *barrier epoch* without any
    /// cross-thread bookkeeping (the executor keys its concurrency-site
    /// counters by it).
    barriers_passed: u64,
}

impl ThreadCtx {
    /// Context of the initial (sequential) thread.
    pub fn initial() -> ThreadCtx {
        ThreadCtx {
            team: None,
            thread_num: 0,
            encounters: HashMap::new(),
            barriers_passed: 0,
        }
    }

    /// Thread id within the innermost team (OpenMP `omp_get_thread_num`).
    pub fn thread_num(&self) -> usize {
        self.thread_num
    }

    /// Size of the innermost team (OpenMP `omp_get_num_threads`).
    pub fn num_threads(&self) -> usize {
        self.team.as_ref().map_or(1, |t| t.size)
    }

    /// Are we inside an active parallel region? (OpenMP `omp_in_parallel`)
    pub fn in_parallel(&self) -> bool {
        self.team.as_ref().is_some_and(|t| t.size > 1)
    }

    /// Nesting level (0 outside any parallel region).
    pub fn active_level(&self) -> usize {
        self.team.as_ref().map_or(0, |t| t.level)
    }

    /// Is this the initial thread — the one thread outside every team, and
    /// member 0 of every team it forks? MPI's `FUNNELED` level admits
    /// calls from this thread only.
    pub fn is_initial_thread(&self) -> bool {
        self.team
            .as_ref()
            .is_none_or(|t| t.forked_by_initial && self.thread_num == 0)
    }

    /// Is this thread the master of its team?
    pub fn is_master(&self) -> bool {
        self.thread_num == 0
    }

    /// Enter a `single` region instance: true for exactly one thread of
    /// the team per encounter.
    pub fn enter_single(&mut self, region: u32) -> bool {
        let enc = self.bump_encounter(region);
        match &self.team {
            None => true, // team of one
            Some(t) => {
                let claim = t.single_claim(region, enc);
                claim
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            }
        }
    }

    /// Should this thread run section `index` of `sections` region
    /// `region`? Deterministic round-robin assignment.
    pub fn enter_section(&mut self, region: u32, index: u32) -> bool {
        // All threads bump the encounter for the *parent* region when
        // they reach section 0, keeping instances aligned; the
        // round-robin itself only needs thread_num.
        if index == 0 {
            self.bump_encounter(region);
        }
        (index as usize % self.num_threads()) == self.thread_num
    }

    /// Static chunk of `[lo, hi)` for this thread (OpenMP static
    /// schedule): the iteration subrange `[start, end)`.
    pub fn static_chunk(&self, lo: i64, hi: i64) -> (i64, i64) {
        let n = (hi - lo).max(0);
        let t = self.num_threads() as i64;
        let tid = self.thread_num as i64;
        let base = n / t;
        let rem = n % t;
        // First `rem` threads take base+1 iterations.
        let start = lo + tid * base + tid.min(rem);
        let len = base + if tid < rem { 1 } else { 0 };
        (start, start + len)
    }

    /// Wait at the team barrier (no-op outside a team). A successful
    /// wait advances this member's barrier epoch.
    pub fn barrier(&mut self, timeout: Duration) -> Result<(), BarrierError> {
        match &self.team {
            None => Ok(()),
            Some(t) => {
                t.barrier.wait(timeout)?;
                self.barriers_passed += 1;
                Ok(())
            }
        }
    }

    /// Team barriers this member has passed (the current barrier
    /// epoch; equal across the team after every barrier).
    pub fn barriers_passed(&self) -> u64 {
        self.barriers_passed
    }

    fn bump_encounter(&mut self, region: u32) -> u64 {
        let e = self.encounters.entry(region).or_insert(0);
        let cur = *e;
        *e += 1;
        cur
    }
}

/// Build the member context for thread `tid` of `team`.
pub(crate) fn member_ctx(team: Arc<TeamShared>, tid: usize) -> ThreadCtx {
    ThreadCtx {
        team: Some(team),
        thread_num: tid,
        encounters: HashMap::new(),
        barriers_passed: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_ctx_is_sequential() {
        let ctx = ThreadCtx::initial();
        assert_eq!(ctx.thread_num(), 0);
        assert_eq!(ctx.num_threads(), 1);
        assert!(!ctx.in_parallel());
        assert!(ctx.is_master());
        assert!(ctx.is_initial_thread());
        assert_eq!(ctx.active_level(), 0);
    }

    #[test]
    fn single_outside_team_always_chosen() {
        let mut ctx = ThreadCtx::initial();
        assert!(ctx.enter_single(7));
        assert!(ctx.enter_single(7)); // next encounter, new instance
    }

    #[test]
    fn single_in_team_exactly_one() {
        let team = TeamShared::new(4, 1, true);
        let mut ctxs: Vec<ThreadCtx> = (0..4).map(|t| member_ctx(team.clone(), t)).collect();
        let chosen: usize = ctxs.iter_mut().map(|c| c.enter_single(3) as usize).sum();
        assert_eq!(chosen, 1);
        // Next encounter: again exactly one.
        let chosen: usize = ctxs.iter_mut().map(|c| c.enter_single(3) as usize).sum();
        assert_eq!(chosen, 1);
    }

    #[test]
    fn sections_round_robin() {
        let team = TeamShared::new(2, 1, true);
        let mut c0 = member_ctx(team.clone(), 0);
        let mut c1 = member_ctx(team.clone(), 1);
        assert!(c0.enter_section(5, 0));
        assert!(!c1.enter_section(5, 0));
        assert!(!c0.enter_section(5, 1));
        assert!(c1.enter_section(5, 1));
        assert!(c0.enter_section(5, 2));
    }

    #[test]
    fn static_chunks_partition_range() {
        let team = TeamShared::new(3, 1, true);
        let total: Vec<(i64, i64)> = (0..3)
            .map(|t| member_ctx(team.clone(), t).static_chunk(0, 10))
            .collect();
        // Chunks must tile [0, 10) without overlap.
        assert_eq!(total[0].0, 0);
        let mut covered = 0;
        for i in 0..3 {
            assert!(total[i].0 <= total[i].1);
            covered += total[i].1 - total[i].0;
            if i > 0 {
                assert_eq!(total[i].0, total[i - 1].1);
            }
        }
        assert_eq!(covered, 10);
    }

    #[test]
    fn static_chunk_empty_range() {
        let team = TeamShared::new(4, 1, true);
        let c = member_ctx(team, 2);
        let (s, e) = c.static_chunk(5, 5);
        assert_eq!(s, e);
    }

    #[test]
    fn static_chunk_fewer_iterations_than_threads() {
        let team = TeamShared::new(8, 1, true);
        let mut nonempty = 0;
        for t in 0..8 {
            let (s, e) = member_ctx(team.clone(), t).static_chunk(0, 3);
            if e > s {
                nonempty += 1;
            }
        }
        assert_eq!(nonempty, 3);
    }
}
