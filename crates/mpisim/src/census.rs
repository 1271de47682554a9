//! The global liveness census.
//!
//! The census proves a deadlock instead of waiting out the operation
//! timeout. It fires when nothing can progress:
//!
//! * under `MPI_THREAD_SINGLE`/`FUNNELED`/`SERIALIZED` (or once some
//!   rank terminated), every rank is blocked or finished — a rank's
//!   single MPI slot is its whole liveness;
//! * under pure `MPI_THREAD_MULTIPLE`, a blocked rank may still be
//!   rescued by *another thread* of the same rank (e.g. a self-send),
//!   which a per-rank activity slot cannot observe. The embedder
//!   (the interpreter) registers thread liveness via
//!   `thread_started`/`thread_departed`; rescue is ruled out exactly
//!   when every live thread of every unfinished rank is parked in a
//!   blocking MPI wait (`blocked == live`). Unregistered worlds
//!   (`live == 0`) keep the pure timeout fallback.
//!
//! In both regimes the verdict additionally requires that nothing is
//! completable: no collective instance holds computed-but-uncollected
//! results, and no parked receive/wait has a matching buffered message.

use crate::error::{MpiError, RankActivity};
use parcoach_front::ast::ThreadLevel;

/// A consistent snapshot of the census-relevant state, borrowed from the
/// world's state under its lock.
pub(crate) struct CensusInput<'a> {
    /// Declared thread level (None before `MPI_Init`).
    pub provided: Option<ThreadLevel>,
    /// Per-rank single-slot activity (the reported states).
    pub activity: &'a [RankActivity],
    /// Registered live interpreter threads per rank.
    pub live: &'a [usize],
    /// One pattern per thread parked in a blocking MPI wait, per rank.
    pub blocked: &'a [Vec<RankActivity>],
    /// Any collective instance with computed-but-uncollected results
    /// (its waiters will wake and make progress).
    pub any_uncollected: bool,
}

/// Evaluate the census. `has_buffered(rank, comm, src, tag)` answers
/// "does a buffered message match this parked receive pattern";
/// `member_global(comm, local)` resolves a communicator-local rank to
/// its global rank (None for stale handles).
pub(crate) fn deadlock_census(
    input: &CensusInput<'_>,
    has_buffered: &dyn Fn(usize, usize, Option<usize>, Option<i64>) -> bool,
    member_global: &dyn Fn(usize, usize) -> Option<usize>,
) -> Option<MpiError> {
    let provided = input.provided.unwrap_or(ThreadLevel::Multiple);
    let any_finished = input
        .activity
        .iter()
        .any(|a| matches!(a, RankActivity::Finished));
    let threaded = provided == ThreadLevel::Multiple && !any_finished;
    if threaded {
        // The single-slot activity can be stale under MULTIPLE (a
        // sibling's completion overwrote it with Running); the
        // live/blocked counts are exact, so they gate instead.
        for (rank, a) in input.activity.iter().enumerate() {
            if matches!(a, RankActivity::Finished) {
                continue;
            }
            if input.live[rank] == 0 || input.blocked[rank].len() != input.live[rank] {
                return None; // cannot rule out rescue by another thread
            }
        }
    } else if input
        .activity
        .iter()
        .any(|a| matches!(a, RankActivity::Running))
    {
        // Any rank still running may still make progress.
        return None;
    }
    if input.any_uncollected {
        return None;
    }
    // A recv/wait whose message is already buffered will complete. In
    // threaded mode check every parked pattern, not just the
    // single-slot activity view.
    for (rank, act) in input.activity.iter().enumerate() {
        let (comm, src, tag) = match act {
            RankActivity::InRecv { comm, src, tag }
            | RankActivity::InWait { comm, src, tag, .. } => (*comm, *src, *tag),
            _ => continue,
        };
        if has_buffered(rank, comm, src, tag) {
            return None;
        }
    }
    if threaded {
        for (rank, ops) in input.blocked.iter().enumerate() {
            for act in ops {
                let (comm, src, tag) = match act {
                    RankActivity::InRecv { comm, src, tag }
                    | RankActivity::InWait { comm, src, tag, .. } => (*comm, *src, *tag),
                    _ => continue,
                };
                if has_buffered(rank, comm, src, tag) {
                    return None;
                }
            }
        }
    }
    // All blocked/finished and nothing completable.
    if input
        .activity
        .iter()
        .all(|a| matches!(a, RankActivity::Finished))
    {
        return None; // clean exit
    }
    // Genuine deadlock. In threaded mode derive accurate per-rank
    // states from the parked patterns (activity may claim Running).
    let states: Vec<RankActivity> = if threaded {
        input
            .activity
            .iter()
            .enumerate()
            .map(|(r, a)| match a {
                RankActivity::Finished => a.clone(),
                _ => input.blocked[r]
                    .first()
                    .cloned()
                    .unwrap_or_else(|| a.clone()),
            })
            .collect()
    } else {
        input.activity.to_vec()
    };
    // Before reporting the generic form, build the wait-for graph over
    // the blocked receives/waits: an edge rank → r exists when rank
    // awaits a message only r could send (pinned source; nothing
    // matching buffered — checked above). A cycle names the ranks that
    // starve each other, the precise report a hung `MPI_Wait` chain
    // deserves.
    if let Some(cycle) = wait_for_cycle(&states, member_global) {
        return Some(MpiError::WaitCycle { cycle, states });
    }
    Some(MpiError::Deadlock { states })
}

/// Find a cycle in the wait-for graph of blocked pinned-source
/// receives/waits, as global ranks in wait-for order.
fn wait_for_cycle(
    states: &[RankActivity],
    member_global: &dyn Fn(usize, usize) -> Option<usize>,
) -> Option<Vec<usize>> {
    let n = states.len();
    let mut edge: Vec<Option<usize>> = vec![None; n];
    for (rank, act) in states.iter().enumerate() {
        let (comm, src) = match act {
            RankActivity::InRecv {
                comm, src: Some(s), ..
            }
            | RankActivity::InWait {
                comm, src: Some(s), ..
            } => (*comm, *s),
            _ => continue,
        };
        let Some(awaited_global) = member_global(comm, src) else {
            continue;
        };
        edge[rank] = Some(awaited_global);
    }
    for start in 0..n {
        let mut cur = start;
        let mut path = Vec::new();
        let mut on_path = vec![false; n];
        while let Some(next) = edge[cur] {
            if on_path[cur] {
                break; // cycle not through `start`; a later start finds it
            }
            on_path[cur] = true;
            path.push(cur);
            cur = next;
            if cur == start {
                return Some(path);
            }
        }
    }
    None
}
