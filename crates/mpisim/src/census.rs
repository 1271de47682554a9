//! The global liveness census.
//!
//! The census proves a deadlock instead of waiting out the operation
//! timeout. It fires when nothing can progress:
//!
//! * under `MPI_THREAD_SINGLE`/`FUNNELED`/`SERIALIZED`, every rank is
//!   blocked or finished — a rank's single MPI slot is its whole
//!   liveness;
//! * under `MPI_THREAD_MULTIPLE`, a blocked rank may still be rescued by
//!   *another thread* of the same rank (e.g. a self-send), which a
//!   per-rank activity slot cannot observe. The embedder (the
//!   interpreter) registers thread liveness via
//!   `thread_started`/`thread_departed`; rescue is ruled out exactly
//!   when every live thread of every unfinished rank is parked in a
//!   blocking MPI wait (`blocked == live`). This holds whether or not
//!   some rank has finished: another rank's exit does not stop a
//!   sibling thread from sending.
//! * A world with no registered threads (`live == 0` everywhere) under
//!   `MPI_THREAD_MULTIPLE` keeps the pure timeout fallback until some
//!   rank finishes, and then uses the single-slot view of the first
//!   regime.
//!
//! In every regime the verdict additionally requires that nothing is
//! completable: no collective instance holds a decided but uncollected
//! outcome, and no parked receive/wait has a matching buffered message.
//!
//! The verdict is then, in this order: a finished rank while some rank
//! waits in a collective (`RankFinishedEarly`, the lowest finished
//! rank), a cycle in the wait-for graph (`WaitCycle`), or a plain
//! `Deadlock`. It is a function of the settled state alone, so it is
//! the same whichever thread or finish settles the world.

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
    /// Any collective instance with a decided but uncollected outcome
    /// (its waiters will wake and make progress).
    pub any_uncollected: bool,
    /// Some rank waits in an undecided collective.
    pub collective_waited: bool,
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
    let finished = input
        .activity
        .iter()
        .position(|a| *a == RankActivity::Finished);
    let registered = input.live.iter().any(|&n| n > 0);
    let threaded = provided == ThreadLevel::Multiple && (registered || finished.is_none());
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
    let parked = input
        .blocked
        .iter()
        .enumerate()
        .filter(|_| threaded)
        .flat_map(|(rank, ops)| ops.iter().map(move |act| (rank, act)));
    for (rank, act) in input.activity.iter().enumerate().chain(parked) {
        if let RankActivity::InRecv { comm, src, tag, .. } = act {
            if has_buffered(rank, *comm, *src, *tag) {
                return None;
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
    if let Some(finished_rank) = finished.filter(|_| input.collective_waited) {
        return Some(MpiError::RankFinishedEarly {
            finished_rank,
            states,
        });
    }
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
    let edge: Vec<Option<usize>> = states
        .iter()
        .map(|act| match act {
            RankActivity::InRecv {
                comm, src: Some(s), ..
            } => member_global(*comm, *s),
            _ => None,
        })
        .collect();
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
