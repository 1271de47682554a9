//! The global liveness census.
//!
//! The census proves a deadlock instead of waiting out the operation
//! timeout. It reads one record per rank (`RankState`: its parked
//! patterns, live threads and whether it finished) and fires when no
//! rank can progress. A rank cannot progress when it has finished, or
//! when some thread of it is parked and no other thread of it can
//! rescue that one (e.g. by a self-send):
//!
//! * under `MPI_THREAD_SINGLE`/`FUNNELED`/`SERIALIZED` a rank has at
//!   most one thread inside MPI, so one parked thread is the whole rank;
//! * under `MPI_THREAD_MULTIPLE` the embedder (the interpreter)
//!   registers each thread that may call MPI via
//!   `thread_started`/`thread_departed`, and rescue is ruled out exactly
//!   when every live thread of the rank is parked. This holds whether or
//!   not some rank has finished: another rank's exit does not stop a
//!   sibling thread from sending.
//! * A world with no registered threads under `MPI_THREAD_MULTIPLE`
//!   cannot count its threads: it keeps the pure timeout fallback until
//!   some rank finishes, and then counts one parked thread as the rank.
//!
//! The verdict additionally requires that nothing is completable: no
//! collective instance holds a decided but uncollected outcome, and no
//! parked receive/wait has a matching buffered message.
//!
//! The verdict is then, in this order: a finished rank while some rank
//! waits in a collective (`RankFinishedEarly`, the lowest finished
//! rank), a cycle in the wait-for graph (`WaitCycle`), or a plain
//! `Deadlock`. Each rank renders as `RankState::activity` (a rank with
//! several parked threads as the pattern with the lowest key), so the
//! verdict is a function of the settled state alone: the same whichever
//! thread or finish settles the world, and in whichever order its
//! threads parked.

use crate::error::{MpiError, RankActivity};
use crate::signature::CollectiveOp;
use crate::world::{matching_message, CommState, RankState, WorldState};
use parcoach_front::ast::ThreadLevel;

/// The world's one verdict, whether a park or a rank's finish asks.
/// `MPI_Finalize` is no collective to wait in here: a rank that ends
/// without it deadlocks the others.
pub(crate) fn verdict(st: &WorldState) -> Option<MpiError> {
    let below_multiple = st.provided.is_some_and(|p| p != ThreadLevel::Multiple);
    let finished = st.ranks.iter().position(|r| r.finished);
    let unregistered = st.ranks.iter().all(|r| r.live == 0) && finished.is_some();
    let stuck = |r: &RankState| {
        r.finished
            || (!r.parked.is_empty()
                && (below_multiple || unregistered || r.parked.len() == r.live))
    };
    if !st.ranks.iter().all(stuck) || st.ranks.iter().all(|r| r.finished) {
        return None;
    }
    let instances = || st.comms.iter().flat_map(|c| c.instances.iter());
    if instances().any(|i| i.outcome.is_some()) {
        return None; // its waiters will wake and collect it
    }
    // A parked receive or wait whose message is already buffered will
    // complete.
    for r in &st.ranks {
        for wait in &r.parked {
            if let RankActivity::InRecv { comm, src, tag, .. } = *wait {
                if matching_message(&r.mailbox, comm, src, tag).is_some() {
                    return None;
                }
            }
        }
    }
    let states: Vec<RankActivity> = st.ranks.iter().map(RankState::activity).collect();
    let collective_waited = instances().any(|i| {
        i.outcome.is_none() && i.signature.is_some_and(|s| s.op != CollectiveOp::Finalize)
    });
    if let Some(finished_rank) = finished.filter(|_| collective_waited) {
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
    if let Some(cycle) = wait_for_cycle(&states, &st.comms) {
        return Some(MpiError::WaitCycle { cycle, states });
    }
    Some(MpiError::Deadlock { states })
}

/// Find a cycle in the wait-for graph of blocked pinned-source
/// receives/waits, as global ranks in wait-for order.
fn wait_for_cycle(states: &[RankActivity], comms: &[CommState]) -> Option<Vec<usize>> {
    let n = states.len();
    let edge: Vec<Option<usize>> = states
        .iter()
        .map(|act| match *act {
            RankActivity::InRecv {
                comm, src: Some(s), ..
            } => comms.get(comm).and_then(|c| c.members.get(s).copied()),
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
