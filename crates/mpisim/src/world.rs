//! The simulated MPI world: ranks, communicators, the collective
//! matching engine, thread-level enforcement, point-to-point messaging,
//! deadlock detection and the PARCOACH `CC` control collective.
//!
//! ## Matching model
//!
//! **Per communicator**, collectives match in per-rank program order:
//! the n-th collective call of every member of a communicator forms
//! instance `n` of that communicator. The first arriver fixes the
//! instance's [`Signature`]; any member arriving with a different
//! signature is a **collective mismatch**, naming both signatures and
//! ranks in rank order — this is what MUST's tree-based matcher
//! reports, and what the PARCOACH `CC` turns into a *pre*-collective
//! error with source lines. An instance's outcome, results or error, is
//! decided once, and every member parked on it reads it, even after the
//! world aborted. Collectives on different communicators have disjoint
//! matching spaces and never see each other.
//!
//! Communicators are created collectively: handle `0` is
//! `MPI_COMM_WORLD`; [`World::comm_split`] and [`World::comm_dup`]
//! allocate new handles shared by all members. Point-to-point messages
//! also carry their communicator; ranks and roots passed to
//! communicator-scoped operations are *local* ranks within that
//! communicator.
//!
//! ## Non-blocking point-to-point
//!
//! [`World::isend`] buffers its message immediately (eager protocol,
//! like the blocking [`World::send_on`]) and returns a **request**
//! handle that completes trivially at [`World::wait`]. [`World::irecv`]
//! registers a receive post — optionally wildcarded with
//! `MPI_ANY_SOURCE` / `MPI_ANY_TAG` — without blocking; the matching
//! message is consumed at the `wait`. Wildcard matching is
//! **deterministic**: among all buffered candidates the lowest sender
//! rank wins, then the earliest arrival.
//!
//! ## Deadlock detection
//!
//! A real MPI run with mismatched collective *counts* hangs. Here every
//! blocking operation — a collective, `MPI_Recv`, `MPI_Wait` — parks at
//! one point, `World::block_until`: it records the pattern the thread
//! waits for in its rank's record (`RankState`), runs the liveness
//! census (see `census.rs`) and only then sleeps. When **no** rank can
//! progress and nothing can complete on any communicator, the world has
//! its verdict, with a per-rank activity dump (see `census.rs`): an
//! early exit, a [`MpiError::WaitCycle`] over the blocked receives, or a
//! plain deadlock. One function decides it, whether a park or a rank's
//! finish settles the world, so it does not depend on which rank arrives
//! last; every thread parked when it falls gets it, at its own
//! operation.
//!
//! ## Locking
//!
//! One `Mutex<WorldState>` and one `Condvar` serialize every rank,
//! communicator, mailbox, request and census operation: every blocking
//! wait parks on the one condvar and every state change that could
//! complete a wait notifies it — after the lock is released (a change
//! made inside an operation sets `WorldState::wake`, and the thread that
//! releases the lock notifies), so a woken thread does not block again
//! on the lock its waker holds. Every operation enters through one
//! guard, `World::call`, which holds the lock three times: to enter
//! (abort and thread-level checks, the rank's in-flight count), to run
//! the operation's body (whose error aborts the world), and to leave.
//! Entry and leave stay separate holds on purpose: the gaps between them
//! are where a second thread of the rank sees the call in flight and
//! reports an `MPI_THREAD_SERIALIZED` violation, even for a call that
//! never blocks; one hold would make every non-blocking call invisible
//! to it. (A sharded engine with per-communicator and per-mailbox locks
//! was retired at measured parity, see git history.)

use crate::census::verdict;
use crate::error::{MpiError, RankActivity};
use crate::signature::{CollectiveOp, Signature};
use crate::value::{reduce_array, reduce_scalar, MpiValue};
use parcoach_front::ast::{ThreadLevel, ANY_SOURCE, ANY_TAG};
use parcoach_sync::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The handle of `MPI_COMM_WORLD`.
pub const COMM_WORLD: usize = 0;

/// World configuration.
#[derive(Debug, Clone)]
pub struct MpiConfig {
    /// Number of ranks.
    pub world_size: usize,
    /// The highest thread level this "implementation" grants.
    pub max_provided: ThreadLevel,
    /// Blocking-operation timeout (deadlock fallback).
    pub op_timeout: Duration,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig {
            world_size: 2,
            max_provided: ThreadLevel::Multiple,
            op_timeout: Duration::from_secs(10),
        }
    }
}

/// One buffered point-to-point message.
#[derive(Debug, Clone)]
pub(crate) struct Message {
    /// Communicator the message travels on.
    comm: usize,
    /// Sender's local rank within `comm`.
    src: usize,
    tag: i64,
    value: MpiValue,
}

/// One collective instance (the n-th collective of a communicator).
pub(crate) struct Instance {
    pub(crate) signature: Option<Signature>,
    first_rank: usize,
    payloads: Vec<Option<MpiValue>>,
    arrived_count: usize,
    /// Decided once: every member's result, or the error each gets.
    pub(crate) outcome: Option<Result<Vec<MpiValue>, MpiError>>,
    collected_count: usize,
}

impl Instance {
    fn new(size: usize) -> Instance {
        Instance {
            signature: None,
            first_rank: 0,
            payloads: vec![None; size],
            arrived_count: 0,
            outcome: None,
            collected_count: 0,
        }
    }
}

/// State of one non-blocking request.
#[derive(Debug, Clone, Copy)]
enum RequestState {
    /// A buffered isend: complete at post time, `wait` just retires it.
    SendDone,
    /// An irecv post awaiting a matching message.
    RecvPending {
        /// Communicator the post is on.
        comm: usize,
        /// Pinned local source (None = `MPI_ANY_SOURCE`).
        src: Option<usize>,
        /// Pinned tag (None = `MPI_ANY_TAG`).
        tag: Option<i64>,
    },
    /// Completed and retired by a wait; further waits are errors.
    Retired,
}

/// Index of the buffered message a (possibly wildcarded) receive should
/// take: lowest sender rank first, then earliest arrival — the
/// deterministic wildcard tie-break.
pub(crate) fn matching_message(
    mailbox: &[Message],
    comm: usize,
    src: Option<usize>,
    tag: Option<i64>,
) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, m) in mailbox.iter().enumerate() {
        if m.comm != comm {
            continue;
        }
        if src.is_some_and(|s| m.src != s) {
            continue;
        }
        if tag.is_some_and(|t| m.tag != t) {
            continue;
        }
        match best {
            None => best = Some(i),
            Some(b) if m.src < mailbox[b].src => best = Some(i),
            _ => {}
        }
    }
    best
}

/// The thread-level enforcement: `Some(detail)`
/// when this MPI entry violates the provided level. `concurrent` = the
/// rank already has another MPI call in flight; `is_initial_thread` =
/// the caller is the process's initial thread.
fn thread_level_violation(
    provided: ThreadLevel,
    concurrent: bool,
    is_initial_thread: bool,
) -> Option<String> {
    match provided {
        ThreadLevel::Multiple => None,
        ThreadLevel::Serialized => concurrent
            .then(|| "two threads of the same process are inside MPI simultaneously".to_string()),
        ThreadLevel::Funneled => {
            if !is_initial_thread {
                Some("an MPI call was made by a thread other than the main thread".into())
            } else if concurrent {
                Some("concurrent MPI calls under MPI_THREAD_FUNNELED".into())
            } else {
                None
            }
        }
        ThreadLevel::Single => {
            if !is_initial_thread {
                Some("an MPI call was made from a spawned thread under MPI_THREAD_SINGLE".into())
            } else if concurrent {
                Some("concurrent MPI calls under MPI_THREAD_SINGLE".into())
            } else {
                None
            }
        }
    }
}

/// Per-communicator matching state.
pub(crate) struct CommState {
    /// Global ranks, ordered; the position is the comm-local rank.
    pub(crate) members: Vec<usize>,
    pub(crate) instances: VecDeque<Instance>,
    base_seq: u64,
    per_rank_seq: Vec<u64>,
    /// Messages sent on this communicator, per local sender.
    p2p_sent: Vec<u64>,
    /// Messages received on this communicator, per local receiver.
    p2p_recvd: Vec<u64>,
}

impl CommState {
    fn new(members: Vec<usize>) -> CommState {
        let n = members.len();
        CommState {
            members,
            instances: VecDeque::new(),
            base_seq: 0,
            per_rank_seq: vec![0; n],
            p2p_sent: vec![0; n],
            p2p_recvd: vec![0; n],
        }
    }

    fn local_rank(&self, global: usize) -> Option<usize> {
        self.members.iter().position(|&g| g == global)
    }
}

/// One rank's record: every fact about the rank, once.
#[derive(Default)]
pub(crate) struct RankState {
    /// One pattern per thread of the rank parked in a blocking MPI wait.
    /// With `live` it lets the census rule out rescue by a sibling
    /// thread under `MPI_THREAD_MULTIPLE`.
    pub(crate) parked: Vec<RankActivity>,
    /// Threads currently able to issue MPI calls for the rank
    /// (registered via `thread_started`/`thread_departed`). Zero when
    /// the embedder does not register — the liveness census then falls
    /// back to the pure timeout under `MPI_THREAD_MULTIPLE`.
    pub(crate) live: usize,
    /// The rank's program has terminated.
    pub(crate) finished: bool,
    /// MPI calls currently in flight (one per thread inside one).
    in_flight: usize,
    /// Buffered messages sent to the rank, in arrival order.
    pub(crate) mailbox: Vec<Message>,
    /// Every non-blocking request the rank has posted: a handle indexes
    /// this table, as an MPI request is process-local.
    requests: Vec<RequestState>,
}

impl RankState {
    /// How the rank renders in a verdict or a timeout: `finished`, else
    /// its parked pattern with the lowest key — communicator, then the
    /// collective's sequence number or the receive's source, tag and
    /// request — else `running`. It does not depend on the order in
    /// which the rank's threads parked.
    pub(crate) fn activity(&self) -> RankActivity {
        if self.finished {
            return RankActivity::Finished;
        }
        let key = |wait: &&RankActivity| match **wait {
            RankActivity::InCollective { seq, comm, .. } => (comm, Some(seq), None, None, None),
            RankActivity::InRecv {
                request,
                comm,
                src,
                tag,
            } => (comm, None, src, tag, request),
            RankActivity::Running | RankActivity::Finished => unreachable!("not a parked pattern"),
        };
        self.parked
            .iter()
            .min_by_key(key)
            .copied()
            .unwrap_or(RankActivity::Running)
    }
}

pub(crate) struct WorldState {
    pub(crate) comms: Vec<CommState>,
    pub(crate) ranks: Vec<RankState>,
    abort: Option<MpiError>,
    pub(crate) provided: Option<ThreadLevel>,
    /// A change a parked thread may wait for was made under this hold of
    /// the lock: [`World::unlock`] notifies once it has released it.
    wake: bool,
}

/// The simulated MPI world. Shared by all rank threads via `Arc`.
pub struct World {
    cfg: MpiConfig,
    state: Mutex<WorldState>,
    cv: Condvar,
}

/// Result of the `CC` control collective: the per-(local-)rank colors.
#[derive(Debug, Clone, PartialEq)]
pub struct CcOutcome {
    /// Color communicated by each member, in local rank order.
    pub colors: Vec<u32>,
}

impl CcOutcome {
    /// True when all members communicated the same color.
    pub fn unanimous(&self) -> bool {
        self.colors.windows(2).all(|w| w[0] == w[1])
    }
}

/// One communicator's p2p census row: (handle, total sent, total
/// received).
pub type P2pCensusRow = (usize, u64, u64);

impl World {
    /// Create a world of `cfg.world_size` ranks.
    pub fn new(cfg: MpiConfig) -> Arc<World> {
        let cfg = MpiConfig {
            world_size: cfg.world_size.max(1),
            ..cfg
        };
        let size = cfg.world_size;
        Arc::new(World {
            state: Mutex::new(WorldState {
                comms: vec![CommState::new((0..size).collect())],
                ranks: (0..size).map(|_| RankState::default()).collect(),
                abort: None,
                provided: None,
                wake: false,
            }),
            cv: Condvar::new(),
            cfg,
        })
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.cfg.world_size
    }

    /// Number of members of a communicator (None for a bad handle).
    pub fn comm_size(&self, comm: usize) -> Option<usize> {
        self.state.lock().comms.get(comm).map(|c| c.members.len())
    }

    /// The local rank of `global` within `comm` (None when not a
    /// member or the handle is bad).
    pub fn comm_rank(&self, global: usize, comm: usize) -> Option<usize> {
        self.state
            .lock()
            .comms
            .get(comm)
            .and_then(|c| c.local_rank(global))
    }

    /// `MPI_Init(_thread)`: returns the provided level
    /// (`min(required, max_provided)`).
    pub fn init(&self, _rank: usize, required: ThreadLevel) -> ThreadLevel {
        let provided = required.min(self.cfg.max_provided);
        let mut st = self.state.lock();
        // First init fixes the level; later inits (other ranks) keep the
        // weakest requested so enforcement is uniform.
        st.provided = Some(match st.provided {
            None => provided,
            Some(cur) => cur.min(provided),
        });
        provided
    }

    /// Abort the world: future operations, and parked ones whose outcome
    /// is not decided, fail with [`MpiError::Aborted`] carrying `reason`
    /// — they were stopped, they did not fault. The first abort wins.
    pub fn abort(&self, reason: MpiError) {
        let mut st = self.state.lock();
        self.abort_locked(&mut st, reason);
        self.unlock(st);
    }

    /// The abort reason, if the world aborted.
    pub fn abort_reason(&self) -> Option<MpiError> {
        self.state.lock().abort.clone()
    }

    /// Enforce the provided thread level at an MPI entry and count the
    /// call in flight.
    fn enter_mpi(&self, rank: usize, is_initial_thread: bool) -> Result<(), MpiError> {
        let mut st = self.state.lock();
        if let Some(e) = &st.abort {
            return Err(MpiError::Aborted(e.to_string()));
        }
        let provided = st.provided.unwrap_or(ThreadLevel::Multiple);
        let concurrent = st.ranks[rank].in_flight > 0;
        if let Some(detail) = thread_level_violation(provided, concurrent, is_initial_thread) {
            let err = MpiError::ThreadLevelViolation { provided, detail };
            self.abort_locked(&mut st, err.clone());
            self.unlock(st);
            return Err(err);
        }
        st.ranks[rank].in_flight += 1;
        Ok(())
    }

    fn leave_mpi(&self, rank: usize) {
        let mut st = self.state.lock();
        let r = &mut st.ranks[rank];
        r.in_flight = r.in_flight.saturating_sub(1);
    }

    /// The one MPI entry: every operation runs its `body` through here.
    /// Three lock holds, on purpose (see *Locking*): enter, then `body`
    /// — whose error aborts the world — then leave.
    ///
    /// `is_initial_thread` = the calling thread is the process's initial
    /// thread (master of every enclosing team).
    fn call<T>(
        &self,
        rank: usize,
        is_initial_thread: bool,
        body: impl FnOnce(&mut MutexGuard<'_, WorldState>) -> Result<T, MpiError>,
    ) -> Result<T, MpiError> {
        self.enter_mpi(rank, is_initial_thread)?;
        let mut st = self.state.lock();
        let result = body(&mut st);
        if let Err(e) = &result {
            self.abort_locked(&mut st, e.clone());
        }
        self.unlock(st);
        self.leave_mpi(rank);
        result
    }

    /// Release the lock, then wake the parked threads if this hold
    /// changed what they wait for.
    fn unlock(&self, mut st: MutexGuard<'_, WorldState>) {
        let wake = std::mem::take(&mut st.wake);
        drop(st);
        if wake {
            self.cv.notify_all();
        }
    }

    /// The one park point. What `ready` decides (under the lock) comes
    /// first, even after an abort. Until it completes the operation, the
    /// thread stays parked on `wait`, one of its rank's parked patterns,
    /// and runs the world's verdict before each sleep. Then comes a world
    /// verdict, which is every parked thread's own error; then an abort,
    /// which stops the thread; then the op timeout.
    fn block_until<T>(
        &self,
        st: &mut MutexGuard<'_, WorldState>,
        rank: usize,
        wait: RankActivity,
        mut ready: impl FnMut(&mut WorldState) -> Result<Option<T>, MpiError>,
    ) -> Result<T, MpiError> {
        if let Some(out) = ready(st).transpose() {
            return out; // an operation that can complete never parks
        }
        let deadline = Instant::now() + self.cfg.op_timeout;
        let mut timed_out = false;
        st.ranks[rank].parked.push(wait);
        let out = loop {
            if let Some(reason) = &st.abort {
                break Err(match reason {
                    MpiError::Deadlock { .. }
                    | MpiError::WaitCycle { .. }
                    | MpiError::RankFinishedEarly { .. } => reason.clone(),
                    _ => MpiError::Aborted(reason.to_string()),
                });
            }
            if timed_out {
                break Err(MpiError::Timeout {
                    what: timeout_what(rank, wait),
                    states: st.ranks.iter().map(RankState::activity).collect(),
                });
            }
            if let Some(v) = verdict(st) {
                break Err(v);
            }
            // An operation that changed the state and then parks wakes the
            // others itself: it releases the lock only by waiting.
            if std::mem::take(&mut st.wake) {
                self.cv.notify_all();
            }
            timed_out = self.cv.wait_until(st, deadline).timed_out();
            if let Some(out) = ready(st).transpose() {
                break out;
            }
        };
        // Equal patterns of sibling threads are interchangeable: removing
        // any one keeps the rank's parked multiset right.
        let parked = &mut st.ranks[rank].parked;
        let i = parked.iter().rposition(|p| *p == wait);
        parked.swap_remove(i.expect("parked above"));
        out
    }

    /// Register one interpreter thread that may issue MPI calls for
    /// `rank` (the rank's main thread, or a parallel-region member).
    /// Pairs with [`World::thread_departed`]; the counts feed the
    /// liveness census so it can prove deadlocks under
    /// `MPI_THREAD_MULTIPLE` instead of waiting out the op timeout. An
    /// embedder that runs several threads per rank under
    /// `MPI_THREAD_MULTIPLE` registers each one ([`run_ranks`] does not
    /// register); registering some threads of a rank but not others
    /// lets the census call a deadlock an unregistered thread could
    /// still resolve.
    pub fn thread_started(&self, rank: usize) {
        self.state.lock().ranks[rank].live += 1;
    }

    /// A registered thread can no longer issue MPI calls for `rank`
    /// (region member reached the join, or the main thread suspended at
    /// a fork). Wakes blocked peers: their census condition may have
    /// just become provable.
    pub fn thread_departed(&self, rank: usize) {
        let mut st = self.state.lock();
        let r = &mut st.ranks[rank];
        r.live = r.live.saturating_sub(1);
        drop(st);
        self.cv.notify_all();
    }

    /// Mark a rank's program as terminated; when that settles the world,
    /// its verdict falls here (the same one a park would give).
    pub fn finish_rank(&self, rank: usize) {
        let mut st = self.state.lock();
        let r = &mut st.ranks[rank];
        r.finished = true;
        r.live = r.live.saturating_sub(1);
        if st.abort.is_none() {
            st.abort = verdict(&st);
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Arrive at the next collective of `comm` with `sig` and this rank's
    /// `payload`, then park until the instance's outcome is decided.
    fn enter_collective(
        &self,
        rank: usize,
        comm: usize,
        sig: Signature,
        payload: Option<MpiValue>,
        is_initial_thread: bool,
    ) -> Result<MpiValue, MpiError> {
        self.call(rank, is_initial_thread, |st| {
            let (local, seq) = arrive(st, rank, comm, sig, payload)?;
            let wait = RankActivity::InCollective { seq, sig, comm };
            self.block_until(st, rank, wait, |st| {
                let c = &mut st.comms[comm];
                let inst = &mut c.instances[(seq - c.base_seq) as usize];
                let out = match &inst.outcome {
                    None => return Ok(None),
                    Some(Err(e)) => return Err(e.clone()),
                    Some(Ok(results)) => results[local].clone(),
                };
                inst.collected_count += 1;
                // Drop fully-collected instances from the front.
                while c
                    .instances
                    .front()
                    .is_some_and(|front| front.collected_count == c.members.len())
                {
                    c.instances.pop_front();
                    c.base_seq += 1;
                }
                Ok(Some(out))
            })
        })
    }

    /// The PARCOACH `CC` control collective on `MPI_COMM_WORLD`.
    pub fn control_cc(
        &self,
        rank: usize,
        color: u32,
        is_initial_thread: bool,
    ) -> Result<CcOutcome, MpiError> {
        self.control_cc_on(rank, COMM_WORLD, color, is_initial_thread)
    }

    /// The PARCOACH `CC` control collective on a communicator:
    /// all-reduce the color among its members and return every member's
    /// color. Running the CC on the *guarded collective's* communicator
    /// keeps unrelated communicators out of each other's checks. Colors
    /// are payload, not signature.
    pub fn control_cc_on(
        &self,
        rank: usize,
        comm: usize,
        color: u32,
        is_initial_thread: bool,
    ) -> Result<CcOutcome, MpiError> {
        let out = self.enter_collective(
            rank,
            comm,
            Signature::collective(CollectiveOp::ControlCc, None, None, None),
            Some(MpiValue::Int(color as i64)),
            is_initial_thread,
        )?;
        match out {
            MpiValue::ArrayInt(colors) => Ok(CcOutcome {
                colors: colors.into_iter().map(|c| c as u32).collect(),
            }),
            other => panic!("CC result must be an int array, got {:?}", other.ty()),
        }
    }

    /// `MPI_Finalize` — synchronizing pseudo-collective on the world.
    pub fn finalize(&self, rank: usize, is_initial_thread: bool) -> Result<(), MpiError> {
        let sig = Signature::collective(CollectiveOp::Finalize, None, None, None);
        self.enter_collective(rank, COMM_WORLD, sig, None, is_initial_thread)
            .map(|_| ())
    }

    /// Execute a data collective on `MPI_COMM_WORLD`.
    pub fn collective(
        &self,
        rank: usize,
        sig: Signature,
        payload: Option<MpiValue>,
        is_initial_thread: bool,
    ) -> Result<MpiValue, MpiError> {
        self.collective_on(rank, COMM_WORLD, sig, payload, is_initial_thread)
    }

    /// Execute a data collective on a communicator. `sig` must describe
    /// the operation (kind/op/root/type) with the root as a *local*
    /// rank; `payload` carries this rank's contribution. Returns this
    /// rank's result value.
    pub fn collective_on(
        &self,
        rank: usize,
        comm: usize,
        sig: Signature,
        payload: Option<MpiValue>,
        is_initial_thread: bool,
    ) -> Result<MpiValue, MpiError> {
        if let Some(root) = sig.root {
            let size = self.comm_size(comm).unwrap_or(0);
            if root >= size {
                let err = MpiError::ArgError(format!(
                    "root {root} out of range for communicator size {size}"
                ));
                self.abort(err.clone());
                return Err(err);
            }
        }
        self.enter_collective(rank, comm, sig, payload, is_initial_thread)
    }

    /// `MPI_Comm_split(parent, color, key)` — collective over the
    /// parent communicator. Members with equal `color` form a new
    /// communicator, ordered by (`key`, parent-global rank); the new
    /// handle is returned to each member. Colors must be non-negative.
    pub fn comm_split(
        &self,
        rank: usize,
        parent: usize,
        color: i64,
        key: i64,
        is_initial_thread: bool,
    ) -> Result<usize, MpiError> {
        if color < 0 {
            let err = MpiError::ArgError(format!("MPI_Comm_split color must be >= 0, got {color}"));
            self.abort(err.clone());
            return Err(err);
        }
        let out = self.enter_collective(
            rank,
            parent,
            Signature::collective(CollectiveOp::CommSplit, None, None, None),
            Some(MpiValue::ArrayInt(vec![color, key])),
            is_initial_thread,
        )?;
        Ok(out.as_int() as usize)
    }

    /// `MPI_Comm_dup(comm)` — collective over `comm`; returns a new
    /// handle with the same members but a fresh matching space.
    pub fn comm_dup(
        &self,
        rank: usize,
        comm: usize,
        is_initial_thread: bool,
    ) -> Result<usize, MpiError> {
        let sig = Signature::collective(CollectiveOp::CommDup, None, None, None);
        let out = self.enter_collective(rank, comm, sig, None, is_initial_thread)?;
        Ok(out.as_int() as usize)
    }

    /// Point-to-point epoch census (the PARCOACH `CC` protocol extended
    /// to p2p): a world-synchronizing control collective returning, for
    /// every communicator, the total messages sent and received on it.
    /// Placed by the instrumentation immediately before `MPI_Finalize`,
    /// where all buffered traffic must have been consumed — the epoch's
    /// final synchronization point. The per-communicator counters reset
    /// after the census (the epoch ends).
    pub fn p2p_census(
        &self,
        rank: usize,
        is_initial_thread: bool,
    ) -> Result<Vec<P2pCensusRow>, MpiError> {
        let sig = Signature::collective(CollectiveOp::P2pCensus, None, None, None);
        let out = self.enter_collective(rank, COMM_WORLD, sig, None, is_initial_thread)?;
        let MpiValue::ArrayInt(flat) = out else {
            panic!("census result must be an int array, got {:?}", out.ty());
        };
        Ok(flat
            .chunks(3)
            .map(|c| (c[0] as usize, c[1] as u64, c[2] as u64))
            .collect())
    }

    /// Buffered (non-blocking) send on a communicator; `dest` is the
    /// destination's local rank within `comm`.
    pub fn send_on(
        &self,
        rank: usize,
        comm: usize,
        dest: usize,
        tag: i64,
        value: MpiValue,
        is_initial_thread: bool,
    ) -> Result<(), MpiError> {
        self.call(rank, is_initial_thread, |st| {
            self.deliver(st, rank, comm, dest, tag, value)
        })
    }

    /// `MPI_Isend`: buffered send on a communicator (the message is
    /// delivered immediately, exactly like [`World::send_on`] — eager
    /// protocol); returns a request handle that completes trivially at
    /// [`World::wait`].
    pub fn isend(
        &self,
        rank: usize,
        comm: usize,
        dest: usize,
        tag: i64,
        value: MpiValue,
        is_initial_thread: bool,
    ) -> Result<usize, MpiError> {
        self.call(rank, is_initial_thread, |st| {
            self.deliver(st, rank, comm, dest, tag, value)?;
            Ok(post(st, rank, RequestState::SendDone))
        })
    }

    /// `MPI_Irecv`: non-blocking receive post on a communicator. `src`
    /// may be [`parcoach_front::ast::ANY_SOURCE`] and `tag` may be
    /// [`parcoach_front::ast::ANY_TAG`]; otherwise both must be
    /// non-negative (and `src` a member of `comm`). Never blocks — the
    /// matching message is consumed by [`World::wait`].
    pub fn irecv(
        &self,
        rank: usize,
        comm: usize,
        src: i64,
        tag: i64,
        is_initial_thread: bool,
    ) -> Result<usize, MpiError> {
        self.call(rank, is_initial_thread, |st| {
            let (src, tag) = recv_key(st, rank, comm, src, tag, "irecv")?;
            Ok(post(st, rank, RequestState::RecvPending { comm, src, tag }))
        })
    }

    /// `MPI_Wait`: block until `request` completes. Send requests
    /// retire immediately (returning `Int(0)`); receive requests block
    /// until a matching message is buffered, consume it (deterministic
    /// wildcard tie-break: lowest sender rank first, then earliest
    /// arrival) and return its value. Waiting twice on one request, or
    /// on a handle the rank has not posted, is an argument error.
    pub fn wait(
        &self,
        rank: usize,
        request: usize,
        is_initial_thread: bool,
    ) -> Result<MpiValue, MpiError> {
        self.call(rank, is_initial_thread, |st| {
            let Some(&state) = st.ranks[rank].requests.get(request) else {
                return Err(MpiError::ArgError(format!(
                    "invalid request handle #{request}"
                )));
            };
            let (comm, src, tag) = match state {
                RequestState::SendDone => {
                    st.ranks[rank].requests[request] = RequestState::Retired;
                    return Ok(MpiValue::Int(0));
                }
                RequestState::Retired => return Err(already_waited(request)),
                RequestState::RecvPending { comm, src, tag } => (comm, src, tag),
            };
            let wait = RankActivity::InRecv {
                request: Some(request),
                comm,
                src,
                tag,
            };
            self.block_until(st, rank, wait, |st| {
                // Re-read the state every round: under MPI_THREAD_MULTIPLE a
                // sibling thread waiting on the same request may have
                // completed it while we slept — that is a double wait and
                // must error, not steal the next matching message.
                if matches!(st.ranks[rank].requests[request], RequestState::Retired) {
                    return Err(already_waited(request));
                }
                let value = take_message(st, rank, comm, src, tag);
                if value.is_some() {
                    st.ranks[rank].requests[request] = RequestState::Retired;
                }
                Ok(value)
            })
        })
    }

    /// Buffered send on `MPI_COMM_WORLD`.
    pub fn send(
        &self,
        rank: usize,
        dest: usize,
        tag: i64,
        value: MpiValue,
        is_initial_thread: bool,
    ) -> Result<(), MpiError> {
        self.send_on(rank, COMM_WORLD, dest, tag, value, is_initial_thread)
    }

    /// Blocking receive of a message from local rank `src` with `tag`
    /// on a communicator. `src` accepts [`parcoach_front::ast::ANY_SOURCE`]
    /// and `tag` accepts [`parcoach_front::ast::ANY_TAG`] — the same
    /// wildcards (and deterministic tie-break) as [`World::irecv`].
    pub fn recv_on(
        &self,
        rank: usize,
        comm: usize,
        src: i64,
        tag: i64,
        is_initial_thread: bool,
    ) -> Result<MpiValue, MpiError> {
        self.call(rank, is_initial_thread, |st| {
            let (src, tag) = recv_key(st, rank, comm, src, tag, "recv")?;
            let wait = RankActivity::InRecv {
                request: None,
                comm,
                src,
                tag,
            };
            self.block_until(st, rank, wait, |st| {
                Ok(take_message(st, rank, comm, src, tag))
            })
        })
    }

    /// Blocking receive on `MPI_COMM_WORLD`.
    pub fn recv(
        &self,
        rank: usize,
        src: i64,
        tag: i64,
        is_initial_thread: bool,
    ) -> Result<MpiValue, MpiError> {
        self.recv_on(rank, COMM_WORLD, src, tag, is_initial_thread)
    }

    fn abort_locked(&self, st: &mut WorldState, err: MpiError) {
        if st.abort.is_none() {
            st.abort = Some(err);
        }
        st.wake = true;
    }

    /// Deliver one buffered message — the shared core of the blocking and
    /// non-blocking sends: validates the destination and tag, bumps the
    /// sender's per-communicator counter, appends to the destination's
    /// mailbox and wakes the parked receivers.
    fn deliver(
        &self,
        st: &mut WorldState,
        rank: usize,
        comm: usize,
        dest: usize,
        tag: i64,
        value: MpiValue,
    ) -> Result<(), MpiError> {
        if tag < 0 {
            return Err(MpiError::ArgError(format!(
                "send tag {tag} must be non-negative (wildcards are receive-only)"
            )));
        }
        let src = member(st, rank, comm)?;
        let c = &mut st.comms[comm];
        if dest >= c.members.len() {
            return Err(MpiError::ArgError(format!(
                "send destination {dest} out of range for communicator size {}",
                c.members.len()
            )));
        }
        c.p2p_sent[src] += 1;
        let global_dest = c.members[dest];
        st.ranks[global_dest].mailbox.push(Message {
            comm,
            src,
            tag,
            value,
        });
        st.wake = true;
        Ok(())
    }
}

/// Arrive at `rank`'s next collective instance of `comm` with `sig` and
/// `payload`; its (local rank, instance sequence number). The arrival
/// that completes the instance decides its outcome; one with another
/// signature than the first arriver's decides it a mismatch.
fn arrive(
    st: &mut WorldState,
    rank: usize,
    comm: usize,
    sig: Signature,
    payload: Option<MpiValue>,
) -> Result<(usize, u64), MpiError> {
    if let Some(e) = &st.abort {
        return Err(MpiError::Aborted(e.to_string()));
    }
    let local = member(st, rank, comm)?;
    let c = &mut st.comms[comm];
    let size = c.members.len();
    let seq = c.per_rank_seq[local];
    c.per_rank_seq[local] += 1;
    // Materialize instances up to `seq`.
    while c.base_seq + (c.instances.len() as u64) <= seq {
        c.instances.push_back(Instance::new(size));
    }
    let inst = &mut c.instances[(seq - c.base_seq) as usize];
    match inst.signature {
        None => {
            inst.signature = Some(sig);
            inst.first_rank = rank;
        }
        Some(existing) if existing != sig => {
            let (first, second) = if inst.first_rank < rank {
                ((inst.first_rank, existing), (rank, sig))
            } else {
                ((rank, sig), (inst.first_rank, existing))
            };
            inst.outcome = Some(Err(MpiError::CollectiveMismatch {
                comm,
                seq,
                first_rank: first.0,
                first: first.1,
                second_rank: second.0,
                second: second.1,
            }));
            st.wake = true;
            return Ok((local, seq));
        }
        Some(_) => {}
    }
    inst.payloads[local] = payload;
    inst.arrived_count += 1;
    if inst.arrived_count == size {
        // Compute the outcome outside the instance borrow: communicator
        // management collectives allocate new communicators.
        let payloads = std::mem::take(&mut inst.payloads);
        let outcome = match sig.op {
            CollectiveOp::CommSplit => split_results(st, comm, &payloads),
            CollectiveOp::CommDup => Ok(dup_results(st, comm)),
            CollectiveOp::P2pCensus => Ok(census_results(st, size)),
            _ => compute_results(sig, &payloads, size),
        };
        let c = &mut st.comms[comm];
        c.instances[(seq - c.base_seq) as usize].outcome = Some(outcome);
        st.wake = true;
    }
    Ok((local, seq))
}

/// `rank`'s local rank in `comm` — the one membership check.
fn member(st: &WorldState, rank: usize, comm: usize) -> Result<usize, MpiError> {
    let Some(c) = st.comms.get(comm) else {
        return Err(MpiError::ArgError(format!(
            "invalid communicator handle #{comm}"
        )));
    };
    c.local_rank(rank).ok_or_else(|| {
        MpiError::ArgError(format!(
            "rank {rank} is not a member of communicator #{comm}"
        ))
    })
}

/// Check a receive's sentinel-encoded (source, tag) key for `op`:
/// `ANY_SOURCE` / `ANY_TAG` become wildcards and other negative values
/// are errors, then `rank` must be a member of `comm` and a pinned
/// source a rank of it.
fn recv_key(
    st: &WorldState,
    rank: usize,
    comm: usize,
    src: i64,
    tag: i64,
    op: &str,
) -> Result<(Option<usize>, Option<i64>), MpiError> {
    let src = match src {
        ANY_SOURCE => None,
        s if s < 0 => {
            return Err(MpiError::ArgError(format!(
                "receive source {s} is neither a rank nor MPI_ANY_SOURCE"
            )))
        }
        s => Some(s as usize),
    };
    let tag = match tag {
        ANY_TAG => None,
        t if t < 0 => {
            return Err(MpiError::ArgError(format!(
                "receive tag {t} is neither a tag nor MPI_ANY_TAG"
            )))
        }
        t => Some(t),
    };
    member(st, rank, comm)?;
    let size = st.comms[comm].members.len();
    if let Some(s) = src.filter(|&s| s >= size) {
        return Err(MpiError::ArgError(format!(
            "{op} source {s} out of range for communicator size {size}"
        )));
    }
    Ok((src, tag))
}

/// Consume the buffered message a receive of `rank` on `comm` takes
/// (see [`matching_message`]), if any, and count it received — the one
/// consume path of `MPI_Recv` and `MPI_Wait`.
fn take_message(
    st: &mut WorldState,
    rank: usize,
    comm: usize,
    src: Option<usize>,
    tag: Option<i64>,
) -> Option<MpiValue> {
    let pos = matching_message(&st.ranks[rank].mailbox, comm, src, tag)?;
    let c = &mut st.comms[comm];
    let local = c.local_rank(rank).expect("membership checked at post");
    c.p2p_recvd[local] += 1;
    Some(st.ranks[rank].mailbox.remove(pos).value)
}

/// Post a non-blocking request of `rank`; returns its handle, numbered
/// from 0 in the order the rank posts.
fn post(st: &mut WorldState, rank: usize, state: RequestState) -> usize {
    let table = &mut st.ranks[rank].requests;
    table.push(state);
    table.len() - 1
}

fn already_waited(request: usize) -> MpiError {
    MpiError::ArgError(format!(
        "request #{request} was already completed by a previous wait"
    ))
}

/// `MPI_Comm_split` results: group the parent's members by color,
/// order each group by (key, global rank), allocate one new
/// communicator per color (ascending), and hand every member its
/// group's handle.
fn split_results(
    st: &mut WorldState,
    parent: usize,
    payloads: &[Option<MpiValue>],
) -> Result<Vec<MpiValue>, MpiError> {
    let members = st.comms[parent].members.clone();
    let mut entries: Vec<(i64, i64, usize)> = Vec::with_capacity(members.len()); // (color, key, global)
    for (local, p) in payloads.iter().enumerate() {
        match p {
            Some(MpiValue::ArrayInt(ck)) if ck.len() == 2 => {
                entries.push((ck[0], ck[1], members[local]));
            }
            _ => {
                return Err(MpiError::ArgError(
                    "MPI_Comm_split payload must be [color, key]".into(),
                ))
            }
        }
    }
    let mut colors: Vec<i64> = entries.iter().map(|e| e.0).collect();
    colors.sort_unstable();
    colors.dedup();
    let mut handle_of_global: Vec<(usize, usize)> = Vec::new(); // (global, handle)
    for color in colors {
        let mut group: Vec<(i64, usize)> = entries
            .iter()
            .filter(|e| e.0 == color)
            .map(|e| (e.1, e.2))
            .collect();
        group.sort_unstable();
        let handle = st.comms.len();
        let group_members: Vec<usize> = group.iter().map(|&(_, g)| g).collect();
        for &g in &group_members {
            handle_of_global.push((g, handle));
        }
        st.comms.push(CommState::new(group_members));
    }
    Ok(members
        .iter()
        .map(|g| {
            let h = handle_of_global
                .iter()
                .find(|(gg, _)| gg == g)
                .expect("every member is in a group")
                .1;
            MpiValue::Int(h as i64)
        })
        .collect())
}

/// `MPI_Comm_dup` results: one new communicator with the same members.
fn dup_results(st: &mut WorldState, parent: usize) -> Vec<MpiValue> {
    let members = st.comms[parent].members.clone();
    let size = members.len();
    let handle = st.comms.len();
    st.comms.push(CommState::new(members));
    vec![MpiValue::Int(handle as i64); size]
}

/// P2p census results: snapshot the per-communicator send/receive
/// totals, then reset the counters (the epoch ends at the census).
fn census_results(st: &mut WorldState, size: usize) -> Vec<MpiValue> {
    let mut flat: Vec<i64> = Vec::with_capacity(st.comms.len() * 3);
    for (h, c) in st.comms.iter().enumerate() {
        flat.push(h as i64);
        flat.push(c.p2p_sent.iter().sum::<u64>() as i64);
        flat.push(c.p2p_recvd.iter().sum::<u64>() as i64);
    }
    for c in st.comms.iter_mut() {
        c.p2p_sent.iter_mut().for_each(|x| *x = 0);
        c.p2p_recvd.iter_mut().for_each(|x| *x = 0);
    }
    vec![MpiValue::ArrayInt(flat); size]
}

/// What a timeout names: the operation `wait` parks `rank` in.
fn timeout_what(rank: usize, wait: RankActivity) -> String {
    match wait {
        RankActivity::InCollective { seq, sig, comm } => {
            format!(
                "{sig}{} on rank {rank} (collective #{seq})",
                comm_suffix(comm)
            )
        }
        RankActivity::InRecv {
            request: None,
            comm,
            src,
            tag,
        } => format!(
            "MPI_Recv(src={}, tag={}{}) on rank {rank}",
            value_or_any(src),
            value_or_any(tag),
            comm_suffix(comm)
        ),
        RankActivity::InRecv {
            request: Some(request),
            comm,
            ..
        } => format!(
            "MPI_Wait(req #{request}){} on rank {rank}",
            comm_suffix(comm)
        ),
        RankActivity::Running | RankActivity::Finished => unreachable!("not a parked pattern"),
    }
}

/// Render an optional receive-key field as its value or `ANY`.
fn value_or_any(v: Option<impl std::fmt::Display>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "ANY".into())
}

/// Suffix for a timeout's text; empty for the world.
fn comm_suffix(comm: usize) -> String {
    if comm == COMM_WORLD {
        String::new()
    } else {
        format!(" on comm #{comm}")
    }
}

/// Compute per-(local-)rank results once all payloads arrived.
fn compute_results(
    sig: Signature,
    payloads: &[Option<MpiValue>],
    size: usize,
) -> Result<Vec<MpiValue>, MpiError> {
    let payloads: Vec<&MpiValue> = match sig.op {
        CollectiveOp::Barrier | CollectiveOp::Finalize => Vec::new(),
        _ => {
            let mut v = Vec::with_capacity(size);
            for (r, p) in payloads.iter().enumerate() {
                match p {
                    Some(x) => v.push(x),
                    None => {
                        return Err(MpiError::ArgError(format!(
                            "rank {r} entered {sig} without a payload"
                        )))
                    }
                }
            }
            v
        }
    };
    let dummy = MpiValue::Int(0);
    Ok(match sig.op {
        CollectiveOp::Barrier | CollectiveOp::Finalize => vec![dummy; size],
        CollectiveOp::CommSplit | CollectiveOp::CommDup | CollectiveOp::P2pCensus => {
            unreachable!("handled by the caller with world access")
        }
        CollectiveOp::ControlCc => {
            let colors: Vec<i64> = payloads.iter().map(|p| p.as_int()).collect();
            vec![MpiValue::ArrayInt(colors); size]
        }
        CollectiveOp::Bcast => {
            let root = sig.root.expect("bcast has root");
            vec![payloads[root].clone(); size]
        }
        CollectiveOp::Allreduce => {
            let op = sig.reduce_op.expect("allreduce has op");
            let mut acc = payloads[0].clone();
            for p in &payloads[1..] {
                acc = reduce_scalar(op, &acc, p);
            }
            vec![acc; size]
        }
        CollectiveOp::Reduce => {
            let op = sig.reduce_op.expect("reduce has op");
            let root = sig.root.expect("reduce has root");
            let mut acc = payloads[0].clone();
            for p in &payloads[1..] {
                acc = reduce_scalar(op, &acc, p);
            }
            // Root receives the reduction; other ranks get their own
            // contribution back (documented simulator semantics).
            (0..size)
                .map(|r| {
                    if r == root {
                        acc.clone()
                    } else {
                        payloads[r].clone()
                    }
                })
                .collect()
        }
        CollectiveOp::Scan => {
            let op = sig.reduce_op.expect("scan has op");
            let mut acc: Option<MpiValue> = None;
            payloads
                .iter()
                .map(|p| {
                    acc = Some(match &acc {
                        None => (*p).clone(),
                        Some(a) => reduce_scalar(op, a, p),
                    });
                    acc.clone().expect("just set")
                })
                .collect()
        }
        CollectiveOp::Gather => {
            let root = sig.root.expect("gather has root");
            let gathered = gather_array(&payloads)?;
            (0..size)
                .map(|r| {
                    if r == root {
                        gathered.clone()
                    } else {
                        empty_like(&gathered)
                    }
                })
                .collect()
        }
        CollectiveOp::Allgather => {
            let gathered = gather_array(&payloads)?;
            vec![gathered; size]
        }
        CollectiveOp::Scatter => {
            let root = sig.root.expect("scatter has root");
            scatter_elems(payloads[root], size, &sig)?
        }
        CollectiveOp::Alltoall => {
            // Rank r receives element r of every rank's array.
            if !matches!(payloads[0], MpiValue::ArrayInt(_) | MpiValue::ArrayFloat(_)) {
                return Err(MpiError::ArgError("alltoall needs arrays".into()));
            }
            let columns = payloads
                .iter()
                .map(|p| scatter_elems(p, size, &sig))
                .collect::<Result<Vec<_>, _>>()?;
            (0..size)
                .map(|r| gather_array(&columns.iter().map(|c| &c[r]).collect::<Vec<_>>()))
                .collect::<Result<_, _>>()?
        }
        CollectiveOp::ReduceScatter => {
            let op = sig.reduce_op.expect("reduce_scatter has op");
            let mut acc = payloads[0].clone();
            for p in &payloads[1..] {
                acc = reduce_array(op, &acc, p);
            }
            scatter_elems(&acc, size, &sig)?
        }
    })
}

fn gather_array(payloads: &[&MpiValue]) -> Result<MpiValue, MpiError> {
    match payloads[0] {
        MpiValue::Int(_) => Ok(MpiValue::ArrayInt(
            payloads.iter().map(|p| p.as_int()).collect(),
        )),
        MpiValue::Float(_) => Ok(MpiValue::ArrayFloat(
            payloads.iter().map(|p| p.as_float()).collect(),
        )),
        _ => Err(MpiError::ArgError(
            "gather/allgather needs scalar contributions".into(),
        )),
    }
}

fn empty_like(v: &MpiValue) -> MpiValue {
    match v {
        MpiValue::ArrayInt(_) => MpiValue::ArrayInt(Vec::new()),
        MpiValue::ArrayFloat(_) => MpiValue::ArrayFloat(Vec::new()),
        _ => MpiValue::Int(0),
    }
}

/// The first `size` elements of an array payload, one scalar each.
fn scatter_elems(src: &MpiValue, size: usize, sig: &Signature) -> Result<Vec<MpiValue>, MpiError> {
    let elems: Vec<MpiValue> = match src {
        MpiValue::ArrayInt(a) => a.iter().take(size).map(|&x| MpiValue::Int(x)).collect(),
        MpiValue::ArrayFloat(a) => a.iter().take(size).map(|&x| MpiValue::Float(x)).collect(),
        _ => return Err(MpiError::ArgError(format!("{sig} needs an array payload"))),
    };
    if elems.len() < size {
        return Err(short_array(sig, elems.len(), size));
    }
    Ok(elems)
}

fn short_array(sig: &Signature, len: usize, size: usize) -> MpiError {
    MpiError::ArgError(format!(
        "{sig}: array of length {len} is shorter than the communicator size {size}"
    ))
}

/// Run `f(rank)` for every rank of `world` concurrently — rank 0 on the
/// caller, one dedicated thread per other rank from the shared simulator
/// thread cache (reused across worlds instead of respawned) — and
/// collect the per-rank results in rank order.
///
/// Ranks may block in collectives/recv; the cache guarantees all of
/// them run simultaneously, which the matching engine's liveness census
/// assumes. It registers no thread with the world: under
/// `MPI_THREAD_MULTIPLE`, `f` registers each thread that may call MPI
/// ([`World::thread_started`]), or the census waits for a rank to finish
/// before it counts a parked thread as its whole rank.
pub fn run_ranks<R, F>(world: &Arc<World>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    parcoach_sync::thread_cache().run_map(world.size(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(n: usize) -> Arc<World> {
        World::new(MpiConfig {
            world_size: n,
            max_provided: ThreadLevel::Multiple,
            op_timeout: Duration::from_secs(20),
        })
    }

    fn barrier() -> Signature {
        Signature::collective(CollectiveOp::Barrier, None, None, None)
    }

    /// How many threads are parked, plus how many ranks finished.
    fn settled(w: &World) -> usize {
        let st = w.state.lock();
        st.ranks
            .iter()
            .map(|r| r.parked.len() + r.finished as usize)
            .sum()
    }

    /// Run `op(i)` for every `i` in `order` (a rank, or one thread of a
    /// rank), each started only once the ones before it have parked or
    /// finished their rank; results by `i`.
    fn in_order<R: Send>(w: &World, order: &[usize], op: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let op = &op;
        std::thread::scope(|s| {
            let mut handles: Vec<_> = (0..order.len()).map(|_| None).collect();
            for (i, &r) in order.iter().enumerate() {
                handles[r] = Some(s.spawn(move || op(r)));
                if i + 1 < order.len() {
                    while settled(w) <= i {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
            handles
                .into_iter()
                .map(|h| h.expect("every rank ran").join().unwrap())
                .collect()
        })
    }

    #[test]
    fn results_decided_before_an_abort_are_still_delivered() {
        let w = world(2);
        let got = std::thread::scope(|s| {
            let parked = s.spawn(|| w.collective(0, barrier(), None, true));
            while settled(&w) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            // Rank 1's arrival decides the instance and the world aborts
            // in the same hold of the lock: rank 0 wakes to both.
            let mut st = w.state.lock();
            arrive(&mut st, 1, COMM_WORLD, barrier(), None).unwrap();
            w.abort_locked(&mut st, MpiError::ArgError("elsewhere".into()));
            w.unlock(st);
            parked.join().unwrap()
        });
        assert_eq!(got, Ok(MpiValue::Int(0)));
        // An operation that starts after the abort is stopped.
        assert!(matches!(w.finalize(0, true), Err(MpiError::Aborted(_))));
    }

    #[test]
    fn a_mismatch_reaches_both_members_in_rank_order_whichever_arrives_first() {
        let sum = Signature::collective(
            CollectiveOp::Allreduce,
            Some(parcoach_front::ast::ReduceOp::Sum),
            None,
            Some(crate::value::MpiType::Int),
        );
        let mut texts = Vec::new();
        for order in [[0, 1], [1, 0]] {
            let w = world(2);
            let res = in_order(&w, &order, |r| match r {
                0 => w.collective(0, barrier(), None, true),
                _ => w.collective(1, sum, Some(MpiValue::Int(1)), true),
            });
            assert_eq!(res[0], res[1], "order {order:?}");
            let Err(e @ MpiError::CollectiveMismatch { .. }) = &res[0] else {
                panic!("order {order:?}: {res:?}");
            };
            texts.push(e.to_string());
        }
        assert_eq!(texts[0], texts[1]);
        assert_eq!(
            texts[0],
            "collective mismatch at operation #0: rank 0 entered MPI_Barrier \
             but rank 1 entered MPI_Allreduce op=SUM type=int"
        );
    }

    #[test]
    fn an_early_exit_reaches_every_parked_thread_whichever_settles_the_world() {
        let mut seen = Vec::new();
        for order in [[0, 1, 2], [2, 1, 0], [0, 2, 1]] {
            let w = world(3);
            let res = in_order(&w, &order, |r| match r {
                2 => {
                    w.finish_rank(2);
                    None
                }
                _ => Some(w.collective(r, barrier(), None, true)),
            });
            assert_eq!(res[0], res[1], "order {order:?}");
            assert!(
                matches!(
                    res[0],
                    Some(Err(MpiError::RankFinishedEarly {
                        finished_rank: 2,
                        ..
                    }))
                ),
                "order {order:?}: {res:?}"
            );
            seen.push(res[0].clone());
        }
        assert!(seen.windows(2).all(|p| p[0] == p[1]), "{seen:?}");
    }

    #[test]
    fn a_census_verdict_reaches_every_parked_thread_whichever_parks_last() {
        // Ranks 0 and 1 wait in a barrier rank 2 never reaches; rank 2
        // waits for a message rank 0 never sends. Nobody finished, and
        // nothing waits in a cycle: a plain deadlock.
        let mut seen = Vec::new();
        for order in [[0, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let w = world(3);
            w.init(0, ThreadLevel::Single);
            let res = in_order(&w, &order, |r| match r {
                2 => w.recv(2, 0, 5, true).map(|_| ()),
                _ => w.collective(r, barrier(), None, true).map(|_| ()),
            });
            assert!(res.iter().all(|r| r == &res[0]), "order {order:?}: {res:?}");
            assert!(
                matches!(res[0], Err(MpiError::Deadlock { .. })),
                "order {order:?}: {res:?}"
            );
            seen.push(res[0].clone());
        }
        assert!(seen.windows(2).all(|p| p[0] == p[1]), "{seen:?}");
    }

    /// A parked pattern is plain data: a `String` in it fails to compile.
    const _: () = copy::<RankActivity>();
    const fn copy<T: Copy>() {}

    #[test]
    fn a_rank_with_two_parked_threads_renders_alike_in_either_park_order() {
        // Under MPI_THREAD_MULTIPLE, rank 0 has two registered threads:
        // one waits for rank 1's message (0), one in a barrier rank 1
        // never enters (1). Rank 1 waits for rank 0's message (2). Each
        // rank waits on the other: a cycle, whichever of rank 0's
        // threads parked first.
        let mut seen = Vec::new();
        for order in [[0, 1, 2], [1, 0, 2], [2, 1, 0]] {
            let w = world(2);
            w.init(0, ThreadLevel::Multiple);
            for r in [0, 0, 1] {
                w.thread_started(r);
            }
            let res = in_order(&w, &order, |i| match i {
                0 => w.recv(0, 1, 5, true).map(|_| ()),
                1 => w.collective(0, barrier(), None, false).map(|_| ()),
                _ => w.recv(1, 0, 7, true).map(|_| ()),
            });
            assert!(res.iter().all(|r| r == &res[0]), "order {order:?}: {res:?}");
            seen.push(res[0].clone().unwrap_err().to_string());
        }
        assert!(seen.windows(2).all(|p| p[0] == p[1]), "{seen:?}");
        assert_eq!(
            seen[0],
            "wait-for cycle: rank 0 waits on rank 1; rank 1 waits on rank 0; \
             [rank 0: blocked in MPI_Recv(src=1, tag=5)] \
             [rank 1: blocked in MPI_Recv(src=0, tag=7)]"
        );
    }
}
