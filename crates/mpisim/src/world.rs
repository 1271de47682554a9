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
//! signature is a **collective mismatch** and aborts the world with both
//! signatures and ranks — this is what MUST's tree-based matcher
//! reports, and what the PARCOACH `CC` turns into a *pre*-collective
//! error with source lines. Collectives on different communicators have
//! disjoint matching spaces and never see each other.
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
//! blocking wait participates in a liveness census (see
//! `census.rs`): when **all** ranks are blocked
//! (collective/recv/wait) or finished and nothing can complete on any
//! communicator, the world aborts with a per-rank activity dump. Before
//! declaring a generic deadlock the census builds a **wait-for graph**
//! over the blocked receives and waits (an edge rank → r when rank
//! awaits a message only r could send); a genuine cycle is reported as
//! [`MpiError::WaitCycle`] naming the ranks on it. A rank finishing
//! while others wait in a collective aborts immediately.
//!
//! ## Locking
//!
//! One `Mutex<WorldState>` and one `Condvar` serialize every rank,
//! communicator, mailbox, request and census operation: every blocking
//! wait parks on the one condvar and every state change that could
//! complete a wait notifies it. (A sharded engine with per-communicator
//! and per-mailbox locks was retired in PR 13 at measured parity, see
//! git history.)

use crate::census::{deadlock_census, CensusInput};
use crate::error::{MpiError, RankActivity};
use crate::signature::{CollectiveOp, Signature};
use crate::value::{reduce_array, reduce_scalar, MpiType, MpiValue};
use parcoach_front::ast::{ReduceOp, ThreadLevel, ANY_SOURCE, ANY_TAG};
use parking_lot::{Condvar, Mutex};
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
struct Message {
    /// Communicator the message travels on.
    comm: usize,
    /// Sender's local rank within `comm`.
    src: usize,
    tag: i64,
    value: MpiValue,
}

/// One collective instance (the n-th collective of a communicator).
struct Instance {
    signature: Option<Signature>,
    first_rank: usize,
    payloads: Vec<Option<MpiValue>>,
    arrived_count: usize,
    results: Option<Vec<MpiValue>>,
    collected: Vec<bool>,
    collected_count: usize,
}

impl Instance {
    fn new(size: usize) -> Instance {
        Instance {
            signature: None,
            first_rank: 0,
            payloads: vec![None; size],
            arrived_count: 0,
            results: None,
            collected: vec![false; size],
            collected_count: 0,
        }
    }
}

/// State of one non-blocking request.
#[derive(Debug, Clone)]
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

/// One non-blocking request, owned by the rank that posted it.
#[derive(Debug, Clone)]
struct Request {
    owner: usize,
    state: RequestState,
}

/// Index of the buffered message a (possibly wildcarded) receive should
/// take: lowest sender rank first, then earliest arrival — the
/// deterministic wildcard tie-break.
fn matching_message(
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

/// Decode a sentinel-encoded (source, tag) receive key: `ANY_SOURCE` /
/// `ANY_TAG` become wildcards, other negative values are errors.
fn decode_recv_key(src: i64, tag: i64) -> Result<(Option<usize>, Option<i64>), MpiError> {
    let s = match src {
        ANY_SOURCE => None,
        s if s < 0 => {
            return Err(MpiError::ArgError(format!(
                "receive source {s} is neither a rank nor MPI_ANY_SOURCE"
            )))
        }
        s => Some(s as usize),
    };
    let t = match tag {
        ANY_TAG => None,
        t if t < 0 => {
            return Err(MpiError::ArgError(format!(
                "receive tag {t} is neither a tag nor MPI_ANY_TAG"
            )))
        }
        t => Some(t),
    };
    Ok((s, t))
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
struct CommState {
    /// Global ranks, ordered; the position is the comm-local rank.
    members: Vec<usize>,
    instances: VecDeque<Instance>,
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

struct WorldState {
    comms: Vec<CommState>,
    activity: Vec<RankActivity>,
    mailboxes: Vec<Vec<Message>>,
    /// All non-blocking requests ever posted; handles index this table.
    requests: Vec<Request>,
    abort: Option<MpiError>,
    provided: Option<ThreadLevel>,
    /// Number of MPI calls currently in flight per rank (threads).
    in_flight: Vec<usize>,
    /// Interpreter threads currently able to issue MPI calls, per rank
    /// (registered via `thread_started`/`thread_departed`). Zero when
    /// the embedder does not register — the liveness census then falls
    /// back to the pure timeout under `MPI_THREAD_MULTIPLE`.
    live: Vec<usize>,
    /// One entry per thread parked in a blocking MPI wait, per rank:
    /// the pattern it is blocked on. Together with `live` this lets the
    /// census rule out rescue-by-sibling-thread under
    /// `MPI_THREAD_MULTIPLE`: when every live thread of every
    /// unfinished rank is parked, nothing can progress.
    blocked: Vec<Vec<RankActivity>>,
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

    /// Minimum and maximum color (the paper's `(min, max)` all-reduce).
    pub fn min_max(&self) -> (u32, u32) {
        let min = self.colors.iter().copied().min().unwrap_or(0);
        let max = self.colors.iter().copied().max().unwrap_or(0);
        (min, max)
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
                activity: vec![RankActivity::Running; size],
                mailboxes: vec![Vec::new(); size],
                requests: Vec::new(),
                abort: None,
                provided: None,
                in_flight: vec![0; size],
                live: vec![0; size],
                blocked: vec![Vec::new(); size],
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

    /// The currently provided thread level (`Multiple` before init —
    /// enforcement only starts once the program declared its level).
    pub fn provided(&self) -> ThreadLevel {
        self.state.lock().provided.unwrap_or(ThreadLevel::Multiple)
    }

    /// Abort the world: all blocked and future operations fail with
    /// [`MpiError::Aborted`] carrying `reason`. The first abort wins.
    pub fn abort(&self, reason: MpiError) {
        let mut st = self.state.lock();
        if st.abort.is_none() {
            st.abort = Some(reason);
        }
        self.cv.notify_all();
    }

    /// The abort reason, if the world aborted.
    pub fn abort_reason(&self) -> Option<MpiError> {
        self.state.lock().abort.clone()
    }

    /// Guard every MPI entry: enforces the provided thread level.
    ///
    /// `is_initial_thread` = the calling thread is the process's initial
    /// thread (master of every enclosing team).
    fn enter_mpi(&self, rank: usize, is_initial_thread: bool) -> Result<(), MpiError> {
        let mut st = self.state.lock();
        if let Some(e) = &st.abort {
            return Err(MpiError::Aborted(e.to_string()));
        }
        let provided = st.provided.unwrap_or(ThreadLevel::Multiple);
        let concurrent = st.in_flight[rank] > 0;
        if let Some(detail) = thread_level_violation(provided, concurrent, is_initial_thread) {
            let err = MpiError::ThreadLevelViolation { provided, detail };
            if st.abort.is_none() {
                st.abort = Some(err.clone());
            }
            self.cv.notify_all();
            return Err(err);
        }
        st.in_flight[rank] += 1;
        Ok(())
    }

    fn leave_mpi(&self, rank: usize) {
        let mut st = self.state.lock();
        st.in_flight[rank] = st.in_flight[rank].saturating_sub(1);
    }

    /// Register one interpreter thread that may issue MPI calls for
    /// `rank` (the rank's main thread, or a parallel-region member).
    /// Pairs with [`World::thread_departed`]; the counts feed the
    /// liveness census so it can prove deadlocks under
    /// `MPI_THREAD_MULTIPLE` instead of waiting out the op timeout.
    pub fn thread_started(&self, rank: usize) {
        let mut st = self.state.lock();
        st.live[rank] += 1;
    }

    /// A registered thread can no longer issue MPI calls for `rank`
    /// (region member reached the join, or the main thread suspended at
    /// a fork). Wakes blocked peers: their census condition may have
    /// just become provable.
    pub fn thread_departed(&self, rank: usize) {
        let mut st = self.state.lock();
        st.live[rank] = st.live[rank].saturating_sub(1);
        drop(st);
        self.cv.notify_all();
    }

    /// Mark a rank's program as terminated. Detects "finished while
    /// others wait in a collective".
    pub fn finish_rank(&self, rank: usize) {
        let mut st = self.state.lock();
        st.activity[rank] = RankActivity::Finished;
        st.live[rank] = st.live[rank].saturating_sub(1);
        if st.abort.is_none() {
            let pending_collective = st
                .comms
                .iter()
                .flat_map(|c| c.instances.iter())
                .any(|i| i.results.is_none() && i.arrived_count > 0);
            let all_settled = st
                .activity
                .iter()
                .all(|a| !matches!(a, RankActivity::Running));
            if pending_collective && all_settled {
                st.abort = Some(MpiError::RankFinishedEarly {
                    finished_rank: rank,
                    states: st.activity.clone(),
                });
            } else if let Some(dl) = deadlock(&st) {
                st.abort = Some(dl);
            }
        }
        self.cv.notify_all();
    }

    fn enter_collective(
        &self,
        rank: usize,
        comm: usize,
        sig: Signature,
        payload: Option<MpiValue>,
        is_initial_thread: bool,
    ) -> Result<MpiValue, MpiError> {
        self.enter_mpi(rank, is_initial_thread)?;
        let result = self.enter_collective_inner(rank, comm, sig, payload);
        self.leave_mpi(rank);
        result
    }

    fn enter_collective_inner(
        &self,
        rank: usize,
        comm: usize,
        sig: Signature,
        payload: Option<MpiValue>,
    ) -> Result<MpiValue, MpiError> {
        let deadline = Instant::now() + self.cfg.op_timeout;
        let mut st = self.state.lock();
        if let Some(e) = &st.abort {
            return Err(MpiError::Aborted(e.to_string()));
        }
        let Some(c) = st.comms.get(comm) else {
            let err = bad_comm(comm);
            self.abort_locked(&mut st, err.clone());
            return Err(err);
        };
        let Some(local) = c.local_rank(rank) else {
            let err = not_member(rank, comm);
            self.abort_locked(&mut st, err.clone());
            return Err(err);
        };
        let size = c.members.len();
        let seq = st.comms[comm].per_rank_seq[local];
        st.comms[comm].per_rank_seq[local] += 1;
        // Materialize instances up to `seq`.
        while st.comms[comm].base_seq + (st.comms[comm].instances.len() as u64) <= seq {
            st.comms[comm].instances.push_back(Instance::new(size));
        }
        let idx = (seq - st.comms[comm].base_seq) as usize;
        let complete = {
            let inst = &mut st.comms[comm].instances[idx];
            match &inst.signature {
                None => {
                    inst.signature = Some(sig);
                    inst.first_rank = rank;
                }
                Some(existing) if *existing != sig => {
                    let err = MpiError::CollectiveMismatch {
                        comm,
                        seq,
                        expected: *existing,
                        expected_rank: inst.first_rank,
                        got: sig,
                        got_rank: rank,
                    };
                    st.abort = Some(err.clone());
                    self.cv.notify_all();
                    return Err(err);
                }
                Some(_) => {}
            }
            inst.payloads[local] = payload;
            inst.arrived_count += 1;
            inst.arrived_count == size
        };
        if complete {
            // Compute results outside the instance borrow: communicator
            // management collectives allocate new communicators.
            let payloads = st.comms[comm].instances[idx].payloads.clone();
            let results = match sig.op {
                CollectiveOp::CommSplit => split_results(&mut st, comm, &payloads),
                CollectiveOp::CommDup => Ok(dup_results(&mut st, comm)),
                CollectiveOp::P2pCensus => Ok(census_results(&mut st, size)),
                _ => compute_results(sig, &payloads, size),
            };
            match results {
                Ok(results) => {
                    st.comms[comm].instances[idx].results = Some(results);
                    self.cv.notify_all();
                }
                Err(err) => {
                    st.abort = Some(err.clone());
                    self.cv.notify_all();
                    return Err(err);
                }
            }
        }
        let act = RankActivity::InCollective {
            seq,
            what: format!("{sig}{}", comm_suffix(comm)),
        };
        st.activity[rank] = act.clone();
        // Wait for results.
        loop {
            if let Some(e) = &st.abort {
                return Err(MpiError::Aborted(e.to_string()));
            }
            let idx = (seq - st.comms[comm].base_seq) as usize;
            let done = {
                let inst = &mut st.comms[comm].instances[idx];
                if let Some(results) = &inst.results {
                    let out = results[local].clone();
                    inst.collected[local] = true;
                    inst.collected_count += 1;
                    Some(out)
                } else {
                    None
                }
            };
            if let Some(out) = done {
                st.activity[rank] = RankActivity::Running;
                // Drop fully-collected instances from the front.
                let cs = &mut st.comms[comm];
                while let Some(front) = cs.instances.front() {
                    if front.collected_count == cs.members.len() {
                        cs.instances.pop_front();
                        cs.base_seq += 1;
                    } else {
                        break;
                    }
                }
                return Ok(out);
            }
            st.blocked[rank].push(act.clone());
            if let Some(dl) = deadlock(&st) {
                unpark(&mut st, rank, &act);
                st.abort = Some(dl.clone());
                self.cv.notify_all();
                return Err(dl);
            }
            let res = self.cv.wait_until(&mut st, deadline);
            unpark(&mut st, rank, &act);
            if res.timed_out() {
                let err = MpiError::Timeout {
                    what: format!(
                        "{sig}{} on rank {rank} (collective #{seq})",
                        comm_suffix(comm)
                    ),
                    states: st.activity.clone(),
                };
                st.abort = Some(err.clone());
                self.cv.notify_all();
                return Err(err);
            }
        }
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
    /// keeps unrelated communicators out of each other's checks.
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
            Signature::control_cc(),
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
        self.enter_collective(
            rank,
            COMM_WORLD,
            Signature::finalize(),
            None,
            is_initial_thread,
        )
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
            Signature::comm_split(),
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
        let out =
            self.enter_collective(rank, comm, Signature::comm_dup(), None, is_initial_thread)?;
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
        let out = self.enter_collective(
            rank,
            COMM_WORLD,
            Signature::p2p_census(),
            None,
            is_initial_thread,
        )?;
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
        self.enter_mpi(rank, is_initial_thread)?;
        let result = {
            let mut st = self.state.lock();
            deliver(&mut st, rank, comm, dest, tag, value)
        };
        if let Err(e) = &result {
            self.abort(e.clone());
        }
        self.cv.notify_all();
        self.leave_mpi(rank);
        result
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
        self.enter_mpi(rank, is_initial_thread)?;
        let result: Result<usize, MpiError> = (|| {
            let mut st = self.state.lock();
            deliver(&mut st, rank, comm, dest, tag, value)?;
            st.requests.push(Request {
                owner: rank,
                state: RequestState::SendDone,
            });
            Ok(st.requests.len() - 1)
        })();
        if let Err(e) = &result {
            self.abort(e.clone());
        }
        self.cv.notify_all();
        self.leave_mpi(rank);
        result
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
        self.enter_mpi(rank, is_initial_thread)?;
        let result = (|| {
            let (s, t) = decode_recv_key(src, tag)?;
            let mut st = self.state.lock();
            let Some(c) = st.comms.get(comm) else {
                return Err(bad_comm(comm));
            };
            if c.local_rank(rank).is_none() {
                return Err(not_member(rank, comm));
            }
            if let Some(s) = s {
                if s >= c.members.len() {
                    return Err(MpiError::ArgError(format!(
                        "irecv source {s} out of range for communicator size {}",
                        c.members.len()
                    )));
                }
            }
            st.requests.push(Request {
                owner: rank,
                state: RequestState::RecvPending {
                    comm,
                    src: s,
                    tag: t,
                },
            });
            Ok(st.requests.len() - 1)
        })();
        if let Err(e) = &result {
            self.abort(e.clone());
        }
        self.leave_mpi(rank);
        result
    }

    /// `MPI_Wait`: block until `request` completes. Send requests
    /// retire immediately (returning `Int(0)`); receive requests block
    /// until a matching message is buffered, consume it (deterministic
    /// wildcard tie-break: lowest sender rank first, then earliest
    /// arrival) and return its value. Waiting twice on one request, or
    /// on another rank's request, is an argument error.
    pub fn wait(
        &self,
        rank: usize,
        request: usize,
        is_initial_thread: bool,
    ) -> Result<MpiValue, MpiError> {
        self.enter_mpi(rank, is_initial_thread)?;
        let result = self.wait_inner(rank, request);
        self.leave_mpi(rank);
        result
    }

    fn wait_inner(&self, rank: usize, request: usize) -> Result<MpiValue, MpiError> {
        let deadline = Instant::now() + self.cfg.op_timeout;
        let mut st = self.state.lock();
        let req = match st.requests.get(request).cloned() {
            Some(r) => r,
            None => {
                let err = MpiError::ArgError(format!("invalid request handle #{request}"));
                self.abort_locked(&mut st, err.clone());
                return Err(err);
            }
        };
        if req.owner != rank {
            let err = MpiError::ArgError(format!(
                "rank {rank} cannot wait on request #{request} posted by rank {}",
                req.owner
            ));
            self.abort_locked(&mut st, err.clone());
            return Err(err);
        }
        let (comm, src, tag) = match req.state {
            RequestState::SendDone => {
                st.requests[request].state = RequestState::Retired;
                return Ok(MpiValue::Int(0));
            }
            RequestState::Retired => {
                let err = MpiError::ArgError(format!(
                    "request #{request} was already completed by a previous wait"
                ));
                self.abort_locked(&mut st, err.clone());
                return Err(err);
            }
            RequestState::RecvPending { comm, src, tag } => (comm, src, tag),
        };
        loop {
            if let Some(e) = &st.abort {
                return Err(MpiError::Aborted(e.to_string()));
            }
            // Re-read the state every round: under MPI_THREAD_MULTIPLE a
            // sibling thread waiting on the same request may have
            // completed it while we slept — that is a double wait and
            // must error, not steal the next matching message.
            if matches!(st.requests[request].state, RequestState::Retired) {
                let err = MpiError::ArgError(format!(
                    "request #{request} was already completed by a previous wait"
                ));
                self.abort_locked(&mut st, err.clone());
                return Err(err);
            }
            if let Some(pos) = matching_message(&st.mailboxes[rank], comm, src, tag) {
                let msg = st.mailboxes[rank].remove(pos);
                let my_local = st.comms[comm]
                    .local_rank(rank)
                    .expect("membership checked at post time");
                st.comms[comm].p2p_recvd[my_local] += 1;
                st.requests[request].state = RequestState::Retired;
                st.activity[rank] = RankActivity::Running;
                return Ok(msg.value);
            }
            let act = RankActivity::InWait {
                request,
                comm,
                src,
                tag,
            };
            st.activity[rank] = act.clone();
            st.blocked[rank].push(act.clone());
            if let Some(dl) = deadlock(&st) {
                unpark(&mut st, rank, &act);
                st.abort = Some(dl.clone());
                self.cv.notify_all();
                return Err(dl);
            }
            let res = self.cv.wait_until(&mut st, deadline);
            unpark(&mut st, rank, &act);
            if res.timed_out() {
                let err = MpiError::Timeout {
                    what: format!(
                        "MPI_Wait(req #{request}){} on rank {rank}",
                        comm_suffix(comm)
                    ),
                    states: st.activity.clone(),
                };
                st.abort = Some(err.clone());
                self.cv.notify_all();
                return Err(err);
            }
        }
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
        self.enter_mpi(rank, is_initial_thread)?;
        let result = self.recv_inner(rank, comm, src, tag);
        self.leave_mpi(rank);
        result
    }

    fn recv_inner(
        &self,
        rank: usize,
        comm: usize,
        src: i64,
        tag: i64,
    ) -> Result<MpiValue, MpiError> {
        let deadline = Instant::now() + self.cfg.op_timeout;
        let mut st = self.state.lock();
        let (src, tag) = match decode_recv_key(src, tag) {
            Ok(k) => k,
            Err(err) => {
                self.abort_locked(&mut st, err.clone());
                return Err(err);
            }
        };
        let Some(c) = st.comms.get(comm) else {
            let err = bad_comm(comm);
            self.abort_locked(&mut st, err.clone());
            return Err(err);
        };
        let Some(my_local) = c.local_rank(rank) else {
            let err = not_member(rank, comm);
            self.abort_locked(&mut st, err.clone());
            return Err(err);
        };
        if let Some(s) = src {
            if s >= c.members.len() {
                let err = MpiError::ArgError(format!(
                    "recv source {s} out of range for communicator size {}",
                    c.members.len()
                ));
                self.abort_locked(&mut st, err.clone());
                return Err(err);
            }
        }
        loop {
            if let Some(e) = &st.abort {
                return Err(MpiError::Aborted(e.to_string()));
            }
            if let Some(pos) = matching_message(&st.mailboxes[rank], comm, src, tag) {
                let msg = st.mailboxes[rank].remove(pos);
                st.comms[comm].p2p_recvd[my_local] += 1;
                st.activity[rank] = RankActivity::Running;
                return Ok(msg.value);
            }
            let act = RankActivity::InRecv { comm, src, tag };
            st.activity[rank] = act.clone();
            st.blocked[rank].push(act.clone());
            if let Some(dl) = deadlock(&st) {
                unpark(&mut st, rank, &act);
                st.abort = Some(dl.clone());
                self.cv.notify_all();
                return Err(dl);
            }
            let res = self.cv.wait_until(&mut st, deadline);
            unpark(&mut st, rank, &act);
            if res.timed_out() {
                let err = MpiError::Timeout {
                    what: format!(
                        "MPI_Recv(src={}, tag={}{}) on rank {rank}",
                        value_or_any(src),
                        value_or_any(tag),
                        comm_suffix(comm)
                    ),
                    states: st.activity.clone(),
                };
                st.abort = Some(err.clone());
                self.cv.notify_all();
                return Err(err);
            }
        }
    }

    fn abort_locked(&self, st: &mut WorldState, err: MpiError) {
        if st.abort.is_none() {
            st.abort = Some(err);
        }
        self.cv.notify_all();
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
}

/// Deliver one buffered message — the shared core of the blocking and
/// non-blocking sends: validates the destination and tag, bumps the
/// sender's per-communicator counter and appends to the destination's
/// mailbox.
fn deliver(
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
    let Some(c) = st.comms.get(comm) else {
        return Err(bad_comm(comm));
    };
    let Some(src_local) = c.local_rank(rank) else {
        return Err(not_member(rank, comm));
    };
    if dest >= c.members.len() {
        return Err(MpiError::ArgError(format!(
            "send destination {dest} out of range for communicator size {}",
            c.members.len()
        )));
    }
    let global_dest = c.members[dest];
    st.comms[comm].p2p_sent[src_local] += 1;
    st.mailboxes[global_dest].push(Message {
        comm,
        src: src_local,
        tag,
        value,
    });
    Ok(())
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

/// Remove one parked-pattern record for `rank` equal to `act` (the
/// entry this thread pushed before waiting; equal records from sibling
/// threads are interchangeable, so removing any one keeps the multiset
/// right).
fn unpark(st: &mut WorldState, rank: usize, act: &RankActivity) {
    if let Some(i) = st.blocked[rank].iter().rposition(|a| a == act) {
        st.blocked[rank].swap_remove(i);
    }
}

/// Evaluate the liveness census over the world state.
fn deadlock(st: &WorldState) -> Option<MpiError> {
    let input = CensusInput {
        provided: st.provided,
        activity: &st.activity,
        live: &st.live,
        blocked: &st.blocked,
        any_uncollected: st
            .comms
            .iter()
            .flat_map(|c| c.instances.iter())
            .any(|i| i.results.is_some()),
    };
    deadlock_census(
        &input,
        &|rank, comm, src, tag| matching_message(&st.mailboxes[rank], comm, src, tag).is_some(),
        &|comm, local| {
            st.comms
                .get(comm)
                .and_then(|c| c.members.get(local).copied())
        },
    )
}

fn bad_comm(comm: usize) -> MpiError {
    MpiError::ArgError(format!("invalid communicator handle #{comm}"))
}

fn not_member(rank: usize, comm: usize) -> MpiError {
    MpiError::ArgError(format!(
        "rank {rank} is not a member of communicator #{comm}"
    ))
}

/// Render an optional receive-key field as its value or `ANY`.
fn value_or_any(v: Option<impl std::fmt::Display>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "ANY".into())
}

/// Suffix for activity/error strings; empty for the world.
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
            let mut out = Vec::with_capacity(size);
            for r in 0..size {
                match payloads[0] {
                    MpiValue::ArrayInt(_) => {
                        let mut row = Vec::with_capacity(size);
                        for p in &payloads {
                            match p {
                                MpiValue::ArrayInt(a) if a.len() >= size => row.push(a[r]),
                                MpiValue::ArrayInt(a) => {
                                    return Err(short_array(&sig, a.len(), size))
                                }
                                _ => unreachable!("type-matched by signature"),
                            }
                        }
                        out.push(MpiValue::ArrayInt(row));
                    }
                    MpiValue::ArrayFloat(_) => {
                        let mut row = Vec::with_capacity(size);
                        for p in &payloads {
                            match p {
                                MpiValue::ArrayFloat(a) if a.len() >= size => row.push(a[r]),
                                MpiValue::ArrayFloat(a) => {
                                    return Err(short_array(&sig, a.len(), size))
                                }
                                _ => unreachable!("type-matched by signature"),
                            }
                        }
                        out.push(MpiValue::ArrayFloat(row));
                    }
                    _ => return Err(MpiError::ArgError("alltoall needs arrays".into())),
                }
            }
            out
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

fn scatter_elems(src: &MpiValue, size: usize, sig: &Signature) -> Result<Vec<MpiValue>, MpiError> {
    match src {
        MpiValue::ArrayInt(a) => {
            if a.len() < size {
                return Err(short_array(sig, a.len(), size));
            }
            Ok(a.iter().take(size).map(|&x| MpiValue::Int(x)).collect())
        }
        MpiValue::ArrayFloat(a) => {
            if a.len() < size {
                return Err(short_array(sig, a.len(), size));
            }
            Ok(a.iter().take(size).map(|&x| MpiValue::Float(x)).collect())
        }
        _ => Err(MpiError::ArgError(format!("{sig} needs an array payload"))),
    }
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
/// assumes.
pub fn run_ranks<R, F>(world: &Arc<World>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    parcoach_pool::thread_cache().run_map(world.size(), f)
}

/// Convenience: the signature of a data collective from IR-level facts.
pub fn data_signature(
    kind: parcoach_front::ast::CollectiveKind,
    reduce_op: Option<ReduceOp>,
    root: Option<usize>,
    ty: Option<MpiType>,
) -> Signature {
    Signature::collective(kind.into(), reduce_op, root, ty)
}
