//! The hybrid executor: runs lowered MiniHPC modules over the `ompsim`
//! fork/join substrate and the `mpisim` MPI world, executing PARCOACH
//! dynamic checks in-line ("Static Instrumentation for Execution-Time
//! Verification", paper §3).
//!
//! Each MPI rank is an OS thread (rank 0 the caller's) and `parallel`
//! regions fork real teams whose member 0 is the encountering thread:
//! the simulated program's threads are the only threads. Each carries
//! its own `ThreadState` — step lease, frame pool, counters — so
//! interpretation between two synchronisations shares nothing.
//! Scalars follow OpenMP sharing rules (registers defined outside a
//! parallel region and used inside become shared cells; everything else
//! is thread-private); arrays are reference types.

use crate::error::{RunError, RunErrorKind, RunReport, RunStats};
use crate::value::Value;
use parcoach_front::ast::{BinOp, CollectiveKind, Intrinsic, ThreadLevel, Type, UnOp};
use parcoach_front::span::Span;
use parcoach_ir::func::{FuncIr, Module};
use parcoach_ir::instr::{BlockKind, CheckOp, Directive, Instr, MpiIr, Terminator};
use parcoach_ir::types::{BlockId, Const, Reg, RegionId, Value as IrValue};
use parcoach_mpisim::{MpiConfig, MpiError, Signature, World};
use parcoach_ompsim::{ForkError, OmpConfig, OmpSim, ThreadCtx};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Execution configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of MPI ranks.
    pub ranks: usize,
    /// Default team size for `parallel` without `num_threads`.
    pub default_threads: usize,
    /// Thread-barrier divergence timeout.
    pub barrier_timeout: Duration,
    /// MPI blocking-operation timeout.
    pub mpi_timeout: Duration,
    /// Global instruction budget (infinite-loop guard).
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_call_depth: usize,
    /// Highest thread level the simulated MPI grants.
    pub max_provided: ThreadLevel,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            ranks: 2,
            default_threads: 4,
            barrier_timeout: Duration::from_secs(2),
            mpi_timeout: Duration::from_secs(5),
            max_steps: 200_000_000,
            max_call_depth: 128,
            max_provided: ThreadLevel::Multiple,
        }
    }
}

impl RunConfig {
    /// A configuration with short timeouts, for tests that provoke
    /// deadlocks.
    pub fn fast_fail(ranks: usize, threads: usize) -> RunConfig {
        RunConfig {
            ranks,
            default_threads: threads,
            barrier_timeout: Duration::from_millis(300),
            mpi_timeout: Duration::from_millis(600),
            ..RunConfig::default()
        }
    }
}

/// A register slot: private value or team-shared cell.
#[derive(Debug, Clone)]
enum Slot {
    Owned(Value),
    Shared(Arc<RwLock<Value>>),
}

type Frame = Vec<Slot>;

/// Precomputed facts about one `parallel` region.
struct RegionPlan {
    body_entry: BlockId,
    /// The implicit barrier lowering puts at the end of the body. A
    /// member that reaches it runs the checks attached to it and leaves
    /// the body: the join that follows is the one synchronisation the
    /// region's end needs.
    end_barrier: BlockId,
    end_block: BlockId,
    /// Registers defined outside the region but used inside: shared.
    shared_regs: Vec<Reg>,
}

/// Dense ids for the instrumentation's check sites, computed once per
/// executor. Concurrency site ids are already dense (the analysis
/// renumbers them 0..n across functions); monothread-assert sites are
/// interned here from their spans. Both let the per-rank counters be
/// flat vectors indexed by site instead of hash maps behind one lock.
struct SiteTable {
    /// One slot per `ConcEnter`/`ConcExit` site id.
    conc_sites: usize,
    /// Interned `AssertMonothread` sites: `span.lo` → dense index.
    mono_sites: HashMap<u32, u32>,
}

impl SiteTable {
    fn build(module: &Module) -> SiteTable {
        let mut conc_sites = 0usize;
        let mut mono_sites = HashMap::new();
        for f in &module.funcs {
            for (_, b) in f.iter_blocks() {
                for i in &b.instrs {
                    match i {
                        Instr::Check(CheckOp::ConcEnter { site, .. })
                        | Instr::Check(CheckOp::ConcExit { site }) => {
                            conc_sites = conc_sites.max(*site as usize + 1);
                        }
                        Instr::Check(CheckOp::AssertMonothread { span, .. }) => {
                            let next = mono_sites.len() as u32;
                            mono_sites.entry(span.lo).or_insert(next);
                        }
                        _ => {}
                    }
                }
            }
        }
        SiteTable {
            conc_sites,
            mono_sites,
        }
    }
}

/// Per-rank runtime environment.
struct RankEnv {
    world: Arc<World>,
    omp: OmpSim,
    rank: usize,
    output: Arc<Mutex<Vec<String>>>,
    /// Steps of `RunConfig::max_steps` no thread has leased yet — one
    /// counter for all ranks, touched once per [`STEP_LEASE`] steps.
    budget: Arc<AtomicU64>,
    /// Concurrency counters per static site (paper's `S_cc` check):
    /// live occupancy, catching regions that truly overlap in time.
    /// Occupancy is inherently cross-thread (thread A's enter must be
    /// visible to thread B's check), so the counters cannot be
    /// thread-private — but they are dense and lock-free: one atomic
    /// per interned site.
    conc: Vec<AtomicI64>,
    /// Executions per (site, team instance, barrier epoch). The paper
    /// resets `S_cc` at synchronization points: a suspect region running
    /// *twice between barriers* of one team is an ordering error even
    /// when the schedule happens to serialize the two executions — this
    /// keeps detection deterministic on any scheduler. Keying by each
    /// member's own barrier count (equal across the team after every
    /// barrier) makes the epoch roll-over race-free: nothing is ever
    /// reset, a new epoch simply uses fresh keys. Stale epochs are
    /// pruned lazily at barriers. Sharded per site: members of one team
    /// only contend when they hit the *same* suspect region, and each
    /// shard holds the handful of live (team, epoch) entries.
    conc_seen: Vec<Mutex<Vec<(u64, u64, u32)>>>,
    /// First executing thread per (assert site, team instance): a second
    /// *distinct* thread reaching the same site in the same team
    /// encounter proves the context is not monothreaded. Sharded per
    /// interned assert site, like `conc_seen`.
    mono: Vec<Mutex<Vec<(u64, usize)>>>,
}

/// Steps a thread leases from the shared budget at a time: large enough
/// that interpretation touches the shared counter once in a thousand
/// steps, small enough that what the other live threads hold unexecuted
/// when one of them finds the budget empty — at most
/// `(live threads - 1) × STEP_LEASE` steps — is noise against any
/// `max_steps` worth configuring.
const STEP_LEASE: u64 = 1024;

/// What one simulated thread owns while it runs, threaded beside its
/// `ThreadCtx`. Nothing in here is shared, so a step, a call and a
/// counter cost no other thread a cache line.
#[derive(Default)]
struct ThreadState {
    /// Steps leased from `RankEnv::budget` and not executed yet.
    lease: u64,
    /// Retired call frames, reused by later calls (and member frame
    /// copies) so steady-state interpretation allocates no frame
    /// vectors.
    frames: Vec<Frame>,
    /// What this thread did, plus every member it has joined. `steps`
    /// counts a lease in full when it is taken; `return_lease` takes the
    /// unexecuted rest out again.
    stats: RunStats,
}

impl ThreadState {
    /// The state of a simulated thread handed to an OS thread of its
    /// own (every rank but 0, every team member but 0).
    fn dispatched() -> ThreadState {
        ThreadState {
            stats: RunStats {
                os_threads: 1,
                ..RunStats::default()
            },
            ..ThreadState::default()
        }
    }

    /// Account one step; `StepLimit` (at `span()`) when the run's budget
    /// is spent.
    #[inline]
    fn step(&mut self, env: &RankEnv, span: impl FnOnce() -> Span) -> Result<(), RunError> {
        if self.lease == 0 {
            // `Relaxed`: the counter publishes nothing but itself.
            let mut got = 0;
            let _ = env
                .budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                    got = left.min(STEP_LEASE);
                    (got > 0).then(|| left - got)
                });
            if got == 0 {
                return Err(RunError::new(RunErrorKind::StepLimit, span(), env.rank));
            }
            self.lease = got;
            self.stats.steps += got;
        }
        self.lease -= 1;
        Ok(())
    }

    /// Hand the unexecuted rest of the lease back. Every thread does so
    /// when it leaves its region or rank body, so a thread waiting at a
    /// join holds no steps another thread could still need.
    fn return_lease(&mut self, env: &RankEnv) {
        if self.lease > 0 {
            env.budget.fetch_add(self.lease, Ordering::Relaxed);
            self.stats.steps -= self.lease;
            self.lease = 0;
        }
    }

    /// A cleared frame buffer from the pool (or a fresh one).
    fn take_frame(&mut self) -> Frame {
        self.frames.pop().unwrap_or_default()
    }

    /// Return a frame's allocation to the pool.
    fn put_frame(&mut self, mut f: Frame) {
        f.clear();
        if self.frames.len() < 64 {
            self.frames.push(f);
        }
    }
}

/// Control flow of a block walk.
enum Flow {
    Return(Option<Value>),
    Stopped,
}

/// The executor: owns the module and per-region plans.
pub struct Executor {
    module: Module,
    cfg: RunConfig,
    plans: HashMap<(usize, u32), RegionPlan>,
    sites: SiteTable,
}

impl Executor {
    /// Build an executor (precomputes parallel-region plans and the
    /// dense check-site table).
    pub fn new(module: Module, cfg: RunConfig) -> Executor {
        let mut plans = HashMap::new();
        for (fidx, f) in module.funcs.iter().enumerate() {
            for (bid, b) in f.iter_blocks() {
                if let Some(Directive::ParallelBegin { region, .. }) = b.directive() {
                    plans.insert((fidx, region.0), region_plan(f, bid, *region));
                }
            }
        }
        let sites = SiteTable::build(&module);
        Executor {
            module,
            cfg,
            plans,
            sites,
        }
    }

    /// The underlying module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Run the program with `cfg.ranks` MPI ranks. Never panics on
    /// verification errors — they come back classified in the report.
    pub fn run(&self) -> RunReport {
        let world = World::new(MpiConfig {
            world_size: self.cfg.ranks,
            max_provided: self.cfg.max_provided,
            op_timeout: self.cfg.mpi_timeout,
        });
        let output: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let budget = Arc::new(AtomicU64::new(self.cfg.max_steps));
        let stats = Mutex::new(RunStats::default());
        let errors: Vec<Mutex<Option<RunError>>> =
            (0..self.cfg.ranks).map(|_| Mutex::new(None)).collect();
        let run_rank = |rank: usize| {
            let env = RankEnv {
                world: world.clone(),
                omp: OmpSim::new(OmpConfig {
                    default_num_threads: self.cfg.default_threads,
                    barrier_timeout: self.cfg.barrier_timeout,
                    max_levels: 8,
                }),
                rank,
                output: output.clone(),
                budget: budget.clone(),
                conc: (0..self.sites.conc_sites)
                    .map(|_| AtomicI64::new(0))
                    .collect(),
                conc_seen: (0..self.sites.conc_sites)
                    .map(|_| Mutex::new(Vec::new()))
                    .collect(),
                mono: (0..self.sites.mono_sites.len())
                    .map(|_| Mutex::new(Vec::new()))
                    .collect(),
            };
            let mut ctx = ThreadCtx::initial();
            // Rank 0 runs on `run`'s caller.
            let mut ts = match rank {
                0 => ThreadState::default(),
                _ => ThreadState::dispatched(),
            };
            world.thread_started(rank);
            let res = self.exec_function(&env, &mut ctx, &mut ts, true, "main", Vec::new(), 0);
            world.finish_rank(rank);
            ts.return_lease(&env);
            stats.lock().add(&ts.stats);
            if let Err(e) = res {
                // Make sure peers blocked in MPI wake up.
                if world.abort_reason().is_none() {
                    world.abort(MpiError::Aborted(e.to_string()));
                }
                *errors[rank].lock() = Some(e);
            }
        };
        parcoach_pool::thread_cache().run_set(self.cfg.ranks, run_rank);
        // Prefer root-cause errors over secondary echoes (aborted MPI
        // calls, poisoned barriers on sibling ranks).
        let mut errs: Vec<RunError> = errors.into_iter().filter_map(|m| m.into_inner()).collect();
        let has_root = errs.iter().any(|e| !is_secondary_error(e));
        if has_root {
            errs.retain(|e| !is_secondary_error(e));
        }
        RunReport {
            errors: errs,
            output: Arc::try_unwrap(output)
                .map(|m| m.into_inner())
                .unwrap_or_default(),
            stats: stats.into_inner(),
        }
    }

    // ---- function & block execution ------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn exec_function(
        &self,
        env: &RankEnv,
        omp: &mut ThreadCtx,
        ts: &mut ThreadState,
        is_initial: bool,
        name: &str,
        args: Vec<Value>,
        depth: usize,
    ) -> Result<Option<Value>, RunError> {
        if depth > self.cfg.max_call_depth {
            return Err(RunError::new(
                RunErrorKind::StackOverflow,
                Span::DUMMY,
                env.rank,
            ));
        }
        let (fidx, func) = match self.module.by_name.get(name) {
            Some(&i) => (i, &self.module.funcs[i]),
            None => {
                return Err(RunError::new(
                    RunErrorKind::MissingReturn { func: name.into() },
                    Span::DUMMY,
                    env.rank,
                ))
            }
        };
        let mut frame: Frame = ts.take_frame();
        frame.extend(
            func.reg_types
                .iter()
                .map(|&t| Slot::Owned(Value::default_for(t))),
        );
        for (param, arg) in func.params.iter().zip(args) {
            frame[param.index()] = Slot::Owned(arg);
        }
        let flow = self.exec_from(
            env, omp, ts, is_initial, &mut frame, fidx, func, func.entry, None, depth,
        );
        ts.put_frame(frame);
        match flow? {
            Flow::Return(v) => {
                if func.ret != Type::Void && v.is_none() {
                    return Err(RunError::new(
                        RunErrorKind::MissingReturn {
                            func: name.to_string(),
                        },
                        func.span,
                        env.rank,
                    ));
                }
                Ok(v)
            }
            Flow::Stopped => unreachable!("stop block only used inside parallel regions"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_from(
        &self,
        env: &RankEnv,
        omp: &mut ThreadCtx,
        ts: &mut ThreadState,
        is_initial: bool,
        frame: &mut Frame,
        fidx: usize,
        func: &FuncIr,
        start: BlockId,
        stop: Option<BlockId>,
        depth: usize,
    ) -> Result<Flow, RunError> {
        let mut cur = start;
        let mut critical_guards: Vec<parking_lot::ReentrantMutexGuard<'_, ()>> = Vec::new();
        loop {
            ts.step(env, || Span::DUMMY)?;
            let block = func.block(cur);
            if stop == Some(cur) {
                // The region's end barrier: nothing to wait for here,
                // the join synchronises the team.
                self.exec_checks_only(env, omp, is_initial, frame, block, block.span)?;
                return Ok(Flow::Stopped);
            }

            // Directive semantics first.
            if let BlockKind::Directive(d) = &block.kind {
                match d {
                    Directive::ParallelBegin { .. } => {
                        cur = self.exec_parallel(
                            env, omp, ts, is_initial, frame, fidx, func, block, depth,
                        )?;
                        continue;
                    }
                    Directive::SingleBegin { region, chosen, .. } => {
                        self.exec_checks_only(env, omp, is_initial, frame, block, block.span)?;
                        let mine = omp.enter_single(region.0);
                        self.write(frame, *chosen, Value::Bool(mine));
                    }
                    Directive::MasterBegin { chosen, .. } => {
                        self.exec_checks_only(env, omp, is_initial, frame, block, block.span)?;
                        self.write(frame, *chosen, Value::Bool(omp.is_master()));
                    }
                    Directive::SectionBegin {
                        parent,
                        index,
                        chosen,
                        ..
                    } => {
                        self.exec_checks_only(env, omp, is_initial, frame, block, block.span)?;
                        let mine = omp.enter_section(parent.0, *index);
                        self.write(frame, *chosen, Value::Bool(mine));
                    }
                    Directive::CriticalBegin { .. } => {
                        critical_guards.push(env.omp.critical());
                    }
                    Directive::CriticalEnd { .. } => {
                        critical_guards.pop();
                    }
                    Directive::Barrier { span, .. } => {
                        self.exec_checks_only(env, omp, is_initial, frame, block, *span)?;
                        ts.stats.barrier_waits += omp.team.is_some() as u64;
                        omp.barrier(env.omp.barrier_timeout()).map_err(|e| {
                            RunError::new(
                                RunErrorKind::ThreadBarrier(e.to_string()),
                                *span,
                                env.rank,
                            )
                        })?;
                        // Prune concurrency-site counts of epochs this
                        // team has left behind. Every member has passed
                        // the barrier, so entries of older epochs can
                        // never be incremented again — removing them
                        // cannot race with a fast member already
                        // counting in the *new* epoch (fresh keys).
                        let instance = omp.team_instance();
                        let epoch = omp.barriers_passed();
                        for shard in &env.conc_seen {
                            shard
                                .lock()
                                .retain(|(team, e, _)| *team != instance || *e >= epoch);
                        }
                    }
                    Directive::PForInit {
                        var,
                        chunk_end,
                        lo,
                        hi,
                        ..
                    } => {
                        let lo = self.read(frame, *lo).as_int();
                        let hi = self.read(frame, *hi).as_int();
                        let (s, e) = omp.static_chunk(lo, hi);
                        self.write(frame, *var, Value::Int(s));
                        self.write(frame, *chunk_end, Value::Int(e));
                    }
                    // Pure markers at run time (checks may still be
                    // attached to them).
                    Directive::ParallelEnd { .. }
                    | Directive::SingleEnd { .. }
                    | Directive::MasterEnd { .. }
                    | Directive::SectionEnd { .. }
                    | Directive::WorkshareBegin { .. }
                    | Directive::WorkshareEnd { .. } => {
                        self.exec_checks_only(env, omp, is_initial, frame, block, block.span)?;
                    }
                }
            } else {
                // Normal block: run all instructions.
                let mut pending_mono: Option<u32> = None;
                for i in &block.instrs {
                    ts.step(env, || i.span().unwrap_or(Span::DUMMY))?;
                    self.exec_instr(env, omp, ts, is_initial, frame, i, depth, &mut pending_mono)?;
                }
            }

            // Terminator.
            match &block.term {
                Terminator::Goto(t) => cur = *t,
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                    ..
                } => {
                    cur = if self.read(frame, *cond).as_bool() {
                        *then_bb
                    } else {
                        *else_bb
                    };
                }
                Terminator::Return { value, span } => {
                    // Return-site CC checks were already executed as
                    // instructions (they sit at the end of the block).
                    let v = value.map(|v| self.read(frame, v));
                    let _ = span;
                    return Ok(Flow::Return(v));
                }
                Terminator::Unreachable => {
                    return Err(RunError::new(
                        RunErrorKind::MissingReturn {
                            func: func.name.clone(),
                        },
                        block.span,
                        env.rank,
                    ))
                }
            }
        }
    }

    /// `parallel`: fork a team on the region's body, go on as its member
    /// 0 and, when the team has joined, return the block the encountering
    /// thread continues at. (A function of its own so that the block
    /// walk, which recursion through calls stacks up, does not carry
    /// this one's locals in its frame.)
    #[allow(clippy::too_many_arguments)]
    fn exec_parallel(
        &self,
        env: &RankEnv,
        omp: &mut ThreadCtx,
        ts: &mut ThreadState,
        is_initial: bool,
        frame: &mut Frame,
        fidx: usize,
        func: &FuncIr,
        block: &parcoach_ir::func::BasicBlock,
        depth: usize,
    ) -> Result<BlockId, RunError> {
        let Some(Directive::ParallelBegin {
            region,
            num_threads,
            span,
        }) = block.directive()
        else {
            unreachable!("called on a parallel.begin block");
        };
        // Run pre-directive checks (instrumentation may guard directive
        // nodes).
        self.exec_checks_only(env, omp, is_initial, frame, block, *span)?;
        let nt = num_threads.map(|v| self.read(frame, v).as_int().max(1) as usize);
        let plan = &self.plans[&(fidx, region.0)];
        // Promote shared registers.
        for &r in &plan.shared_regs {
            if let Slot::Owned(v) = &frame[r.index()] {
                frame[r.index()] = Slot::Shared(Arc::new(RwLock::new(v.clone())));
            }
        }
        let parent_frame: &Frame = frame;
        // The first *root-cause* error across the team; sibling threads
        // that then fail on poisoned barriers / aborted MPI must not
        // mask it.
        let root_err: Mutex<Option<RunError>> = Mutex::new(None);
        // Team instance id, exported by the members so the parent can
        // retire its counters after join.
        let team_id = AtomicU64::new(0);
        // This thread goes on as member 0 and stays MPI-live as such;
        // members 1.. register *before* the fork: a member the scheduler
        // has not started yet must already count as live-and-unblocked,
        // or a census running in the gap could prove a "deadlock" the
        // late starter was about to break. Every member, 0 included,
        // departs when it leaves the body, so while this thread waits at
        // the join the census counts exactly the threads that can still
        // issue MPI calls for this rank.
        let team_size = nt.unwrap_or(self.cfg.default_threads).max(1);
        for _ in 1..team_size {
            env.world.thread_started(env.rank);
        }
        ts.stats.forks += 1;
        // Member 0 runs on this thread and carries its state on; what
        // members 1.. counted comes back through `joined`.
        let own_state = Mutex::new(Some(&mut *ts));
        let joined = Mutex::new(RunStats::default());
        let fork_res = env.omp.fork::<RunError, _>(omp, nt, &|child| {
            team_id.store(child.team_instance(), Ordering::Relaxed);
            let member_0 = child.thread_num() == 0;
            let mut dispatched;
            let ts: &mut ThreadState = if member_0 {
                own_state.lock().take().expect("member 0 runs once")
            } else {
                dispatched = ThreadState::dispatched();
                &mut dispatched
            };
            let mut child_frame = ts.take_frame();
            child_frame.extend(parent_frame.iter().cloned());
            let res = self.exec_from(
                env,
                child,
                ts,
                is_initial && member_0,
                &mut child_frame,
                fidx,
                func,
                plan.body_entry,
                Some(plan.end_barrier),
                depth,
            );
            ts.put_frame(child_frame);
            ts.return_lease(env);
            if !member_0 {
                joined.lock().add(&ts.stats);
            }
            let out = match res {
                Ok(_) => Ok(()),
                Err(e) => {
                    if !is_secondary_error(&e) {
                        let mut root = root_err.lock();
                        if root.is_none() {
                            *root = Some(e.clone());
                        }
                    }
                    // Wake siblings + remote ranks.
                    if let Some(team) = &child.team {
                        OmpSim::poison_team(team);
                    }
                    if env.world.abort_reason().is_none() {
                        env.world.abort(MpiError::Aborted(e.to_string()));
                    }
                    Err(e)
                }
            };
            env.world.thread_departed(env.rank);
            out
        });
        ts.stats.add(&joined.into_inner());
        env.world.thread_started(env.rank);
        // The team is retired: drop its concurrency-site epoch counts
        // and monothread first-executor records (both are keyed by the
        // globally-unique team instance and would otherwise grow by one
        // entry per site per region executed over the rank's lifetime).
        let retired = team_id.load(Ordering::Relaxed);
        if retired != 0 {
            for shard in &env.conc_seen {
                shard.lock().retain(|(team, _, _)| *team != retired);
            }
            for shard in &env.mono {
                shard.lock().retain(|(team, _)| *team != retired);
            }
        }
        match fork_res {
            Ok(()) => Ok(plan.end_block),
            Err(ForkError::Body(e)) => Err(root_err.lock().take().unwrap_or(e)),
            Err(ForkError::Omp(e)) => {
                // The fork was refused before any member ran: unwind
                // their liveness pre-registration.
                for _ in 0..team_size {
                    env.world.thread_departed(env.rank);
                }
                Err(RunError::new(
                    RunErrorKind::Omp(e.to_string()),
                    *span,
                    env.rank,
                ))
            }
        }
    }

    /// Run only the `Check` instructions of a directive block.
    fn exec_checks_only(
        &self,
        env: &RankEnv,
        omp: &mut ThreadCtx,
        is_initial: bool,
        frame: &mut Frame,
        block: &parcoach_ir::func::BasicBlock,
        _span: Span,
    ) -> Result<(), RunError> {
        let mut pending = None;
        for i in &block.instrs {
            if let Instr::Check(check) = i {
                self.exec_check(env, omp, is_initial, frame, check, &mut pending)?;
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_instr(
        &self,
        env: &RankEnv,
        omp: &mut ThreadCtx,
        ts: &mut ThreadState,
        is_initial: bool,
        frame: &mut Frame,
        instr: &Instr,
        depth: usize,
        pending_mono: &mut Option<u32>,
    ) -> Result<(), RunError> {
        match instr {
            Instr::Copy { dest, src } => {
                let v = self.read(frame, *src);
                self.write(frame, *dest, v);
            }
            Instr::Unary { dest, op, src } => {
                let v = self.read(frame, *src);
                let out = match (op, v) {
                    (UnOp::Neg, Value::Int(x)) => Value::Int(x.wrapping_neg()),
                    (UnOp::Neg, Value::Float(x)) => Value::Float(-x),
                    (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
                    (op, v) => panic!("type-checked unary {op:?} on {v:?}"),
                };
                self.write(frame, *dest, out);
            }
            Instr::Binary {
                dest,
                op,
                lhs,
                rhs,
                span,
            } => {
                let l = self.read(frame, *lhs);
                let r = self.read(frame, *rhs);
                let out = self.binary(env, *op, l, r, *span)?;
                self.write(frame, *dest, out);
            }
            Instr::ArrayNew {
                dest,
                len,
                init,
                elem,
                span,
            } => {
                let n = self.read(frame, *len).as_int();
                if n < 0 {
                    return Err(RunError::new(
                        RunErrorKind::BadArrayLength(n),
                        *span,
                        env.rank,
                    ));
                }
                let out = match elem {
                    Type::Int => {
                        Value::ArrayInt(Arc::new(RwLock::new(vec![
                            self.read(frame, *init).as_int();
                            n as usize
                        ])))
                    }
                    Type::Float => {
                        Value::ArrayFloat(Arc::new(RwLock::new(vec![
                            self.read(frame, *init)
                                .as_float();
                            n as usize
                        ])))
                    }
                    _ => panic!("sema guaranteed numeric array element"),
                };
                self.write(frame, *dest, out);
            }
            Instr::Load {
                dest,
                arr,
                idx,
                span,
            } => {
                let i = self.read(frame, *idx).as_int();
                let out = with_reg(frame, *arr, |arr| match arr {
                    Value::ArrayInt(a) => {
                        let a = a.read();
                        check_bounds(i, a.len(), *span, env.rank)?;
                        Ok(Value::Int(a[i as usize]))
                    }
                    Value::ArrayFloat(a) => {
                        let a = a.read();
                        check_bounds(i, a.len(), *span, env.rank)?;
                        Ok(Value::Float(a[i as usize]))
                    }
                    other => panic!("type-checked load from {other:?}"),
                })?;
                self.write(frame, *dest, out);
            }
            Instr::Store {
                arr,
                idx,
                value,
                span,
            } => {
                let i = self.read(frame, *idx).as_int();
                let v = self.read(frame, *value);
                with_reg(frame, *arr, |arr| match arr {
                    Value::ArrayInt(a) => {
                        let mut a = a.write();
                        check_bounds(i, a.len(), *span, env.rank)?;
                        a[i as usize] = v.as_int();
                        Ok(())
                    }
                    Value::ArrayFloat(a) => {
                        let mut a = a.write();
                        check_bounds(i, a.len(), *span, env.rank)?;
                        a[i as usize] = v.as_float();
                        Ok(())
                    }
                    other => panic!("type-checked store to {other:?}"),
                })?;
            }
            Instr::Intrinsic { dest, intr, args } => {
                let out = self.intrinsic(env, omp, frame, *intr, args);
                self.write(frame, *dest, out);
            }
            Instr::Call {
                dest,
                func: callee,
                args,
                ..
            } => {
                let argv: Vec<Value> = args.iter().map(|a| self.read(frame, *a)).collect();
                let ret = self.exec_function(env, omp, ts, is_initial, callee, argv, depth + 1)?;
                if let (Some(d), Some(v)) = (dest, ret) {
                    self.write(frame, *d, v);
                }
            }
            Instr::Mpi { dest, op, span } => {
                ts.stats.mpi_calls += 1;
                let out = self.exec_mpi(env, omp, is_initial, frame, op, *span)?;
                if let (Some(d), Some(v)) = (dest, out) {
                    self.write(frame, *d, v);
                }
            }
            Instr::Print { args } => {
                // One pass, one allocation: render straight into the
                // output line instead of one `String` per argument plus
                // a join.
                use std::fmt::Write as _;
                let mut line = String::new();
                let _ = write!(line, "[rank {}] ", env.rank);
                for (k, a) in args.iter().enumerate() {
                    if k > 0 {
                        line.push(' ');
                    }
                    let _ = write!(line, "{}", self.read(frame, *a));
                }
                env.output.lock().push(line);
            }
            Instr::Check(check) => {
                self.exec_check(env, omp, is_initial, frame, check, pending_mono)?;
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_check(
        &self,
        env: &RankEnv,
        omp: &mut ThreadCtx,
        is_initial: bool,
        frame: &mut Frame,
        check: &CheckOp,
        pending_mono: &mut Option<u32>,
    ) -> Result<(), RunError> {
        match check {
            CheckOp::CollectiveCc {
                color, comm, span, ..
            } => {
                // The CC runs on the guarded collective's communicator.
                let handle = comm.map(|v| self.read(frame, v).as_comm()).unwrap_or(0);
                self.run_cc(env, omp, is_initial, handle, *color, *span)
            }
            CheckOp::ReturnCc { span } => {
                // Wrapped in `single` semantics when inside a team (paper
                // §3: "this function is wrapped into a single pragma").
                if omp.in_parallel() {
                    let synth_region = 0x8000_0000u32 | (span.lo & 0x7fff_ffff);
                    if !omp.enter_single(synth_region) {
                        return Ok(());
                    }
                }
                self.run_cc(env, omp, is_initial, 0, 0, *span)
            }
            CheckOp::AssertMonothread { what, span } => {
                // Deterministic: within one team encounter, two *distinct*
                // threads reaching the same collective site prove the
                // context is multithreaded, regardless of interleaving.
                let site = self.sites.mono_sites[&span.lo] as usize;
                let team = omp.team_instance();
                let me = omp.thread_num();
                let first = {
                    let mut mono = env.mono[site].lock();
                    match mono.iter().find(|(t, _)| *t == team) {
                        Some(&(_, f)) => f,
                        None => {
                            mono.push((team, me));
                            me
                        }
                    }
                };
                if first != me {
                    let err =
                        RunError::new(RunErrorKind::MonothreadViolation { what }, *span, env.rank);
                    self.abort_everyone(env, omp, &err);
                    return Err(err);
                }
                let _ = pending_mono;
                Ok(())
            }
            CheckOp::ConcEnter { site, span } => {
                let overlapping = env.conc[*site as usize].fetch_add(1, Ordering::SeqCst) + 1 >= 2;
                // Second execution of a suspect site within one barrier
                // epoch of a team: an ordering error even if the two
                // executions happen not to overlap on this particular
                // schedule. Outside any team, executions are fully
                // ordered by program order and must not count — a
                // suspect function re-called sequentially would
                // otherwise accumulate counts for the rank's lifetime.
                let reexecuted = omp.team.is_some() && {
                    let team = omp.team_instance();
                    let epoch = omp.barriers_passed();
                    let mut seen = env.conc_seen[*site as usize].lock();
                    match seen.iter_mut().find(|(t, e, _)| *t == team && *e == epoch) {
                        Some(entry) => {
                            entry.2 += 1;
                            entry.2 >= 2
                        }
                        None => {
                            seen.push((team, epoch, 1));
                            false
                        }
                    }
                };
                if overlapping || reexecuted {
                    let err = RunError::new(
                        RunErrorKind::ConcurrentRegions { site: *site },
                        *span,
                        env.rank,
                    );
                    self.abort_everyone(env, omp, &err);
                    return Err(err);
                }
                Ok(())
            }
            CheckOp::ConcExit { site } => {
                env.conc[*site as usize].fetch_sub(1, Ordering::SeqCst);
                Ok(())
            }
            CheckOp::P2pEpoch { span } => {
                let rows = env
                    .world
                    .p2p_census(env.rank, is_initial)
                    .map_err(|e| RunError::new(classify_mpi_error(e), *span, env.rank))?;
                let unbalanced: Vec<(usize, u64, u64)> = rows
                    .into_iter()
                    .filter(|(_, sent, recvd)| sent != recvd)
                    .collect();
                if unbalanced.is_empty() {
                    return Ok(());
                }
                let err = RunError::new(
                    RunErrorKind::P2pImbalance { comms: unbalanced },
                    *span,
                    env.rank,
                );
                self.abort_everyone(env, omp, &err);
                Err(err)
            }
        }
    }

    /// Execute the `CC` color all-reduce (on the guarded collective's
    /// communicator) and translate a disagreement into the paper's
    /// error report (per-rank collective names).
    #[allow(clippy::too_many_arguments)]
    fn run_cc(
        &self,
        env: &RankEnv,
        omp: &mut ThreadCtx,
        is_initial: bool,
        comm: usize,
        color: u32,
        span: Span,
    ) -> Result<(), RunError> {
        let outcome = env
            .world
            .control_cc_on(env.rank, comm, color, is_initial)
            .map_err(|e| RunError::new(classify_mpi_error(e), span, env.rank))?;
        if outcome.unanimous() {
            return Ok(());
        }
        let per_rank = outcome
            .colors
            .iter()
            .map(|&c| color_name(c).into_owned())
            .collect::<Vec<_>>();
        let err = RunError::new(RunErrorKind::CcMismatch { per_rank }, span, env.rank);
        self.abort_everyone(env, omp, &err);
        Err(err)
    }

    fn abort_everyone(&self, env: &RankEnv, omp: &ThreadCtx, err: &RunError) {
        if env.world.abort_reason().is_none() {
            env.world.abort(MpiError::Aborted(err.to_string()));
        }
        if let Some(team) = &omp.team {
            OmpSim::poison_team(team);
        }
    }

    fn exec_mpi(
        &self,
        env: &RankEnv,
        omp: &mut ThreadCtx,
        is_initial: bool,
        frame: &mut Frame,
        op: &MpiIr,
        span: Span,
    ) -> Result<Option<Value>, RunError> {
        let mpi_err = |e: MpiError| RunError::new(classify_mpi_error(e), span, env.rank);
        match op {
            MpiIr::Init { required } => {
                env.world
                    .init(env.rank, required.unwrap_or(ThreadLevel::Single));
                Ok(None)
            }
            MpiIr::Finalize => {
                env.world.finalize(env.rank, is_initial).map_err(mpi_err)?;
                Ok(None)
            }
            MpiIr::Send {
                value,
                dest,
                tag,
                comm,
            } => {
                let v = self.read(frame, *value).to_mpi();
                let d = self.read(frame, *dest).as_int();
                let t = self.read(frame, *tag).as_int();
                let c = comm.map(|v| self.read(frame, v).as_comm()).unwrap_or(0);
                if d < 0 {
                    return Err(mpi_err(MpiError::ArgError(format!(
                        "negative destination {d}"
                    ))));
                }
                env.world
                    .send_on(env.rank, c, d as usize, t, v, is_initial)
                    .map_err(mpi_err)?;
                Ok(None)
            }
            MpiIr::Recv { src, tag, comm } => {
                let s = self.read(frame, *src).as_int();
                let t = self.read(frame, *tag).as_int();
                let c = comm.map(|v| self.read(frame, v).as_comm()).unwrap_or(0);
                // Wildcard sentinels pass through; the world rejects
                // other negative sources/tags.
                let v = env
                    .world
                    .recv_on(env.rank, c, s, t, is_initial)
                    .map_err(mpi_err)?;
                // `MPI_Recv` is float-typed in the language; coerce
                // integer payloads.
                let out = match Value::from_mpi(v) {
                    Value::Int(x) => Value::Float(x as f64),
                    other => other,
                };
                Ok(Some(out))
            }
            MpiIr::Isend {
                value,
                dest,
                tag,
                comm,
            } => {
                let v = self.read(frame, *value).to_mpi();
                let d = self.read(frame, *dest).as_int();
                let t = self.read(frame, *tag).as_int();
                let c = comm.map(|v| self.read(frame, v).as_comm()).unwrap_or(0);
                if d < 0 {
                    return Err(mpi_err(MpiError::ArgError(format!(
                        "negative destination {d}"
                    ))));
                }
                let handle = env
                    .world
                    .isend(env.rank, c, d as usize, t, v, is_initial)
                    .map_err(mpi_err)?;
                Ok(Some(Value::Request(handle)))
            }
            MpiIr::Irecv { src, tag, comm } => {
                let s = self.read(frame, *src).as_int();
                let t = self.read(frame, *tag).as_int();
                let c = comm.map(|v| self.read(frame, v).as_comm()).unwrap_or(0);
                let handle = env
                    .world
                    .irecv(env.rank, c, s, t, is_initial)
                    .map_err(mpi_err)?;
                Ok(Some(Value::Request(handle)))
            }
            MpiIr::Wait { request } => {
                let h = self.read(frame, *request).as_request();
                let v = env.world.wait(env.rank, h, is_initial).map_err(mpi_err)?;
                // Like MPI_Recv: the completion value is float-typed.
                let out = match Value::from_mpi(v) {
                    Value::Int(x) => Value::Float(x as f64),
                    other => other,
                };
                Ok(Some(out))
            }
            MpiIr::Waitall { requests } => {
                for r in requests {
                    let h = self.read(frame, *r).as_request();
                    env.world.wait(env.rank, h, is_initial).map_err(mpi_err)?;
                }
                Ok(None)
            }
            MpiIr::CommWorld => Ok(Some(Value::Comm(0))),
            MpiIr::CommSplit { parent, color, key } => {
                let p = self.read(frame, *parent).as_comm();
                let c = self.read(frame, *color).as_int();
                let k = self.read(frame, *key).as_int();
                let handle = env
                    .world
                    .comm_split(env.rank, p, c, k, is_initial)
                    .map_err(mpi_err)?;
                Ok(Some(Value::Comm(handle)))
            }
            MpiIr::CommDup { comm } => {
                let p = self.read(frame, *comm).as_comm();
                let handle = env
                    .world
                    .comm_dup(env.rank, p, is_initial)
                    .map_err(mpi_err)?;
                Ok(Some(Value::Comm(handle)))
            }
            MpiIr::Collective {
                kind,
                value,
                reduce_op,
                root,
                comm,
            } => {
                let payload = value.map(|v| self.read(frame, v).to_mpi());
                let root_v = match root {
                    Some(r) => {
                        let x = self.read(frame, *r).as_int();
                        if x < 0 {
                            return Err(mpi_err(MpiError::ArgError(format!("negative root {x}"))));
                        }
                        Some(x as usize)
                    }
                    None => None,
                };
                let c = comm.map(|v| self.read(frame, v).as_comm()).unwrap_or(0);
                let ty = payload.as_ref().map(|p| p.ty());
                let sig = Signature::collective((*kind).into(), *reduce_op, root_v, ty);
                // `omp` is only used for diagnostics here; the collective
                // blocks in the world.
                let _ = omp;
                let out = env
                    .world
                    .collective_on(env.rank, c, sig, payload, is_initial)
                    .map_err(mpi_err)?;
                if *kind == CollectiveKind::Barrier {
                    Ok(None)
                } else {
                    Ok(Some(Value::from_mpi(out)))
                }
            }
        }
    }

    fn intrinsic(
        &self,
        env: &RankEnv,
        omp: &ThreadCtx,
        frame: &Frame,
        intr: Intrinsic,
        args: &[IrValue],
    ) -> Value {
        let arg = |i: usize| self.read(frame, args[i]);
        match intr {
            Intrinsic::Rank => Value::Int(env.rank as i64),
            Intrinsic::Size => Value::Int(env.world.size() as i64),
            Intrinsic::ThreadNum => Value::Int(omp.thread_num() as i64),
            Intrinsic::NumThreads => Value::Int(omp.num_threads() as i64),
            Intrinsic::InParallel => Value::Bool(omp.in_parallel()),
            Intrinsic::Sqrt => Value::Float(arg(0).as_float().sqrt()),
            Intrinsic::Abs => match arg(0) {
                Value::Int(x) => Value::Int(x.abs()),
                Value::Float(x) => Value::Float(x.abs()),
                v => panic!("type-checked abs on {v:?}"),
            },
            Intrinsic::MinOf => match (arg(0), arg(1)) {
                (Value::Int(a), Value::Int(b)) => Value::Int(a.min(b)),
                (Value::Float(a), Value::Float(b)) => Value::Float(a.min(b)),
                _ => panic!("type-checked min"),
            },
            Intrinsic::MaxOf => match (arg(0), arg(1)) {
                (Value::Int(a), Value::Int(b)) => Value::Int(a.max(b)),
                (Value::Float(a), Value::Float(b)) => Value::Float(a.max(b)),
                _ => panic!("type-checked max"),
            },
            Intrinsic::IntOf => Value::Int(arg(0).as_float() as i64),
            Intrinsic::FloatOf => Value::Float(arg(0).as_int() as f64),
            Intrinsic::Len => match arg(0) {
                Value::ArrayInt(a) => Value::Int(a.read().len() as i64),
                Value::ArrayFloat(a) => Value::Int(a.read().len() as i64),
                v => panic!("type-checked len on {v:?}"),
            },
            Intrinsic::ArrayNew => unreachable!("lowered to Instr::ArrayNew"),
        }
    }

    fn binary(
        &self,
        env: &RankEnv,
        op: BinOp,
        l: Value,
        r: Value,
        span: Span,
    ) -> Result<Value, RunError> {
        use BinOp::*;
        Ok(match (op, &l, &r) {
            (Add, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
            (Sub, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_sub(*b)),
            (Mul, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_mul(*b)),
            (Div, Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    return Err(RunError::new(RunErrorKind::DivisionByZero, span, env.rank));
                }
                Value::Int(a.wrapping_div(*b))
            }
            (Rem, Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    return Err(RunError::new(RunErrorKind::DivisionByZero, span, env.rank));
                }
                Value::Int(a.wrapping_rem(*b))
            }
            (Add, Value::Float(a), Value::Float(b)) => Value::Float(a + b),
            (Sub, Value::Float(a), Value::Float(b)) => Value::Float(a - b),
            (Mul, Value::Float(a), Value::Float(b)) => Value::Float(a * b),
            (Div, Value::Float(a), Value::Float(b)) => Value::Float(a / b),
            (Rem, Value::Float(a), Value::Float(b)) => Value::Float(a % b),
            (Eq, a, b) => Value::Bool(scalar_eq(a, b)),
            (Ne, a, b) => Value::Bool(!scalar_eq(a, b)),
            (Lt, Value::Int(a), Value::Int(b)) => Value::Bool(a < b),
            (Le, Value::Int(a), Value::Int(b)) => Value::Bool(a <= b),
            (Gt, Value::Int(a), Value::Int(b)) => Value::Bool(a > b),
            (Ge, Value::Int(a), Value::Int(b)) => Value::Bool(a >= b),
            (Lt, Value::Float(a), Value::Float(b)) => Value::Bool(a < b),
            (Le, Value::Float(a), Value::Float(b)) => Value::Bool(a <= b),
            (Gt, Value::Float(a), Value::Float(b)) => Value::Bool(a > b),
            (Ge, Value::Float(a), Value::Float(b)) => Value::Bool(a >= b),
            (And, Value::Bool(a), Value::Bool(b)) => Value::Bool(*a && *b),
            (Or, Value::Bool(a), Value::Bool(b)) => Value::Bool(*a || *b),
            (op, l, r) => panic!("type-checked binary {op:?} on {l:?}/{r:?}"),
        })
    }

    // ---- small helpers ---------------------------------------------------

    fn read(&self, frame: &Frame, v: IrValue) -> Value {
        match v {
            IrValue::Const(Const::Int(x)) => Value::Int(x),
            IrValue::Const(Const::Float(x)) => Value::Float(x),
            IrValue::Const(Const::Bool(x)) => Value::Bool(x),
            IrValue::Reg(r) => self.read_reg(frame, r),
        }
    }

    fn read_reg(&self, frame: &Frame, r: Reg) -> Value {
        match &frame[r.index()] {
            Slot::Owned(v) => v.clone(),
            Slot::Shared(c) => c.read().clone(),
        }
    }

    fn write(&self, frame: &mut Frame, r: Reg, v: Value) {
        match &mut frame[r.index()] {
            Slot::Owned(slot) => *slot = v,
            Slot::Shared(c) => *c.write() = v,
        }
    }
}

/// Classify an error returned by the MPI substrate: the wait-for-graph
/// detector is a PARCOACH-side runtime verifier (it names the exact
/// cyclic deadlock before the run hangs), so its findings surface as a
/// check detection rather than a plain substrate error.
fn classify_mpi_error(e: MpiError) -> RunErrorKind {
    match e {
        MpiError::WaitCycle { cycle, .. } => RunErrorKind::WaitForCycle { cycle },
        other => RunErrorKind::Mpi(other),
    }
}

/// Errors that are consequences of another thread's failure (poisoned
/// barrier, aborted MPI) rather than root causes.
fn is_secondary_error(e: &RunError) -> bool {
    match &e.kind {
        RunErrorKind::Mpi(MpiError::Aborted(_)) => true,
        RunErrorKind::ThreadBarrier(m) => m.contains("poisoned"),
        _ => false,
    }
}

/// Look at a register's value in place: an array operand is borrowed for
/// the one element access instead of cloned, which for a shared array
/// would be a reference-count round trip on a line the whole team
/// writes.
fn with_reg<R>(frame: &Frame, r: Reg, f: impl FnOnce(&Value) -> R) -> R {
    match &frame[r.index()] {
        Slot::Owned(v) => f(v),
        Slot::Shared(c) => f(&c.read()),
    }
}

fn scalar_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        _ => panic!("type-checked equality"),
    }
}

fn check_bounds(i: i64, len: usize, span: Span, rank: usize) -> Result<(), RunError> {
    if i < 0 || i as usize >= len {
        Err(RunError::new(
            RunErrorKind::IndexOutOfBounds { index: i, len },
            span,
            rank,
        ))
    } else {
        Ok(())
    }
}

/// Human name for a CC color. Every known color has a static name; only
/// the unknown-color fallback allocates.
fn color_name(color: u32) -> std::borrow::Cow<'static, str> {
    if color == 0 {
        return "<return/exit>".into();
    }
    if color == parcoach_ir::instr::COLOR_COMM_SPLIT {
        return "MPI_Comm_split".into();
    }
    if color == parcoach_ir::instr::COLOR_COMM_DUP {
        return "MPI_Comm_dup".into();
    }
    CollectiveKind::ALL
        .iter()
        .find(|k| k.color() == color)
        .map(|k| k.mpi_name().into())
        .unwrap_or_else(|| format!("<color {color}>").into())
}

/// Precompute the plan of one parallel region.
fn region_plan(f: &FuncIr, begin: BlockId, region: RegionId) -> RegionPlan {
    let body_entry = match &f.block(begin).term {
        Terminator::Goto(t) => *t,
        _ => panic!("parallel.begin must have a goto terminator"),
    };
    let end_block = f
        .iter_blocks()
        .find_map(|(id, b)| match b.directive() {
            Some(Directive::ParallelEnd { region: r }) if *r == region => Some(id),
            _ => None,
        })
        .expect("matching parallel.end exists");
    let end_barrier = f
        .iter_blocks()
        .find_map(|(id, b)| match b.directive() {
            Some(Directive::Barrier {
                implicit: true,
                region: Some(r),
                ..
            }) if *r == region => Some(id),
            _ => None,
        })
        .expect("a parallel region ends in its implicit barrier");
    // Region membership: blocks reachable from body_entry without
    // crossing the end block.
    let mut in_region: HashSet<BlockId> = HashSet::new();
    let mut queue = VecDeque::from([body_entry]);
    in_region.insert(body_entry);
    while let Some(b) = queue.pop_front() {
        for s in f.successors(b) {
            if s != end_block && in_region.insert(s) {
                queue.push_back(s);
            }
        }
    }
    // Registers used inside the region vs. assigned outside it.
    let mut used: HashSet<Reg> = HashSet::new();
    let mut assigned_outside: HashSet<Reg> = HashSet::new();
    for p in &f.params {
        assigned_outside.insert(*p);
    }
    for (id, b) in f.iter_blocks() {
        let inside = in_region.contains(&id);
        let (refs, defs) = block_regs(b);
        if inside {
            used.extend(refs.iter().copied());
            used.extend(defs.iter().copied());
        } else {
            assigned_outside.extend(defs.iter().copied());
        }
    }
    let mut shared_regs: Vec<Reg> = used.intersection(&assigned_outside).copied().collect();
    shared_regs.sort_unstable();
    RegionPlan {
        body_entry,
        end_barrier,
        end_block,
        shared_regs,
    }
}

/// All registers a block references (reads) and defines (writes).
fn block_regs(b: &parcoach_ir::func::BasicBlock) -> (Vec<Reg>, Vec<Reg>) {
    let mut refs: Vec<Reg> = Vec::new();
    let mut defs: Vec<Reg> = Vec::new();
    let val = |v: &IrValue, out: &mut Vec<Reg>| {
        if let IrValue::Reg(r) = v {
            out.push(*r);
        }
    };
    for i in &b.instrs {
        if let Some(d) = i.dest() {
            defs.push(d);
        }
        match i {
            Instr::Copy { src, .. } | Instr::Unary { src, .. } => val(src, &mut refs),
            Instr::Binary { lhs, rhs, .. } => {
                val(lhs, &mut refs);
                val(rhs, &mut refs);
            }
            Instr::ArrayNew { len, init, .. } => {
                val(len, &mut refs);
                val(init, &mut refs);
            }
            Instr::Load { arr, idx, .. } => {
                refs.push(*arr);
                val(idx, &mut refs);
            }
            Instr::Store {
                arr, idx, value, ..
            } => {
                refs.push(*arr);
                val(idx, &mut refs);
                val(value, &mut refs);
            }
            Instr::Intrinsic { args, .. } | Instr::Print { args } => {
                for a in args {
                    val(a, &mut refs);
                }
            }
            Instr::Call { args, .. } => {
                for a in args {
                    val(a, &mut refs);
                }
            }
            Instr::Mpi { op, .. } => match op {
                MpiIr::Collective {
                    value, root, comm, ..
                } => {
                    if let Some(v) = value {
                        val(v, &mut refs);
                    }
                    if let Some(r) = root {
                        val(r, &mut refs);
                    }
                    if let Some(c) = comm {
                        val(c, &mut refs);
                    }
                }
                MpiIr::Send {
                    value,
                    dest,
                    tag,
                    comm,
                } => {
                    val(value, &mut refs);
                    val(dest, &mut refs);
                    val(tag, &mut refs);
                    if let Some(c) = comm {
                        val(c, &mut refs);
                    }
                }
                MpiIr::Recv { src, tag, comm } => {
                    val(src, &mut refs);
                    val(tag, &mut refs);
                    if let Some(c) = comm {
                        val(c, &mut refs);
                    }
                }
                MpiIr::CommSplit { parent, color, key } => {
                    val(parent, &mut refs);
                    val(color, &mut refs);
                    val(key, &mut refs);
                }
                MpiIr::CommDup { comm } => val(comm, &mut refs),
                MpiIr::Isend {
                    value,
                    dest,
                    tag,
                    comm,
                } => {
                    val(value, &mut refs);
                    val(dest, &mut refs);
                    val(tag, &mut refs);
                    if let Some(c) = comm {
                        val(c, &mut refs);
                    }
                }
                MpiIr::Irecv { src, tag, comm } => {
                    val(src, &mut refs);
                    val(tag, &mut refs);
                    if let Some(c) = comm {
                        val(c, &mut refs);
                    }
                }
                MpiIr::Wait { request } => val(request, &mut refs),
                MpiIr::Waitall { requests } => {
                    for r in requests {
                        val(r, &mut refs);
                    }
                }
                _ => {}
            },
            Instr::Check(CheckOp::CollectiveCc { comm: Some(c), .. }) => val(c, &mut refs),
            Instr::Check(_) => {}
        }
    }
    if let Some(d) = b.directive() {
        match d {
            Directive::ParallelBegin {
                num_threads: Some(v),
                ..
            } => val(v, &mut refs),
            Directive::SingleBegin { chosen, .. }
            | Directive::MasterBegin { chosen, .. }
            | Directive::SectionBegin { chosen, .. } => {
                defs.push(*chosen);
            }
            Directive::PForInit {
                var,
                chunk_end,
                lo,
                hi,
                ..
            } => {
                defs.push(*var);
                defs.push(*chunk_end);
                val(lo, &mut refs);
                val(hi, &mut refs);
            }
            _ => {}
        }
    }
    if let Terminator::Branch { cond, .. } = &b.term {
        val(cond, &mut refs);
    }
    (refs, defs)
}
