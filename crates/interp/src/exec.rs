//! The hybrid executor: runs lowered MiniHPC modules over the `ompsim`
//! fork/join substrate and the `mpisim` MPI world, executing PARCOACH
//! dynamic checks in-line ("Static Instrumentation for Execution-Time
//! Verification", paper §3).
//!
//! Each MPI rank is an OS thread (rank 0 the caller's) and `parallel`
//! regions fork real teams whose member 0 is the encountering thread:
//! the simulated program's threads are the only threads. Each is one
//! `SimThread`: its rank's environment, its place in the team tree, its
//! own `ThreadState` — step lease, frame pool, counters — and the check
//! records of its team, so interpretation between two synchronisations
//! shares nothing.
//! Registers follow OpenMP sharing rules. A register assigned before a
//! parallel region and written inside it becomes a shared cell at the
//! fork, so a write is seen by the team and, after the join, by the
//! encountering thread. A register the region only reads reaches each
//! member as a copy in its frame (`firstprivate`): nothing writes it
//! while the team runs, since the encountering thread is member 0 until
//! the join. Everything else is thread-private. Arrays are reference
//! types with lock-free elements (`value.rs`), so a copied array register
//! still names the one array.

use crate::error::{RunError, RunErrorKind, RunReport, RunStats};
use crate::value::Value;
use parcoach_front::ast::{
    BinOp, CollectiveKind, Intrinsic, ThreadLevel, Type, UnOp, COLOR_COMM_DUP, COLOR_COMM_SPLIT,
};
use parcoach_front::span::Span;
use parcoach_ir::func::{FuncIr, Locator, Module};
use parcoach_ir::instr::{BlockKind, CheckOp, Directive, Instr, MpiOp, Terminator};
use parcoach_ir::types::{BlockId, Const, Reg, RegionId, Value as IrValue};
use parcoach_mpisim::{MpiConfig, MpiError, Signature, World};
use parcoach_ompsim::{BarrierError, ForkError, OmpConfig, OmpError, OmpSim, ThreadCtx};
use parcoach_sync::{Mutex, ReentrantMutexGuard, RwLock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
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
    /// Registers assigned outside the region and written inside it:
    /// shared cells. The rest of the frame reaches the members as a copy.
    shared_regs: Vec<Reg>,
}

/// How many concurrency and monothread-assert sites the module's checks
/// name, computed once per executor. Both kinds of site id are dense
/// (the analysis numbers concurrency sites 0..n across functions, the
/// instrumentation numbers asserts), so the per-rank counters and the
/// per-team records are flat vectors indexed by site.
#[derive(Default)]
struct SiteTable {
    /// One slot per `ConcEnter`/`ConcExit` site id.
    conc_sites: usize,
    /// One slot per `AssertMonothread` site id.
    mono_sites: usize,
}

impl SiteTable {
    fn build(module: &Module) -> SiteTable {
        let mut sites = SiteTable::default();
        for (i, _) in module.funcs.iter().flat_map(|f| &f.instrs) {
            let (count, site) = match i {
                Instr::Check(CheckOp::ConcEnter { site } | CheckOp::ConcExit { site }) => {
                    (&mut sites.conc_sites, site)
                }
                Instr::Check(CheckOp::AssertMonothread { site, .. }) => {
                    (&mut sites.mono_sites, site)
                }
                _ => continue,
            };
            *count = (*count).max(*site as usize + 1);
        }
        sites
    }
}

/// Per-rank runtime environment: what the run shares, borrowed from
/// [`Executor::run`]'s frame, and what the rank's threads share.
struct RankEnv<'r> {
    world: &'r World,
    omp: OmpSim,
    rank: usize,
    /// The rank's `print` lines, in arrival order.
    output: Mutex<Vec<String>>,
    /// Steps of `RunConfig::max_steps` no thread has leased yet — one
    /// counter for all ranks, touched once per [`STEP_LEASE`] steps.
    budget: &'r AtomicU64,
    /// Concurrency counters per static site (paper's `S_cc` check):
    /// live occupancy, catching regions that truly overlap in time.
    /// Occupancy is inherently cross-thread (thread A's enter must be
    /// visible to thread B's check), so the counters cannot be
    /// thread-private — but they are dense and lock-free: one atomic
    /// per interned site.
    conc: Vec<AtomicI64>,
}

/// The check records of one team instance: created when the team is
/// forked, dropped when it has joined. Outside any team only the rank's
/// initial thread runs, so neither record is needed there.
struct TeamChecks {
    /// Per interned assert site, the first member to reach it ([`NOBODY`]
    /// until one has): a second *distinct* member reaching the same site
    /// proves the context is not monothreaded.
    mono: Vec<AtomicUsize>,
    /// Per concurrency site, (barrier epoch, executions in it). The paper
    /// resets `S_cc` at synchronization points: a suspect region running
    /// *twice between barriers* of one team is an ordering error even
    /// when the schedule happens to serialize the two executions — this
    /// keeps detection deterministic on any scheduler. The epoch is each
    /// member's own barrier count, equal across the team after every
    /// barrier; a member arriving with a newer epoch restarts the count.
    /// No member counts in an older epoch afterwards: a member reaches
    /// epoch e+1 only once the whole team has arrived at barrier e.
    conc: Vec<Mutex<(u64, u32)>>,
}

/// An assert site no member has reached yet.
const NOBODY: usize = usize::MAX;

impl TeamChecks {
    fn new(sites: &SiteTable) -> TeamChecks {
        TeamChecks {
            mono: (0..sites.mono_sites)
                .map(|_| AtomicUsize::new(NOBODY))
                .collect(),
            conc: (0..sites.conc_sites).map(|_| Mutex::new((0, 0))).collect(),
        }
    }

    /// Record member `me` at assert site `site`: is it the first member
    /// that reached it? `Relaxed`: the slot publishes nothing but itself.
    fn is_first_at(&self, site: usize, me: usize) -> bool {
        match self.mono[site].compare_exchange(NOBODY, me, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => true,
            Err(first) => first == me,
        }
    }

    /// Count one execution of concurrency site `site` in barrier epoch
    /// `epoch`; the executions of the site in that epoch so far.
    fn executed(&self, site: usize, epoch: u64) -> u32 {
        let mut seen = self.conc[site].lock();
        if seen.0 < epoch {
            *seen = (epoch, 0);
        }
        seen.1 += 1;
        seen.1
    }
}

/// Steps a thread leases from the shared budget at a time: large enough
/// that interpretation touches the shared counter once in a thousand
/// steps, small enough that what the other live threads hold unexecuted
/// when one of them finds the budget empty — at most
/// `(live threads - 1) × STEP_LEASE` steps — is noise against any
/// `max_steps` worth configuring. A lease is also never more than half
/// of what is left (rounded up): near the end of the budget, one thread
/// taking its lease leaves the others theirs.
const STEP_LEASE: u64 = 1024;

/// What one simulated thread owns while it runs. Nothing in here is
/// shared, so a step, a call and a counter cost no other thread a cache
/// line.
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

    /// Account one step; `StepLimit` when the run's budget is spent.
    #[inline]
    fn step(&mut self, env: &RankEnv) -> Result<(), RunErrorKind> {
        if self.lease == 0 {
            // `Relaxed`: the counter publishes nothing but itself.
            let mut got = 0;
            let _ = env
                .budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                    got = left.min(STEP_LEASE).min(left.div_ceil(2));
                    (got > 0).then(|| left - got)
                });
            if got == 0 {
                return Err(RunErrorKind::StepLimit);
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

/// One simulated thread, as every step function takes it: its rank's
/// environment, its place in the team tree, what it owns, and the check
/// records of its innermost team (`None` outside any team).
struct SimThread<'a> {
    env: &'a RankEnv<'a>,
    ctx: &'a mut ThreadCtx,
    state: &'a mut ThreadState,
    checks: Option<&'a TeamChecks>,
}

impl SimThread<'_> {
    /// Stop the run on this thread's `fault`: abort the MPI world, unless
    /// a thread already has (the first reason stands), and poison this
    /// thread's team, so that no rank or sibling waits for this thread any
    /// more.
    fn abort_all(&self, fault: &RunErrorKind) {
        let world = self.env.world;
        if world.abort_reason().is_none() {
            let reason = format!("rank {}: {fault}", self.env.rank);
            world.abort(MpiError::Aborted(reason));
        }
        if let Some(team) = &self.ctx.team {
            OmpSim::poison_team(team);
        }
    }
}

/// Control flow of a block walk.
enum Flow {
    Return(Option<Value>),
    Stopped,
}

/// Why a step stopped its thread: a fault of the step itself, which the
/// block walk locates, or a callee's error, located in the callee.
enum Stop {
    Fault(RunErrorKind),
    Located(RunError),
}

impl From<RunErrorKind> for Stop {
    fn from(kind: RunErrorKind) -> Stop {
        Stop::Fault(kind)
    }
}

/// Why [`Executor::run_within`] returned no report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoReport {
    /// The limit passed first; the run may still be going.
    TimedOut,
    /// The run panicked before producing its report.
    Panicked,
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
        let budget = AtomicU64::new(self.cfg.max_steps);
        let main = self.module.index("main");
        let no_main = || RunErrorKind::MissingReturn {
            func: "main".into(),
        };
        // Each rank returns its error, if any, and what it counted.
        let per_rank = parcoach_sync::thread_cache().run_map(self.cfg.ranks, |rank| {
            let env = RankEnv {
                world: &world,
                omp: OmpSim::new(OmpConfig {
                    default_num_threads: self.cfg.default_threads,
                    barrier_timeout: self.cfg.barrier_timeout,
                }),
                rank,
                output: Mutex::new(Vec::new()),
                budget: &budget,
                conc: (0..self.sites.conc_sites)
                    .map(|_| AtomicI64::new(0))
                    .collect(),
            };
            // Rank 0 runs on `run`'s caller.
            let mut state = match rank {
                0 => ThreadState::default(),
                _ => ThreadState::dispatched(),
            };
            let mut thread = SimThread {
                env: &env,
                ctx: &mut ThreadCtx::initial(),
                state: &mut state,
                checks: None,
            };
            world.thread_started(rank);
            let res = match main {
                Some(fi) => self.exec_function(&mut thread, fi, Vec::new(), 0),
                None => Err(RunError::new(
                    no_main(),
                    Locator::Block(0, BlockId(0)),
                    rank,
                )),
            };
            world.finish_rank(rank);
            thread.state.return_lease(&env);
            let err = res.err();
            // Make sure peers blocked in MPI wake up.
            if let Some(e) = &err {
                thread.abort_all(&e.kind);
            }
            (err, state.stats, env.output.into_inner())
        });
        let mut stats = RunStats::default();
        let mut errs = Vec::new();
        let mut output = Vec::new();
        for (err, rank_stats, lines) in per_rank {
            stats.add(&rank_stats);
            errs.extend(err);
            output.extend(lines);
        }
        // Prefer root-cause errors over secondary echoes (aborted MPI
        // calls, poisoned barriers on sibling ranks).
        let has_root = errs.iter().any(|e| !is_secondary_error(e));
        if has_root {
            errs.retain(|e| !is_secondary_error(e));
        }
        RunReport {
            errors: errs,
            output,
            stats,
        }
    }

    /// [`run`](Executor::run) under a wall-clock watchdog: the run goes to
    /// a parked [`parcoach_sync::thread_cache`] worker, and the caller
    /// waits at most `limit` for its report. The executor joins its rank
    /// threads before returning, so a stuck schedule would otherwise stall
    /// the caller for good. On timeout the worker is abandoned, not
    /// joined: if the run ever finishes, the worker re-parks and serves
    /// later runs.
    pub fn run_within(self, limit: Duration) -> Result<RunReport, NoReport> {
        let (tx, rx) = mpsc::channel();
        parcoach_sync::thread_cache().spawn(move || {
            let _ = tx.send(self.run());
        });
        rx.recv_timeout(limit).map_err(|e| match e {
            RecvTimeoutError::Timeout => NoReport::TimedOut,
            RecvTimeoutError::Disconnected => NoReport::Panicked,
        })
    }

    // ---- function & block execution ------------------------------------

    /// Call function `fidx` at call depth `depth`.
    fn exec_function(
        &self,
        t: &mut SimThread<'_>,
        fidx: usize,
        args: Vec<Value>,
        depth: usize,
    ) -> Result<Option<Value>, RunError> {
        let func = &self.module.funcs[fidx];
        let mut frame: Frame = t.state.take_frame();
        frame.extend(
            func.reg_types
                .iter()
                .map(|&ty| Slot::Owned(Value::default_for(ty))),
        );
        for (param, arg) in func.params.iter().zip(args) {
            frame[param.index()] = Slot::Owned(arg);
        }
        let flow = self.exec_from(t, &mut frame, fidx, func.entry, None, depth);
        t.state.put_frame(frame);
        match flow? {
            Flow::Return(v) => Ok(v),
            Flow::Stopped => unreachable!("stop block only used inside parallel regions"),
        }
    }

    /// Walk function `fidx`'s blocks from `start` until it returns or
    /// reaches `stop`; a step reports what failed, the walk where.
    fn exec_from(
        &self,
        t: &mut SimThread<'_>,
        frame: &mut Frame,
        fidx: usize,
        start: BlockId,
        stop: Option<BlockId>,
        depth: usize,
    ) -> Result<Flow, RunError> {
        let (env, rank) = (t.env, t.env.rank);
        let func = &self.module.funcs[fidx];
        let mut cur = start;
        let mut critical_guards: Vec<ReentrantMutexGuard<'_, ()>> = Vec::new();
        loop {
            let (block, instrs) = (func.block(cur), func.instrs(cur));
            let at = move |ii, kind| RunError::new(kind, plain_at(func, fidx, cur, ii), rank);
            let entry = move |kind| RunError::new(kind, Locator::Entry(fidx, cur), rank);
            t.state.step(env).map_err(entry)?;
            if let BlockKind::Directive(d) = &block.kind {
                // A directive block holds only the checks instrumentation
                // attached to it: they run first, with no step of their
                // own.
                for (ii, (i, _)) in instrs.iter().enumerate() {
                    if let Instr::Check(check) = i {
                        self.exec_check(t, frame, check).map_err(|k| at(ii, k))?;
                    }
                }
                if stop == Some(cur) {
                    // The region's end barrier: nothing to wait for here,
                    // the join synchronises the team.
                    return Ok(Flow::Stopped);
                }
                match d {
                    Directive::ParallelBegin { .. } => {
                        cur = self.exec_parallel(t, frame, fidx, cur, depth)?;
                        continue;
                    }
                    Directive::SingleBegin { region, chosen, .. } => {
                        let mine = t.ctx.enter_single(region.0);
                        self.write(frame, *chosen, Value::Bool(mine));
                    }
                    Directive::MasterBegin { chosen, .. } => {
                        self.write(frame, *chosen, Value::Bool(t.ctx.is_master()));
                    }
                    Directive::SectionBegin {
                        parent,
                        index,
                        chosen,
                        ..
                    } => {
                        let mine = t.ctx.enter_section(parent.0, *index);
                        self.write(frame, *chosen, Value::Bool(mine));
                    }
                    Directive::CriticalBegin { .. } => {
                        critical_guards.push(env.omp.critical());
                    }
                    Directive::CriticalEnd { .. } => {
                        critical_guards.pop();
                    }
                    Directive::Barrier { .. } => {
                        t.state.stats.barrier_waits += t.ctx.team.is_some() as u64;
                        t.ctx.barrier(env.omp.barrier_timeout()).map_err(|e| {
                            let kind = match e {
                                OmpError::Barrier(b) => RunErrorKind::ThreadBarrier(b),
                                other => RunErrorKind::Omp(other),
                            };
                            RunError::new(kind, Locator::Block(fidx, cur), rank)
                        })?;
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
                        let (s, e) = t.ctx.static_chunk(lo, hi);
                        self.write(frame, *var, Value::Int(s));
                        self.write(frame, *chunk_end, Value::Int(e));
                    }
                    // Pure markers at run time.
                    Directive::ParallelEnd { .. }
                    | Directive::SingleEnd { .. }
                    | Directive::MasterEnd { .. }
                    | Directive::SectionEnd { .. }
                    | Directive::WorkshareBegin { .. }
                    | Directive::WorkshareEnd { .. } => {}
                }
            } else {
                for (ii, (i, _)) in instrs.iter().enumerate() {
                    self.exec_instr(t, frame, i, depth).map_err(|s| match s {
                        Stop::Fault(kind) => at(ii, kind),
                        Stop::Located(e) => e,
                    })?;
                }
            }

            // Terminator.
            match &block.term {
                Terminator::Goto(next) => cur = *next,
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    cur = if self.read(frame, *cond).as_bool() {
                        *then_bb
                    } else {
                        *else_bb
                    };
                }
                // Return-site CC checks were already executed as
                // instructions (they sit at the end of the block).
                Terminator::Return { value: Some(v) } => {
                    return Ok(Flow::Return(Some(self.read(frame, *v))));
                }
                Terminator::Return { value: None } if func.ret == Type::Void => {
                    return Ok(Flow::Return(None));
                }
                Terminator::Return { value: None } | Terminator::Unreachable => {
                    let kind = RunErrorKind::MissingReturn {
                        func: func.name.clone(),
                    };
                    return Err(RunError::new(kind, Locator::Cond(fidx, cur), rank));
                }
            }
        }
    }

    /// `parallel`: fork a team on the region's body, go on as its member
    /// 0 and, when the team has joined, return the block the encountering
    /// thread continues at. (A function of its own so that the block
    /// walk, which recursion through calls stacks up, does not carry
    /// this one's locals in its frame.)
    fn exec_parallel(
        &self,
        t: &mut SimThread<'_>,
        frame: &mut Frame,
        fidx: usize,
        cur: BlockId,
        depth: usize,
    ) -> Result<BlockId, RunError> {
        let Some(Directive::ParallelBegin {
            region,
            num_threads,
        }) = self.module.funcs[fidx].block(cur).directive()
        else {
            unreachable!("called on a parallel.begin block");
        };
        let team_size = num_threads
            .map_or(self.cfg.default_threads, |v| {
                self.read(frame, v).as_int().max(1) as usize
            })
            .max(1);
        let plan = &self.plans[&(fidx, region.0)];
        // Promote the registers the region writes (a cell of an
        // enclosing region stays that cell).
        for &r in &plan.shared_regs {
            if let Slot::Owned(v) = &frame[r.index()] {
                frame[r.index()] = Slot::Shared(Arc::new(RwLock::new(v.clone())));
                t.state.stats.shared_cells += 1;
            }
        }
        let parent_frame: &Frame = frame;
        let env = t.env;
        // The first *root-cause* error across the team; sibling threads
        // that then fail on poisoned barriers / aborted MPI must not
        // mask it.
        let root_err: Mutex<Option<RunError>> = Mutex::new(None);
        // This thread goes on as member 0 and stays MPI-live as such;
        // members 1.. register *before* the fork: a member the scheduler
        // has not started yet must already count as live-and-unblocked,
        // or a census running in the gap could prove a "deadlock" the
        // late starter was about to break. Every member, 0 included,
        // departs when it leaves the body, so while this thread waits at
        // the join the census counts exactly the threads that can still
        // issue MPI calls for this rank.
        for _ in 1..team_size {
            env.world.thread_started(env.rank);
        }
        t.state.stats.forks += 1;
        let checks = TeamChecks::new(&self.sites);
        // Member 0 runs on this thread and carries its state on; what
        // members 1.. counted comes back through `joined`.
        let own_state = Mutex::new(Some(&mut *t.state));
        let joined = Mutex::new(RunStats::default());
        let fork_res = env.omp.fork(t.ctx, Some(team_size), &|ctx| {
            let member_0 = ctx.thread_num() == 0;
            let mut dispatched;
            let state = if member_0 {
                own_state.lock().take().expect("member 0 runs once")
            } else {
                dispatched = ThreadState::dispatched();
                &mut dispatched
            };
            let mut member = SimThread {
                env,
                ctx,
                state,
                checks: Some(&checks),
            };
            let mut member_frame = member.state.take_frame();
            member_frame.extend(parent_frame.iter().cloned());
            let res = self.exec_from(
                &mut member,
                &mut member_frame,
                fidx,
                plan.body_entry,
                Some(plan.end_barrier),
                depth,
            );
            member.state.put_frame(member_frame);
            member.state.return_lease(env);
            if !member_0 {
                joined.lock().add(&member.state.stats);
            }
            if let Err(e) = &res {
                if !is_secondary_error(e) {
                    root_err.lock().get_or_insert_with(|| e.clone());
                }
                member.abort_all(&e.kind);
            }
            env.world.thread_departed(env.rank);
            res.map(|_| ())
        });
        t.state.stats.add(&joined.into_inner());
        env.world.thread_started(env.rank);
        match fork_res {
            Ok(()) => Ok(plan.end_block),
            Err(ForkError::Body(e)) => Err(root_err.into_inner().unwrap_or(e)),
            Err(ForkError::Omp(e)) => {
                // The fork was refused before any member ran: unwind
                // their liveness pre-registration.
                for _ in 0..team_size {
                    env.world.thread_departed(env.rank);
                }
                let at = Locator::Block(fidx, cur);
                Err(RunError::new(RunErrorKind::Omp(e), at, env.rank))
            }
        }
    }

    /// Take one step and execute `instr` in it.
    fn exec_instr(
        &self,
        t: &mut SimThread<'_>,
        frame: &mut Frame,
        instr: &Instr,
        depth: usize,
    ) -> Result<(), Stop> {
        t.state.step(t.env)?;
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
            Instr::Binary { dest, op, lhs, rhs } => {
                let l = self.read(frame, *lhs);
                let r = self.read(frame, *rhs);
                let out = self.binary(*op, l, r)?;
                self.write(frame, *dest, out);
            }
            Instr::ArrayNew {
                dest, len, init, ..
            } => {
                // A negative length, or one the allocator refuses, is the
                // program's error, not the interpreter's abort.
                let n = self.read(frame, *len).as_int();
                let out = usize::try_from(n)
                    .ok()
                    .and_then(|n| Value::filled_array(n, &self.read(frame, *init)))
                    .ok_or(RunErrorKind::BadArrayLength(n))?;
                self.write(frame, *dest, out);
            }
            Instr::Load { dest, arr, idx } => {
                let i = self.read(frame, *idx).as_int();
                let out = with_reg(frame, *arr, |arr| match arr {
                    Value::ArrayInt(a) => {
                        let i = check_bounds(i, a.len())?;
                        Ok::<_, RunErrorKind>(Value::Int(a[i].load(Ordering::Relaxed)))
                    }
                    Value::ArrayFloat(a) => {
                        let i = check_bounds(i, a.len())?;
                        Ok(Value::Float(f64::from_bits(a[i].load(Ordering::Relaxed))))
                    }
                    other => panic!("type-checked load from {other:?}"),
                })?;
                self.write(frame, *dest, out);
            }
            Instr::Store { arr, idx, value } => {
                let i = self.read(frame, *idx).as_int();
                let v = self.read(frame, *value);
                with_reg(frame, *arr, |arr| match arr {
                    Value::ArrayInt(a) => {
                        let i = check_bounds(i, a.len())?;
                        a[i].store(v.as_int(), Ordering::Relaxed);
                        Ok::<_, RunErrorKind>(())
                    }
                    Value::ArrayFloat(a) => {
                        let i = check_bounds(i, a.len())?;
                        a[i].store(v.as_float().to_bits(), Ordering::Relaxed);
                        Ok(())
                    }
                    other => panic!("type-checked store to {other:?}"),
                })?;
            }
            Instr::Intrinsic { dest, intr, args } => {
                let out = self.intrinsic(t, frame, *intr, args);
                self.write(frame, *dest, out);
            }
            Instr::Call { dest, callee, args } => {
                let argv: Vec<Value> = args.iter().map(|a| self.read(frame, *a)).collect();
                if depth >= self.cfg.max_call_depth {
                    return Err(RunErrorKind::StackOverflow.into());
                }
                let ret = self
                    .exec_function(t, *callee, argv, depth + 1)
                    .map_err(Stop::Located)?;
                if let (Some(d), Some(v)) = (dest, ret) {
                    self.write(frame, *d, v);
                }
            }
            Instr::Mpi { dest, op } => {
                t.state.stats.mpi_calls += 1;
                let out = self.exec_mpi(t, frame, op)?;
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
                let _ = write!(line, "[rank {}] ", t.env.rank);
                for (k, a) in args.iter().enumerate() {
                    if k > 0 {
                        line.push(' ');
                    }
                    let _ = write!(line, "{}", self.read(frame, *a));
                }
                t.env.output.lock().push(line);
            }
            Instr::Check(check) => {
                self.exec_check(t, frame, check)?;
            }
        }
        Ok(())
    }

    /// Execute `check`.
    fn exec_check(
        &self,
        t: &mut SimThread<'_>,
        frame: &mut Frame,
        check: &CheckOp,
    ) -> Result<(), RunErrorKind> {
        match check {
            CheckOp::CollectiveCc { color, comm } => {
                // The CC runs on the guarded collective's communicator.
                let handle = comm.map(|v| self.read(frame, v).as_comm()).unwrap_or(0);
                self.run_cc(t, handle, *color)
            }
            CheckOp::ReturnCc { site } => {
                // Wrapped in `single` semantics when inside a team (paper
                // §3: "this function is wrapped into a single pragma"),
                // one region per site, numbered above the source's.
                if t.ctx.in_parallel() {
                    let synth_region = 0x8000_0000u32 | *site;
                    if !t.ctx.enter_single(synth_region) {
                        return Ok(());
                    }
                }
                self.run_cc(t, 0, 0)
            }
            CheckOp::AssertMonothread { what, site } => {
                // Deterministic: within one team encounter, two *distinct*
                // threads reaching the same collective site prove the
                // context is multithreaded, regardless of interleaving.
                // Outside any team the rank's initial thread runs alone.
                let (site, me) = (*site as usize, t.ctx.thread_num());
                if t.checks.is_some_and(|checks| !checks.is_first_at(site, me)) {
                    let fault = RunErrorKind::MonothreadViolation { what };
                    t.abort_all(&fault);
                    return Err(fault);
                }
                Ok(())
            }
            CheckOp::ConcEnter { site } => {
                let overlapping =
                    t.env.conc[*site as usize].fetch_add(1, Ordering::SeqCst) + 1 >= 2;
                // Second execution of a suspect site within one barrier
                // epoch of a team: an ordering error even if the two
                // executions happen not to overlap on this particular
                // schedule. Outside any team, executions are fully
                // ordered by program order and must not count — a
                // suspect function re-called sequentially would
                // otherwise accumulate counts for the rank's lifetime.
                let reexecuted = t.checks.is_some_and(|checks| {
                    checks.executed(*site as usize, t.ctx.barriers_passed()) >= 2
                });
                if overlapping || reexecuted {
                    let fault = RunErrorKind::ConcurrentRegions { site: *site };
                    t.abort_all(&fault);
                    return Err(fault);
                }
                Ok(())
            }
            CheckOp::ConcExit { site } => {
                t.env.conc[*site as usize].fetch_sub(1, Ordering::SeqCst);
                Ok(())
            }
            CheckOp::P2pEpoch => {
                let rows = t
                    .env
                    .world
                    .p2p_census(t.env.rank, t.ctx.is_initial_thread())
                    .map_err(classify_mpi_error)?;
                let unbalanced: Vec<(usize, u64, u64)> = rows
                    .into_iter()
                    .filter(|(_, sent, recvd)| sent != recvd)
                    .collect();
                if unbalanced.is_empty() {
                    return Ok(());
                }
                let fault = RunErrorKind::P2pImbalance { comms: unbalanced };
                t.abort_all(&fault);
                Err(fault)
            }
        }
    }

    /// Execute the `CC` color all-reduce (on the guarded collective's
    /// communicator) and translate a disagreement into the paper's
    /// error report (per-rank collective names).
    fn run_cc(&self, t: &SimThread<'_>, comm: usize, color: u32) -> Result<(), RunErrorKind> {
        let outcome = t
            .env
            .world
            .control_cc_on(t.env.rank, comm, color, t.ctx.is_initial_thread())
            .map_err(classify_mpi_error)?;
        if outcome.unanimous() {
            return Ok(());
        }
        let per_rank = outcome
            .colors
            .iter()
            .map(|&c| color_name(c).into_owned())
            .collect::<Vec<_>>();
        let fault = RunErrorKind::CcMismatch { per_rank };
        t.abort_all(&fault);
        Err(fault)
    }

    fn exec_mpi(
        &self,
        t: &SimThread<'_>,
        frame: &mut Frame,
        op: &MpiOp<IrValue>,
    ) -> Result<Option<Value>, RunErrorKind> {
        let (world, rank) = (t.env.world, t.env.rank);
        let initial = t.ctx.is_initial_thread();
        // `MPI_Recv` and `MPI_Wait` are float-typed in the language;
        // coerce integer payloads.
        let completion = |v| match Value::from_mpi(v) {
            Value::Int(x) => Value::Float(x as f64),
            other => other,
        };
        match op {
            MpiOp::Init { required } => {
                world.init(rank, required.unwrap_or(ThreadLevel::Single));
                Ok(None)
            }
            MpiOp::Finalize => {
                world.finalize(rank, initial).map_err(classify_mpi_error)?;
                Ok(None)
            }
            MpiOp::Send {
                value,
                dest,
                tag,
                comm,
            }
            | MpiOp::Isend {
                value,
                dest,
                tag,
                comm,
            } => {
                let v = self.read(frame, *value).to_mpi();
                let d = self.read(frame, *dest).as_int();
                let tag = self.read(frame, *tag).as_int();
                let c = comm.map(|v| self.read(frame, v).as_comm()).unwrap_or(0);
                if d < 0 {
                    let e = MpiError::ArgError(format!("negative destination {d}"));
                    return Err(RunErrorKind::Mpi(e));
                }
                let d = d as usize;
                if matches!(op, MpiOp::Send { .. }) {
                    world
                        .send_on(rank, c, d, tag, v, initial)
                        .map_err(classify_mpi_error)?;
                    return Ok(None);
                }
                let handle = world
                    .isend(rank, c, d, tag, v, initial)
                    .map_err(classify_mpi_error)?;
                Ok(Some(Value::Request(handle)))
            }
            MpiOp::Recv { src, tag, comm } | MpiOp::Irecv { src, tag, comm } => {
                let s = self.read(frame, *src).as_int();
                let tag = self.read(frame, *tag).as_int();
                let c = comm.map(|v| self.read(frame, v).as_comm()).unwrap_or(0);
                // Wildcard sentinels pass through; the world rejects
                // other negative sources/tags.
                if matches!(op, MpiOp::Recv { .. }) {
                    let v = world
                        .recv_on(rank, c, s, tag, initial)
                        .map_err(classify_mpi_error)?;
                    return Ok(Some(completion(v)));
                }
                let handle = world
                    .irecv(rank, c, s, tag, initial)
                    .map_err(classify_mpi_error)?;
                Ok(Some(Value::Request(handle)))
            }
            MpiOp::Wait { request } => {
                let h = self.read(frame, *request).as_request();
                let v = world.wait(rank, h, initial).map_err(classify_mpi_error)?;
                Ok(Some(completion(v)))
            }
            MpiOp::Waitall { requests } => {
                for r in requests {
                    let h = self.read(frame, *r).as_request();
                    world.wait(rank, h, initial).map_err(classify_mpi_error)?;
                }
                Ok(None)
            }
            MpiOp::CommWorld => Ok(Some(Value::Comm(0))),
            MpiOp::CommSplit { parent, color, key } => {
                let p = self.read(frame, *parent).as_comm();
                let c = self.read(frame, *color).as_int();
                let k = self.read(frame, *key).as_int();
                let handle = world
                    .comm_split(rank, p, c, k, initial)
                    .map_err(classify_mpi_error)?;
                Ok(Some(Value::Comm(handle)))
            }
            MpiOp::CommDup { comm } => {
                let p = self.read(frame, *comm).as_comm();
                let handle = world
                    .comm_dup(rank, p, initial)
                    .map_err(classify_mpi_error)?;
                Ok(Some(Value::Comm(handle)))
            }
            MpiOp::Collective {
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
                            let e = MpiError::ArgError(format!("negative root {x}"));
                            return Err(RunErrorKind::Mpi(e));
                        }
                        Some(x as usize)
                    }
                    None => None,
                };
                let c = comm.map(|v| self.read(frame, v).as_comm()).unwrap_or(0);
                let ty = payload.as_ref().map(|p| p.ty());
                let sig = Signature::collective((*kind).into(), *reduce_op, root_v, ty);
                let out = world
                    .collective_on(rank, c, sig, payload, initial)
                    .map_err(classify_mpi_error)?;
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
        t: &SimThread<'_>,
        frame: &Frame,
        intr: Intrinsic,
        args: &[IrValue],
    ) -> Value {
        let arg = |i: usize| self.read(frame, args[i]);
        match intr {
            Intrinsic::Rank => Value::Int(t.env.rank as i64),
            Intrinsic::Size => Value::Int(t.env.world.size() as i64),
            Intrinsic::ThreadNum => Value::Int(t.ctx.thread_num() as i64),
            Intrinsic::NumThreads => Value::Int(t.ctx.num_threads() as i64),
            Intrinsic::InParallel => Value::Bool(t.ctx.in_parallel()),
            Intrinsic::Sqrt => Value::Float(arg(0).as_float().sqrt()),
            Intrinsic::Abs => match arg(0) {
                Value::Int(x) => Value::Int(x.wrapping_abs()),
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
                Value::ArrayInt(a) => Value::Int(a.len() as i64),
                Value::ArrayFloat(a) => Value::Int(a.len() as i64),
                v => panic!("type-checked len on {v:?}"),
            },
            Intrinsic::ArrayNew => unreachable!("lowered to Instr::ArrayNew"),
        }
    }

    fn binary(&self, op: BinOp, l: Value, r: Value) -> Result<Value, RunErrorKind> {
        use BinOp::*;
        Ok(match (op, &l, &r) {
            (Add, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
            (Sub, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_sub(*b)),
            (Mul, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_mul(*b)),
            (Div, Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    return Err(RunErrorKind::DivisionByZero);
                }
                Value::Int(a.wrapping_div(*b))
            }
            (Rem, Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    return Err(RunErrorKind::DivisionByZero);
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
    matches!(
        &e.kind,
        RunErrorKind::Mpi(MpiError::Aborted(_))
            | RunErrorKind::ThreadBarrier(BarrierError::Poisoned)
    )
}

/// Where the uninstrumented module has instruction `ii` of block `b` of
/// function `f` (index `fi`): instrumentation only inserts checks, so the
/// checks before it are the difference. A check is at what it guards: the
/// next instruction, the block's terminator (a return `CC`, concurrency
/// exits) or the block (a concurrency enter, at a region's body entry).
fn plain_at(f: &FuncIr, fi: usize, b: BlockId, ii: usize) -> Locator {
    let instrs = f.instrs(b);
    match &instrs[ii].0 {
        Instr::Check(CheckOp::ConcEnter { .. }) => Locator::Block(fi, b),
        Instr::Check(CheckOp::ReturnCc { .. } | CheckOp::ConcExit { .. }) => Locator::Cond(fi, b),
        _ => {
            let checks = instrs[..ii]
                .iter()
                .filter(|(i, _)| matches!(i, Instr::Check(_)))
                .count();
            Locator::Instr(fi, b, ii - checks)
        }
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

/// `i` as an index into an array of `len` elements.
fn check_bounds(i: i64, len: usize) -> Result<usize, RunErrorKind> {
    if i < 0 || i as usize >= len {
        Err(RunErrorKind::IndexOutOfBounds { index: i, len })
    } else {
        Ok(i as usize)
    }
}

/// Human name for a CC color. Every known color has a static name; only
/// the unknown-color fallback allocates.
fn color_name(color: u32) -> std::borrow::Cow<'static, str> {
    if color == 0 {
        return "<return/exit>".into();
    }
    if color == COLOR_COMM_SPLIT {
        return "MPI_Comm_split".into();
    }
    if color == COLOR_COMM_DUP {
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
    // Registers written inside the region vs. assigned outside it (a
    // parameter counts as assigned on entry).
    let mut written: HashSet<Reg> = HashSet::new();
    let mut assigned_outside: HashSet<Reg> = f.params.iter().copied().collect();
    for (id, b) in f.iter_blocks() {
        let defs = block_defs(b, f.instrs(id));
        if in_region.contains(&id) {
            written.extend(defs);
        } else {
            assigned_outside.extend(defs);
        }
    }
    let mut shared_regs: Vec<Reg> = written.intersection(&assigned_outside).copied().collect();
    shared_regs.sort_unstable();
    RegionPlan {
        body_entry,
        end_barrier,
        end_block,
        shared_regs,
    }
}

/// The registers block `b`, whose instructions are `instrs`, writes:
/// every instruction's destination and the registers its directive sets.
fn block_defs<'a>(
    b: &'a parcoach_ir::func::BasicBlock,
    instrs: &'a [(Instr, Span)],
) -> impl Iterator<Item = Reg> + 'a {
    let directive = match b.directive() {
        Some(
            Directive::SingleBegin { chosen, .. }
            | Directive::MasterBegin { chosen, .. }
            | Directive::SectionBegin { chosen, .. },
        ) => [Some(*chosen), None],
        Some(Directive::PForInit { var, chunk_end, .. }) => [Some(*var), Some(*chunk_end)],
        _ => [None, None],
    };
    instrs
        .iter()
        .filter_map(|(i, _)| i.dest())
        .chain(directive.into_iter().flatten())
}
