//! The end-to-end static phase: reconcile the memo table, settle the
//! call contexts, run the verification phases over the functions whose
//! findings the table cannot serve, and assemble the warning report +
//! the instrumentation plan from the per-function findings.

use crate::comm::{CommDef, CommId};
use crate::concurrency::check_concurrency;
use crate::context::CallContexts;
use crate::facts::AnalysisCx;
use crate::intern::Sym;
use crate::matching::{check_matching, MatchingOptions};
use crate::mono::check_monothread;
use crate::pw::InitialContext;
use crate::query::{span_at, Locator};
use crate::report::{StaticReport, StaticWarning, WarningCore, WarningKind};
use parcoach_front::ast::ThreadLevel;
use parcoach_front::span::Span;
use parcoach_ir::func::Module;
use parcoach_ir::types::BlockId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for the static phase.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisOptions {
    /// Context `main` starts in (the paper's "initial level" option).
    pub entry_context: InitialContext,
    /// Apply the balanced-arms refinement in the matching phase.
    pub refine_matching: bool,
    /// Emit `InsufficientThreadLevel` warnings.
    pub check_thread_level: bool,
    /// Run the non-blocking request life-cycle pass (`request`). On
    /// request-free modules disabling it is report-invisible — pinned by
    /// the `no_request_modules_match_blocking_path` property test.
    pub check_requests: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            entry_context: InitialContext::Sequential,
            refine_matching: true,
            check_thread_level: true,
            check_requests: true,
        }
    }
}

/// Wall-clock breakdown of one static-analysis run.
///
/// The sequential stages (`contexts`, `facts`, `p2p`, `requests`) are
/// plain wall times; the per-function stages (`mono`, `concurrency`,
/// `matching`) are summed across pool workers, so at `jobs > 1` they
/// report aggregate CPU time, not elapsed time. `total` is the true
/// end-to-end wall clock. The request/communicator register resolutions
/// are part of `facts`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Interprocedural context fixpoint (incl. parallelism words).
    pub contexts: Duration,
    /// Fact-store construction: dom/post-dom trees, frontiers, loops,
    /// block→event maps, register resolutions, interning.
    pub facts: Duration,
    /// Phase 1 — monothread contexts.
    pub mono: Duration,
    /// Phase 2 — sequential order of collectives.
    pub concurrency: Duration,
    /// Phase 3 — inter-process matching (Algorithm 1, PDF+).
    pub matching: Duration,
    /// Module-wide point-to-point matching.
    pub p2p: Duration,
    /// Request life-cycle pass.
    pub requests: Duration,
    /// End-to-end wall clock of the whole analysis.
    pub total: Duration,
}

impl PhaseTimings {
    /// `(phase name, duration)` rows in pipeline order — the shape the
    /// CLI printer and the bench JSON writer share.
    pub fn lines(&self) -> [(&'static str, Duration); 8] {
        [
            ("contexts", self.contexts),
            ("facts", self.facts),
            ("mono", self.mono),
            ("concurrency", self.concurrency),
            ("matching", self.matching),
            ("p2p", self.p2p),
            ("requests", self.requests),
            ("total", self.total),
        ]
    }
}

/// Atomic accumulator for the per-function phases (workers add their
/// share; relaxed ordering is fine — the sink is read after the pool
/// joins).
#[derive(Default)]
struct TimingSink {
    contexts: AtomicU64,
    facts: AtomicU64,
    mono: AtomicU64,
    concurrency: AtomicU64,
    matching: AtomicU64,
    p2p: AtomicU64,
    requests: AtomicU64,
}

impl TimingSink {
    fn add(cell: &AtomicU64, since: Instant) {
        cell.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn into_timings(self, total: Duration) -> PhaseTimings {
        let d = |c: AtomicU64| Duration::from_nanos(c.into_inner());
        PhaseTimings {
            contexts: d(self.contexts),
            facts: d(self.facts),
            mono: d(self.mono),
            concurrency: d(self.concurrency),
            matching: d(self.matching),
            p2p: d(self.p2p),
            requests: d(self.requests),
            total,
        }
    }
}

/// Everything the three per-function phases read beyond the function's
/// own structure: the key of its stored findings, kept beside them. The
/// structure itself is guarded by the red-green pass, which empties the
/// slot when the fingerprint moves. (The request tables are not here:
/// only the module-wide p2p and life-cycle passes read them.)
#[derive(Debug, Default)]
struct PhaseInputs {
    /// Reachable from the entry point? An unreachable function has no
    /// findings, whatever its other inputs are.
    reachable: bool,
    /// The initial context the function was analysed under.
    ctx: InitialContext,
    /// For each call site, in [`CallSummary`](crate::query::CallSummary)
    /// order: does the callee execute collectives (is the call an
    /// event)?
    callee_bearing: Vec<bool>,
    /// The class of each `comm`-typed register with how it was created —
    /// all the phases can see of the module's communicator table, whose
    /// ids label warnings. Empty for most functions.
    comms: Vec<(CommId, CommDef)>,
    /// [`AnalysisOptions::refine_matching`], the one option the phases
    /// read.
    refine: bool,
}

/// Is each call site of function `fi` a collective event?
fn callee_bearing(ctxs: &CallContexts, fi: usize) -> impl Iterator<Item = bool> + '_ {
    let sites = &ctxs.summaries[fi].call_sites;
    sites
        .iter()
        .map(|(_, _, callee)| ctxs.callee_bears(*callee))
}

impl PhaseInputs {
    /// The inputs of function `fidx` as this check sees them.
    fn of(cx: &AnalysisCx, fidx: usize, opts: &AnalysisOptions) -> Self {
        PhaseInputs {
            reachable: cx.is_reachable(fidx),
            ctx: cx.ctxs.initial[fidx],
            callee_bearing: callee_bearing(&cx.ctxs, fidx).collect(),
            comms: cx.comms.view(&cx.module.funcs[fidx].name),
            refine: opts.refine_matching,
        }
    }

    /// Would [`PhaseInputs::of`] return `self`? Decided without building
    /// anything; the communicator table is consulted only for a function
    /// that read it.
    fn still_hold(&self, cx: &AnalysisCx, fidx: usize, opts: &AnalysisOptions) -> bool {
        if !self.reachable || !cx.is_reachable(fidx) {
            return self.reachable == cx.is_reachable(fidx);
        }
        self.ctx == cx.ctxs.initial[fidx]
            && self.refine == opts.refine_matching
            && callee_bearing(&cx.ctxs, fidx).eq(self.callee_bearing.iter().copied())
            && (self.comms.is_empty() || self.comms == cx.comms.view(&cx.module.funcs[fidx].name))
    }
}

/// The three per-function phases' findings for one function — the value
/// of its `analysis` slot. Span-free: positions are [`Locator`]s, callees
/// are function indices, and nothing is numbered by a per-check arena.
#[derive(Debug, Default)]
pub(crate) struct FuncAnalysis {
    inputs: PhaseInputs,
    warnings: Vec<WarningCore>,
    /// Collective blocks needing `CC` instrumentation (phases 1–3, in
    /// phase order).
    suspects: Vec<BlockId>,
    /// Phase-1 suspects also need monothread asserts.
    monothread_checks: Vec<BlockId>,
    /// Phase-2 `(region, site)` pairs, in discovery order (site ids are
    /// renumbered globally when the report is assembled).
    concurrency_sites: Vec<(u32, u32)>,
    needs_cc: bool,
    tainted: Vec<Sym>,
    required_level: Option<ThreadLevel>,
    pdf_candidates: usize,
    pdf_confirmed: usize,
}

/// Phases 1–3 for one function. Pure: reads only the shared fact store,
/// so every function can run on a different worker. An entry-unreachable
/// function is skipped wholesale — its operations never execute, so any
/// diagnosis would be a guaranteed false positive (and its suspects
/// would bloat the plan).
fn analyze_function(
    cx: &AnalysisCx,
    fidx: usize,
    opts: &AnalysisOptions,
    sink: &TimingSink,
) -> FuncAnalysis {
    let mut out = FuncAnalysis {
        inputs: PhaseInputs::of(cx, fidx, opts),
        ..FuncAnalysis::default()
    };
    if !out.inputs.reachable {
        return out;
    }

    // Phase 1 — monothread contexts.
    let t = Instant::now();
    let mono = check_monothread(cx, fidx);
    TimingSink::add(&sink.mono, t);
    out.required_level = mono.required_level;
    out.suspects.extend(mono.suspects.iter().copied());
    out.monothread_checks.extend(mono.suspects.iter().copied());
    out.needs_cc |= !mono.suspects.is_empty();
    out.warnings.extend(mono.warnings);

    // Phase 2 — sequential order of collectives (per communicator).
    let t = Instant::now();
    let conc = check_concurrency(cx, fidx);
    TimingSink::add(&sink.concurrency, t);
    out.suspects.extend(conc.suspects.iter().copied());
    out.concurrency_sites
        .extend(conc.sites.iter().map(|(region, site)| (region.0, *site)));
    out.needs_cc |= !conc.suspects.is_empty();
    out.warnings.extend(conc.warnings);
    if let Some(l) = conc.required_level {
        out.required_level = Some(out.required_level.map_or(l, |cur| cur.max(l)));
    }

    // Phase 3 — inter-process matching (Algorithm 1, per communicator).
    let t = Instant::now();
    let mat = check_matching(
        cx,
        fidx,
        MatchingOptions {
            refine: opts.refine_matching,
        },
    );
    TimingSink::add(&sink.matching, t);
    out.suspects.extend(mat.suspects.iter().copied());
    out.needs_cc |= !mat.suspects.is_empty();
    out.tainted = mat.tainted_callees;
    out.pdf_candidates = mat.candidates_before_refinement;
    out.pdf_confirmed = mat.candidates_confirmed;
    out.warnings.extend(mat.warnings);
    out
}

/// Observe a cancellation request, if a token is installed. Called at
/// phase boundaries: a cancelled check leaves what it already computed
/// in the table (derived from the reconciled IR, so it remains valid —
/// the next check simply starts warmer).
fn checkpoint(token: Option<&crate::cancel::CancelToken>) -> Result<(), crate::cancel::Cancelled> {
    match token {
        Some(t) if t.is_cancelled() => Err(crate::cancel::Cancelled),
        _ => Ok(()),
    }
}

/// The static phase, once: the analysis of `m` over the table `db` —
/// created empty for a one-shot check, kept by a resident document —
/// with a per-phase breakdown and optional cooperative cancellation at
/// phase boundaries. [`crate::session::AnalysisSession`] is the public
/// surface.
pub(crate) fn analyze_module(
    m: &Module,
    opts: &AnalysisOptions,
    pool: &parcoach_pool::Pool,
    db: &mut crate::query::QueryDb,
    token: Option<&crate::cancel::CancelToken>,
) -> Result<(StaticReport, PhaseTimings), crate::cancel::Cancelled> {
    let sink = TimingSink::default();
    let t0 = Instant::now();
    checkpoint(token)?;

    // Red-green pass: drop what the edits since the last check changed,
    // so the lookups below only miss on real changes.
    db.reconcile(m);

    // Interprocedural contexts: the stored fixpoint when no edit changed
    // what it read, a fresh one otherwise.
    let t = Instant::now();
    let ctxs = crate::context::compute_contexts(m, opts.entry_context, pool, db);
    TimingSink::add(&sink.contexts, t);
    checkpoint(token)?;

    // Which functions' findings were derived under other inputs than
    // this check's (or never)? Only those get facts, and only those run
    // the phases.
    let t = Instant::now();
    let mut cx = AnalysisCx::new(m, ctxs, db);
    let stale: Vec<usize> = (0..m.funcs.len())
        .filter(|&fi| {
            let stored = &mut db.func(fi).analysis;
            stored
                .get_if(|a| a.inputs.still_hold(&cx, fi, opts))
                .is_none()
        })
        .collect();
    let live: Vec<usize> = stale
        .iter()
        .copied()
        .filter(|&fi| cx.is_reachable(fi))
        .collect();
    cx.derive(&live, pool, db);
    TimingSink::add(&sink.facts, t);
    checkpoint(token)?;

    // Per-function fan-out: the phases only read the shared facts.
    let fresh = pool.par_map(&stale, |&fi| {
        Arc::new(analyze_function(&cx, fi, opts, &sink))
    });
    for (&fi, fa) in stale.iter().zip(fresh) {
        db.func(fi).analysis.put(fa);
    }
    checkpoint(token)?;

    // Assemble the report from the per-function findings, stored or
    // fresh alike, in module order.
    let ctxs = &cx.ctxs;
    let mut report = StaticReport {
        contexts: ctxs.initial.clone(),
        ..StaticReport::default()
    };

    // Interprocedural phase-1 findings: collective-bearing functions
    // called from multithreaded contexts. Only for call sites that can
    // actually execute — see `CallContexts::reachable`.
    for &(site, callee) in &ctxs.multithreaded_calls {
        if !ctxs.reachable[site.func()] {
            continue;
        }
        report.warnings.push(StaticWarning {
            kind: WarningKind::MultithreadedCall,
            func: m.funcs[site.func()].name.clone(),
            message: format!(
                "`{}` executes MPI collectives but is called from a \
                 multithreaded context; every thread of the team will run its \
                 collectives",
                m.funcs[callee].name
            ),
            span: span_at(m, site),
            related: Vec::new(),
        });
    }

    let mut needs_cc = vec![false; m.funcs.len()];
    let mut tainted: Vec<usize> = Vec::new();
    let mut required_level = ThreadLevel::Single;
    // Concurrency sites are numbered per function, densely from 0; the
    // plan needs them unique across functions (they would collide at run
    // time).
    let mut next_site = 0u32;
    for (fi, f) in m.funcs.iter().enumerate() {
        let fa = db.func(fi).analysis.peek().expect("stored or just put");
        if let Some(l) = fa.required_level {
            required_level = required_level.max(l);
        }
        for b in &fa.suspects {
            report.plan.suspect_collectives.push((f.name.clone(), *b));
        }
        for b in &fa.monothread_checks {
            report.plan.monothread_checks.push((f.name.clone(), *b));
        }
        let base = next_site;
        for &(region, site) in &fa.concurrency_sites {
            let global = base + site;
            report
                .plan
                .concurrency_sites
                .push((f.name.clone(), region, global));
            next_site = next_site.max(global + 1);
        }
        needs_cc[fi] = fa.needs_cc;
        tainted.extend(fa.tainted.iter().map(|s| s.0 as usize));
        report.pdf_candidates += fa.pdf_candidates;
        report.pdf_confirmed += fa.pdf_confirmed;
        report
            .warnings
            .extend(fa.warnings.iter().map(|w| w.materialize(m)));
    }

    // Functions called under divergent conditions need CC inside their
    // bodies too — a mismatch pairs *their* collectives across processes.
    // Propagate down the call graph, over the call summaries.
    while let Some(fi) = tainted.pop() {
        if std::mem::replace(&mut needs_cc[fi], true) {
            continue;
        }
        for &(_, _, callee) in &ctxs.summaries[fi].call_sites {
            tainted.extend(callee.filter(|&ci| ctxs.collective_bearing[ci] && !needs_cc[ci]));
        }
    }
    report.plan.cc_functions = m
        .funcs
        .iter()
        .zip(&needs_cc)
        .filter(|(_, cc)| **cc)
        .map(|(f, _)| f.name.clone())
        .collect();
    report.plan.cc_functions.sort_unstable();

    // Point-to-point matching (module-wide: sends in one function may
    // feed receives in another). Sequential and after the merge, so its
    // warning order is identical at any pool width. The request
    // resolution (already in the fact store) feeds the matcher (deferred
    // completion of non-blocking receives) and the life-cycle pass.
    // The span-free matching core is served wholesale from the table
    // when no function's p2p inputs (sites, waits, comm/request tables,
    // finalize placement) changed and reachability is what it was
    // matched under; warning spans are read from the live IR either way.
    let t = Instant::now();
    let core = match db.p2p.get_if(|(reachable, _)| *reachable == ctxs.reachable) {
        Some((_, core)) => core.clone(),
        None => {
            let mut cfg_of = |fi: usize| db.cfg_of(fi, &m.funcs[fi], false);
            let core = Arc::new(crate::p2p::p2p_core(&cx, &mut cfg_of));
            db.p2p.put((ctxs.reachable.clone(), core.clone()));
            core
        }
    };
    let p2p = crate::p2p::materialize_p2p(&core, m);
    TimingSink::add(&sink.p2p, t);
    report.warnings.extend(p2p.warnings);
    report.plan.p2p_epoch_functions = p2p.epoch_functions;
    checkpoint(token)?;

    // Request life-cycle (leaked request / wait-without-post). A leaked
    // request leaves traffic permanently unconsumed, so the p2p epoch
    // census must also be placed when only this pass warns.
    if opts.check_requests {
        let t = Instant::now();
        let req = crate::request::check_requests(&cx);
        TimingSink::add(&sink.requests, t);
        if !req.warnings.is_empty() && report.plan.p2p_epoch_functions.is_empty() {
            report.plan.p2p_epoch_functions = crate::p2p::finalize_functions(m, ctxs);
        }
        report.warnings.extend(req.warnings);
    }

    // Thread-level adequacy: the level the program requests via
    // `MPI_Init`/`MPI_Init_thread` (the highest, if it has several)
    // against the level its MPI calls require. The warning sits at the
    // first init of the module.
    let inits = ctxs.summaries.iter().enumerate();
    let mut inits = inits.filter_map(|(fi, s)| s.init.map(|(b, ii, level)| (fi, b, ii, level)));
    report.required_level = required_level;
    report.requested_level = inits.clone().map(|(.., level)| level).max();
    if opts.check_thread_level {
        if let Some(req) = report.requested_level {
            if required_level > req {
                let first = inits.next().map(|(fi, b, ii, _)| Locator::Instr(fi, b, ii));
                report.warnings.push(StaticWarning {
                    kind: WarningKind::InsufficientThreadLevel,
                    func: "main".into(),
                    message: format!(
                        "program requests {} but its MPI calls require at least {}",
                        req, required_level
                    ),
                    span: first.map_or(Span::DUMMY, |loc| span_at(m, loc)),
                    related: Vec::new(),
                });
            }
        }
    }

    // Deterministic ordering for stable output.
    report
        .plan
        .suspect_collectives
        .sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    report.plan.suspect_collectives.dedup();
    report
        .plan
        .monothread_checks
        .sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    report.plan.monothread_checks.dedup();
    Ok((report, sink.into_timings(t0.elapsed())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcoach_front::parse_and_check;
    use parcoach_ir::lower::lower_program;

    use crate::session::AnalysisSession;

    fn analyze(src: &str) -> StaticReport {
        let unit = parse_and_check("t.mh", src).expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        AnalysisSession::builder().build().check_module(&m)
    }

    #[test]
    fn clean_hybrid_program() {
        let r = analyze(
            "fn main() {
                MPI_Init_thread(SERIALIZED);
                parallel num_threads(4) {
                    pfor (i in 0..100) { let x = i * 2; }
                    single { MPI_Barrier(); }
                }
                MPI_Finalize();
            }",
        );
        assert!(r.is_clean(), "{:#?}", r.warnings);
        assert_eq!(r.required_level, ThreadLevel::Serialized);
        assert_eq!(r.requested_level, Some(ThreadLevel::Serialized));
        assert!(r.plan.cc_functions.is_empty());
    }

    #[test]
    fn insufficient_thread_level() {
        let r = analyze(
            "fn main() {
                MPI_Init();
                parallel { single { MPI_Barrier(); } }
                MPI_Finalize();
            }",
        );
        assert_eq!(r.count(WarningKind::InsufficientThreadLevel), 1);
    }

    #[test]
    fn funneled_is_enough_for_master() {
        let r = analyze(
            "fn main() {
                MPI_Init_thread(FUNNELED);
                parallel { master { MPI_Barrier(); } }
                MPI_Finalize();
            }",
        );
        assert_eq!(r.count(WarningKind::InsufficientThreadLevel), 0);
    }

    #[test]
    fn mismatch_plus_multithreaded_together() {
        let r = analyze(
            "fn main() {
                parallel {
                    if (thread_num() == 0) {
                        critical { MPI_Barrier(); }
                    }
                }
            }",
        );
        assert!(r.count(WarningKind::MultithreadedCollective) >= 1);
        assert!(r.count(WarningKind::CollectiveMismatch) >= 1);
        assert!(!r.plan.cc_functions.is_empty());
    }

    #[test]
    fn leaked_request_places_epoch_census() {
        // The only warning is the request-pass leak: the census must
        // still be placed at the finalize so the run catches it.
        let r = analyze(
            "fn main() {
                MPI_Init();
                let peer = size() - 1 - rank();
                let rr = MPI_Irecv(peer, 5);
                MPI_Send(1.0, peer, 5);
                MPI_Finalize();
            }",
        );
        assert_eq!(
            r.count(WarningKind::UnwaitedRequest),
            1,
            "{:#?}",
            r.warnings
        );
        assert_eq!(r.plan.p2p_epoch_functions, vec!["main".to_string()]);
    }

    #[test]
    fn whole_team_nonblocking_requires_multiple() {
        let r = analyze(
            "fn main() {
                MPI_Init_thread(SERIALIZED);
                let peer = size() - 1 - rank();
                parallel num_threads(2) {
                    let s = MPI_Isend(thread_num(), peer, 3);
                    let v = MPI_Wait(s);
                }
                MPI_Finalize();
            }",
        );
        assert_eq!(r.required_level, ThreadLevel::Multiple);
        assert_eq!(r.count(WarningKind::InsufficientThreadLevel), 1);
        // Non-blocking p2p in a team is not itself an error.
        assert_eq!(r.count(WarningKind::MultithreadedCollective), 0);
    }

    #[test]
    fn correct_nonblocking_exchange_is_clean() {
        let r = analyze(
            "fn main() {
                MPI_Init();
                let peer = size() - 1 - rank();
                let rr = MPI_Irecv(MPI_ANY_SOURCE, MPI_ANY_TAG);
                let ss = MPI_Isend(rank() + 1, peer, 5);
                MPI_Waitall(rr, ss);
                MPI_Finalize();
            }",
        );
        assert!(r.is_clean(), "{:#?}", r.warnings);
        assert!(r.plan.p2p_epoch_functions.is_empty());
    }

    #[test]
    fn tainted_callee_gets_cc() {
        let r = analyze(
            "fn exchange() { MPI_Barrier(); MPI_Allreduce(1, SUM); }
             fn main() { if (rank() == 0) { exchange(); } }",
        );
        assert!(
            r.plan.cc_functions.contains(&"exchange".to_string()),
            "divergently-called function must be CC'd: {:?}",
            r.plan.cc_functions
        );
        assert!(r.plan.cc_functions.contains(&"main".to_string()));
    }

    #[test]
    fn taint_propagates_transitively() {
        let r = analyze(
            "fn leaf() { MPI_Barrier(); }
             fn mid() { leaf(); }
             fn main() { if (rank() == 0) { mid(); } }",
        );
        assert!(r.plan.cc_functions.contains(&"mid".to_string()));
        assert!(r.plan.cc_functions.contains(&"leaf".to_string()));
    }

    #[test]
    fn site_ids_globally_unique() {
        let r = analyze(
            "fn a() {
                parallel {
                    single nowait { MPI_Barrier(); }
                    single { MPI_Barrier(); }
                }
             }
             fn b() {
                parallel {
                    single nowait { MPI_Allreduce(1, SUM); }
                    single { MPI_Allreduce(1, SUM); }
                }
             }
             fn main() { a(); b(); }",
        );
        let mut per_pair: Vec<u32> = r.plan.concurrency_sites.iter().map(|s| s.2).collect();
        per_pair.sort_unstable();
        per_pair.dedup();
        // Two clusters (one per function) → two distinct global site ids.
        assert_eq!(per_pair.len(), 2, "{:?}", r.plan.concurrency_sites);
    }

    #[test]
    fn contexts_recorded_for_all_functions() {
        let r = analyze(
            "fn w() { let x = 1; }
             fn main() { parallel { w(); } }",
        );
        assert_eq!(r.contexts.len(), 2);
    }

    /// What the module-level passes used to find by walking every
    /// instruction of the module — which functions can draw a request
    /// warning, where `MPI_Init` and `MPI_Finalize` are, which level is
    /// requested — they now read from the call summaries: same findings.
    #[test]
    fn summary_facts_replace_whole_module_walks() {
        let lower = |src: &str| {
            let unit = parse_and_check("t.mh", src).expect("valid");
            lower_program(&unit.program, &unit.signatures)
        };
        let helpers = |leak: &str| {
            let mut src = String::from("fn setup() {\n    MPI_Init_thread(FUNNELED);\n}\n");
            for i in 0..48 {
                let body = if i == 7 { leak } else { "" };
                src += &format!(
                    "fn f{i}() {{\n    MPI_Send(1.0, 0, {i});\n{body}    let v = MPI_Recv(0, {i});\n}}\n"
                );
            }
            src += "fn main() {\n    setup();\n";
            for i in 0..48 {
                src += &format!("    f{i}();\n");
            }
            src + "    parallel { single { MPI_Barrier(); } }\n    MPI_Finalize();\n}\n"
        };

        // Request-free, 50 functions: the life-cycle pass has nothing to
        // look at, on or off.
        let m = lower(&helpers(""));
        assert_eq!(m.funcs.len(), 50);
        let on = AnalysisSession::builder().build().check_module(&m);
        let off = AnalysisSession::builder()
            .check_requests(false)
            .build()
            .check_module(&m);
        assert_eq!(format!("{on:?}"), format!("{off:?}"));
        // The init is in a helper: level and position are still found.
        assert_eq!(on.requested_level, Some(ThreadLevel::Funneled));
        assert_eq!(on.required_level, ThreadLevel::Serialized);
        let level: Vec<_> = on
            .warnings
            .iter()
            .filter(|w| w.kind == WarningKind::InsufficientThreadLevel)
            .collect();
        assert_eq!(level.len(), 1, "{:#?}", on.warnings);
        let src = helpers("");
        let init = src.find("MPI_Init_thread").unwrap() as u32;
        assert_eq!(level[0].span.lo, init);
        assert_eq!(on.warnings.len(), 1, "{:#?}", on.warnings);
        assert!(on.plan.p2p_epoch_functions.is_empty());

        // One leaked `MPI_Irecv`, in the 9th function: one warning, where
        // the post is, and the census where the finalize is.
        let src = helpers("    let r = MPI_Irecv(0, 99);\n");
        let leaky = AnalysisSession::builder()
            .build()
            .check_module(&lower(&src));
        let leaks: Vec<_> = leaky
            .warnings
            .iter()
            .filter(|w| w.kind == WarningKind::UnwaitedRequest)
            .collect();
        assert_eq!(leaks.len(), 1, "{:#?}", leaky.warnings);
        assert_eq!(leaks[0].func, "f7");
        assert_eq!(leaks[0].span.lo, src.find("MPI_Irecv").unwrap() as u32);
        assert_eq!(leaky.plan.p2p_epoch_functions, ["main"]);
        let kinds: Vec<_> = leaky.warnings.iter().map(|w| w.kind).collect();
        assert_eq!(
            kinds,
            [
                WarningKind::UnmatchedP2p,
                WarningKind::UnwaitedRequest,
                WarningKind::InsufficientThreadLevel
            ]
        );
    }

    /// The session's timed run is behaviorally identical to an untimed
    /// one and records every phase.
    #[test]
    fn timed_analysis_matches_untimed_and_covers_phases() {
        let unit = parse_and_check(
            "t.mh",
            "fn exchange() { MPI_Barrier(); }
             fn main() {
                 MPI_Init();
                 if (rank() == 0) { exchange(); }
                 let peer = size() - 1 - rank();
                 let rr = MPI_Irecv(peer, 5);
                 MPI_Send(1.0, peer, 5);
                 let v = MPI_Wait(rr);
                 MPI_Finalize();
             }",
        )
        .expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        let plain = AnalysisSession::builder().build().check_module(&m);
        let mut timed_session = AnalysisSession::builder().build();
        let timed = timed_session.check_module(&m);
        let t = *timed_session.timings().expect("timings recorded");
        assert_eq!(format!("{plain:?}"), format!("{timed:?}"));
        assert!(t.total > Duration::ZERO);
        // Every phase ran (well-formed rows, total listed last).
        let lines = t.lines();
        assert_eq!(lines.len(), 8);
        assert_eq!(lines[lines.len() - 1].0, "total");
        assert!(t.contexts + t.facts <= t.total * 2, "sane magnitudes");
    }

    /// A pre-cancelled token aborts at the first checkpoint; a fresh
    /// token lets the same session produce the normal report, and an
    /// expired deadline cancels like an explicit request.
    #[test]
    fn cancellation_observed_at_phase_boundaries() {
        let unit = parse_and_check("t.mh", "fn main() { if (rank() == 0) { MPI_Barrier(); } }")
            .expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        let mut s = AnalysisSession::builder().build();
        let cancelled = crate::cancel::CancelToken::new();
        cancelled.cancel();
        assert!(s.check_module_cancellable(&m, &cancelled).is_err());
        let expired = crate::cancel::CancelToken::with_deadline(Duration::ZERO);
        assert!(s.check_module_cancellable(&m, &expired).is_err());
        let fresh = crate::cancel::CancelToken::new();
        let report = s
            .check_module_cancellable(&m, &fresh)
            .expect("not cancelled");
        let cold = AnalysisSession::builder().build().check_module(&m);
        assert_eq!(format!("{report:?}"), format!("{cold:?}"));
    }

    #[test]
    fn report_renders() {
        let unit = parse_and_check(
            "demo.mh",
            "fn main() { if (rank() == 0) { MPI_Barrier(); } }",
        )
        .expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        let r = AnalysisSession::builder().build().check_module(&m);
        let text = r.render(&unit.source_map);
        assert!(text.contains("collective mismatch"), "{text}");
        assert!(text.contains("demo.mh:"), "{text}");
        assert!(text.contains("warning(s)"), "{text}");
    }
}
