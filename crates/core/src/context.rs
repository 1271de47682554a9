//! Interprocedural call-context analysis.
//!
//! The paper treats the word prefix at function entry as "unknown at
//! compile-time" and lets the programmer pick an initial level. We go one
//! step further (the original PARCOACH does the same interprocedurally):
//! the initial context of each function is derived from the parallelism
//! words at its call sites, joined over all callers, with `main` fixed at
//! [`InitialContext::Sequential`]. The fixpoint is an ascending iteration
//! over the (finite, 3-point) context lattice.
//!
//! The fixpoint is a round loop: each round refreshes the parallelism
//! words of every function whose context moved (hits served from the
//! [`QueryDb`], misses computed into it), then joins every
//! call site's context into its callee, until a full round changes
//! nothing. Convergence is *asserted*: the lattice has height 3 and the
//! call graph is finite, so `3·n` rounds cannot be reached. (An
//! incremental worklist driver was retired in PR 13 at measured parity,
//! see git history.)
//!
//! This module also computes which functions may (transitively) execute
//! MPI collectives — calls to those functions act as *collective events*
//! in the matching phase, and their call sites from multithreaded
//! contexts are reported — and which functions `main` can reach.
//!
//! ## Early cut-off
//!
//! The result is one module [`Slot`](crate::query::Slot) of the table.
//! All the loop ever reads from a function is its [`CallSummary`] and,
//! for each context the function passed through on its way up, the
//! context at each of its call sites; the result keeps those beside
//! itself. A later check re-derives the same two things for exactly the
//! functions the red-green pass invalidated and, when none of them
//! differs, returns the stored result without looking at any other
//! function: the loop would read the same values in the same order and
//! end where it ended. The comparison is on derived *values*, so an edit
//! that changes a function's code but nothing the call graph sees of
//! it — the common case — stops here.

use crate::facts::CheckScratch;
use crate::lang::MonoVerdict;
use crate::pw::{compute_pw, InitialContext, PwResult, PwState};
use crate::query::{call_summary, CallSummary, QueryDb};
use parcoach_ir::func::Module;
use parcoach_ir::Locator;
use std::sync::Arc;

/// Per-module interprocedural facts, indexed like `Module::funcs`.
/// Span-free: call sites are [`Locator`]s.
#[derive(Debug)]
pub struct CallContexts {
    /// The context `main` was assumed to start in.
    pub entry: InitialContext,
    /// Initial context per function.
    pub initial: Vec<InitialContext>,
    /// Functions that may (transitively) execute an MPI collective.
    pub collective_bearing: Vec<bool>,
    /// Entry-point reachability: `main` and everything transitively
    /// called from it (every function, in a module without a `main`).
    /// The phases only diagnose reachable code — an uncalled helper can
    /// neither warn (its operations never execute: a guaranteed false
    /// positive, found by differential fuzzing) nor feed the module-wide
    /// p2p matcher (its sends would silently balance reachable
    /// receives).
    pub reachable: Vec<bool>,
    /// Call sites of collective-bearing functions found in multithreaded
    /// contexts, as `(call site, callee)`, in module order.
    pub multithreaded_calls: Vec<(Locator, usize)>,
    /// The call-graph summary the fixpoint read for each function,
    /// `Arc`-shared with the function's own slot.
    pub summaries: Vec<Arc<CallSummary>>,
    /// Per function and per context it was evaluated under
    /// (`ctx as usize`): the context at each call site, aligned with
    /// [`CallSummary::call_sites`].
    site_contexts: Vec<[Option<Vec<InitialContext>>; 3]>,
}

impl CallContexts {
    /// Would the fixpoint read from function `fi`, as `db` now holds it,
    /// what it read when this result was computed?
    fn reads_the_same_from(
        &self,
        m: &Module,
        fi: usize,
        db: &mut QueryDb,
        scratch: &mut CheckScratch,
    ) -> bool {
        let now = db
            .func(fi)
            .summary
            .peek()
            .expect("summaries are refreshed first");
        if **now != *self.summaries[fi] {
            return false;
        }
        InitialContext::ALL.into_iter().all(|ctx| {
            let Some(then) = &self.site_contexts[fi][ctx as usize] else {
                return true;
            };
            *then == site_contexts(&pw_under(m, fi, ctx, db, scratch), &self.summaries[fi])
        })
    }
}

/// The parallelism words of function `fi` under `ctx`, from the table or
/// computed into it.
pub(crate) fn pw_under(
    m: &Module,
    fi: usize,
    ctx: InitialContext,
    db: &mut QueryDb,
    scratch: &mut CheckScratch,
) -> Arc<PwResult> {
    let slot = &mut db.func(fi).pw[ctx as usize];
    slot.get_or_put(|| {
        let order = scratch.orders.of(m, fi);
        Arc::new(compute_pw(&m.funcs[fi], ctx, order, &mut scratch.pw))
    })
    .clone()
}

/// Compute call contexts and collective-bearing facts for a module.
///
/// `entry_context` is the context `main` is assumed to start in
/// (normally [`InitialContext::Sequential`]; the paper's "initial level"
/// option). `db` must have been reconciled against `m`
/// ([`QueryDb::reconcile`]); the result, the per-`(function, context)`
/// parallelism words and the call summaries are served from it where
/// present (shared by `Arc`) and stored into it where not.
///
/// The fixpoint alternates two passes per round: the parallelism words
/// of every function whose context changed are refreshed, then a second
/// pass joins call-site contexts into callees.
pub fn compute_contexts(
    m: &Module,
    entry_context: InitialContext,
    db: &mut QueryDb,
) -> Arc<CallContexts> {
    contexts_in(m, entry_context, db, &mut CheckScratch::default())
}

/// [`compute_contexts`] with the scratch of the check it is part of:
/// each function's CFG order is computed once however many rounds and
/// contexts its words are propagated under, and the propagation's
/// vectors are recycled.
pub(crate) fn contexts_in(
    m: &Module,
    entry_context: InitialContext,
    db: &mut QueryDb,
    scratch: &mut CheckScratch,
) -> Arc<CallContexts> {
    // --- per-function call-graph summaries: re-derived for exactly the
    // functions whose slot the red-green pass emptied.
    let n = m.funcs.len();
    let mut rederived: Vec<usize> = Vec::new();
    for (fi, f) in m.funcs.iter().enumerate() {
        let slot = &mut db.func(fi).summary;
        if slot.get().is_none() {
            slot.put(Arc::new(call_summary(f)));
            rederived.push(fi);
        }
    }

    // --- early cut-off (see the module docs).
    let stored = db.contexts.peek().cloned();
    let unchanged = stored.as_ref().is_some_and(|s| {
        s.entry == entry_context
            && rederived
                .iter()
                .all(|&fi| s.reads_the_same_from(m, fi, db, scratch))
    });
    if let Some(hit) = db.contexts.get_if(|_| unchanged) {
        return hit.clone();
    }
    let summaries: Vec<Arc<CallSummary>> = (0..n)
        .map(|fi| db.func(fi).summary.peek().expect("refreshed above").clone())
        .collect();

    // --- collective-bearing: own collectives (including the
    // communicator-management collectives, which synchronize their
    // parent's members), then propagate up the call graph to a fixpoint.
    let mut bearing: Vec<bool> = summaries.iter().map(|s| s.own_bearing).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for fi in 0..n {
            if bearing[fi] {
                continue;
            }
            let has = summaries[fi]
                .call_sites
                .iter()
                .any(|&(_, _, ci)| bearing[ci]);
            if has {
                bearing[fi] = true;
                changed = true;
            }
        }
    }

    // --- initial contexts: ascending fixpoint from main.
    let mut initial: Vec<InitialContext> = vec![InitialContext::Sequential; n];
    if let Some(mi) = m.index("main") {
        initial[mi] = entry_context;
    }
    let mut pw_cache: Vec<Option<(InitialContext, Arc<PwResult>)>> = vec![None; n];
    let mut site_ctxs: Vec<[Option<Vec<InitialContext>>; 3]> = vec![[None, None, None]; n];

    // --- round loop: recompute each function's pw under its current
    // context and push call-site contexts into callees, every round,
    // until a full round changes nothing. The lattice has height 3 and
    // the call graph is finite, so the round bound is unreachable —
    // asserted below, not silently papered over.
    let mut converged = false;
    for _round in 0..(3 * n.max(1)) {
        let mut any = false;
        refresh_stale(m, &mut pw_cache, &initial, db, scratch);
        for (fi, s) in summaries.iter().enumerate() {
            // The context the round started `fi` under — an earlier
            // function of this round may have raised it since.
            let (ctx, pw) = pw_cache[fi].as_ref().expect("refreshed");
            let sites = site_ctxs[fi][*ctx as usize].get_or_insert_with(|| site_contexts(pw, s));
            for (&(_, _, ci), site_ctx) in s.call_sites.iter().zip(sites.iter()) {
                let joined = initial[ci].join(*site_ctx);
                if joined != initial[ci] {
                    initial[ci] = joined;
                    any = true;
                }
            }
        }
        if !any {
            converged = true;
            break;
        }
    }
    assert!(
        converged,
        "context fixpoint failed to converge within the lattice bound"
    );

    // The last round moved nothing, so it evaluated every function under
    // its final context.
    let mut multithreaded_calls = Vec::new();
    for (fi, s) in summaries.iter().enumerate() {
        let sites = site_ctxs[fi][initial[fi] as usize]
            .as_ref()
            .expect("evaluated in the last round");
        for (&(bid, ii, ci), site_ctx) in s.call_sites.iter().zip(sites) {
            if bearing[ci] && *site_ctx == InitialContext::Parallel {
                multithreaded_calls.push((Locator::Instr(fi, bid, ii), ci));
            }
        }
    }

    let ctxs = Arc::new(CallContexts {
        entry: entry_context,
        initial,
        collective_bearing: bearing,
        reachable: compute_reachable(m, &summaries),
        multithreaded_calls,
        summaries,
        site_contexts: site_ctxs,
    });
    db.contexts.put(ctxs.clone());
    ctxs
}

/// Walk the call graph from `main` over the call summaries (no IR
/// walk). Modules without a `main` (library-style inputs, unit-test
/// fixtures) keep every function reachable.
fn compute_reachable(m: &Module, summaries: &[Arc<CallSummary>]) -> Vec<bool> {
    let Some(entry) = m.index("main") else {
        return vec![true; m.funcs.len()];
    };
    let mut reachable = vec![false; m.funcs.len()];
    reachable[entry] = true;
    let mut work = vec![entry];
    while let Some(fidx) = work.pop() {
        for &(_, _, cidx) in &summaries[fidx].call_sites {
            if !reachable[cidx] {
                reachable[cidx] = true;
                work.push(cidx);
            }
        }
    }
    reachable
}

/// Refresh the fixpoint's pw cache for every function whose context
/// moved since its last computation: stored results are served as `Arc`
/// clones, misses are computed where they are found and flow into the
/// table.
fn refresh_stale(
    m: &Module,
    pw_cache: &mut [Option<(InitialContext, Arc<PwResult>)>],
    initial: &[InitialContext],
    db: &mut QueryDb,
    scratch: &mut CheckScratch,
) {
    for (fi, cached) in pw_cache.iter_mut().enumerate() {
        let ctx = initial[fi];
        if cached.as_ref().map(|(c, _)| *c) != Some(ctx) {
            *cached = Some((ctx, pw_under(m, fi, ctx, db, scratch)));
        }
    }
}

/// The entry context each call site of `s` hands its callee, given the
/// function's words.
fn site_contexts(pw: &PwResult, s: &CallSummary) -> Vec<InitialContext> {
    let sites = s.call_sites.iter();
    sites
        .map(|&(bid, _, _)| site_context(pw, bid.index()))
        .collect()
}

/// Map the pw state at a call-site block to the callee's entry context.
/// The verdict is a cached attribute of the word node — no token scan.
fn site_context(pw: &PwResult, block_index: usize) -> InitialContext {
    match pw.entry.get(block_index).and_then(|s| s.as_ref()) {
        None => InitialContext::Sequential, // unreachable call site
        Some(PwState::Conflict) => InitialContext::Parallel, // be conservative
        Some(PwState::Word(n)) => match pw.class(*n).verdict {
            MonoVerdict::SequentialContext => InitialContext::Sequential,
            MonoVerdict::MonoThreaded => InitialContext::ParallelSingle,
            MonoVerdict::MultiThreaded | MonoVerdict::NestedParallelism => InitialContext::Parallel,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcoach_front::parse_and_check;
    use parcoach_ir::lower::lower_program;

    fn lower(src: &str) -> Module {
        let unit = parse_and_check("t.mh", src).expect("valid");
        lower_program(&unit.program, &unit.signatures)
    }

    /// One-shot contexts — the pipeline's stage over a fresh table —
    /// with by-name views for the assertions below.
    struct Named<'m> {
        m: &'m Module,
        ctxs: Arc<CallContexts>,
        db: QueryDb,
    }

    fn compute_contexts(m: &Module, entry: InitialContext) -> Named<'_> {
        let mut db = QueryDb::new();
        db.reconcile(m);
        let ctxs = super::compute_contexts(m, entry, &mut db);
        Named { m, ctxs, db }
    }

    impl Named<'_> {
        fn context_of(&self, func: &str) -> InitialContext {
            self.ctxs.initial[self.m.index(func).unwrap()]
        }

        fn bears_collectives(&self, func: &str) -> bool {
            self.ctxs.collective_bearing[self.m.index(func).unwrap()]
        }

        /// `(caller, callee)` of every multithreaded call, in order.
        fn multithreaded_calls(&self) -> Vec<(&str, &str)> {
            let name = |fi: usize| self.m.funcs[fi].name.as_str();
            self.ctxs
                .multithreaded_calls
                .iter()
                .map(|(site, callee)| (name(site.func()), name(*callee)))
                .collect()
        }
    }

    #[test]
    fn own_collectives_detected() {
        let m = lower(
            "fn a() { MPI_Barrier(); }
             fn b() { }
             fn main() { a(); b(); }",
        );
        let ctx = compute_contexts(&m, InitialContext::Sequential);
        assert!(ctx.bears_collectives("a"));
        assert!(!ctx.bears_collectives("b"));
        assert!(ctx.bears_collectives("main")); // transitively via a
    }

    #[test]
    fn transitive_collectives() {
        let m = lower(
            "fn leaf() { MPI_Barrier(); }
             fn mid() { leaf(); }
             fn main() { mid(); }",
        );
        let ctx = compute_contexts(&m, InitialContext::Sequential);
        assert!(ctx.bears_collectives("mid"));
        assert!(ctx.bears_collectives("main"));
    }

    #[test]
    fn context_propagates_to_callee_in_parallel() {
        let m = lower(
            "fn work() { let x = 1; }
             fn main() { parallel { work(); } }",
        );
        let ctx = compute_contexts(&m, InitialContext::Sequential);
        assert_eq!(ctx.context_of("work"), InitialContext::Parallel);
        assert_eq!(ctx.context_of("main"), InitialContext::Sequential);
    }

    #[test]
    fn context_propagates_single() {
        let m = lower(
            "fn work() { let x = 1; }
             fn main() { parallel { single { work(); } } }",
        );
        let ctx = compute_contexts(&m, InitialContext::Sequential);
        assert_eq!(ctx.context_of("work"), InitialContext::ParallelSingle);
    }

    #[test]
    fn context_joins_worst_case() {
        let m = lower(
            "fn work() { let x = 1; }
             fn main() {
                work();
                parallel { single { work(); } }
                parallel { work(); }
             }",
        );
        let ctx = compute_contexts(&m, InitialContext::Sequential);
        assert_eq!(ctx.context_of("work"), InitialContext::Parallel);
    }

    #[test]
    fn multithreaded_call_to_collective_fn_reported() {
        let m = lower(
            "fn exchange() { MPI_Barrier(); }
             fn main() { parallel { exchange(); } }",
        );
        let ctx = compute_contexts(&m, InitialContext::Sequential);
        assert_eq!(ctx.multithreaded_calls(), [("main", "exchange")]);
    }

    #[test]
    fn call_chain_two_levels_deep_in_parallel() {
        let m = lower(
            "fn leaf() { MPI_Barrier(); }
             fn mid() { leaf(); }
             fn main() { parallel { mid(); } }",
        );
        let ctx = compute_contexts(&m, InitialContext::Sequential);
        // mid inherits Parallel; leaf called from mid's Parallel context
        // (call at mid's top level, i.e. the P prefix) also Parallel.
        assert_eq!(ctx.context_of("mid"), InitialContext::Parallel);
        assert_eq!(ctx.context_of("leaf"), InitialContext::Parallel);
        assert!(
            ctx.multithreaded_calls().len() >= 2,
            "both call edges are multithreaded: {:?}",
            ctx.multithreaded_calls()
        );
    }

    #[test]
    fn sequential_call_not_reported() {
        let m = lower(
            "fn exchange() { MPI_Barrier(); }
             fn main() { exchange(); }",
        );
        let ctx = compute_contexts(&m, InitialContext::Sequential);
        assert!(ctx.multithreaded_calls().is_empty());
    }

    #[test]
    fn recursion_terminates() {
        let m = lower(
            "fn rec(n: int) { if (n > 0) { rec(n - 1); } }
             fn main() { parallel { rec(3); } }",
        );
        let ctx = compute_contexts(&m, InitialContext::Sequential);
        assert_eq!(ctx.context_of("rec"), InitialContext::Parallel);
    }

    #[test]
    fn cyclic_call_graph_converges_and_matches_legacy() {
        // Mutual recursion reached from a parallel region: the round
        // loop must reach the fixpoint well inside its asserted bound.
        let m = lower(
            "fn ping(n: int) { if (n > 0) { pong(n - 1); } MPI_Barrier(); }
             fn pong(n: int) { if (n > 0) { ping(n - 1); } }
             fn main() { parallel { ping(3); } }",
        );
        let ctx = compute_contexts(&m, InitialContext::Sequential);
        assert_eq!(ctx.context_of("ping"), InitialContext::Parallel);
        assert_eq!(ctx.context_of("pong"), InitialContext::Parallel);
        assert!(ctx.bears_collectives("pong"), "cycle propagates bearing");
        assert_eq!(
            ctx.multithreaded_calls(),
            [("ping", "pong"), ("pong", "ping"), ("main", "ping")],
            "one entry per multithreaded call edge, in module order"
        );
    }

    #[test]
    fn worklist_matches_legacy_on_joining_chains() {
        // A callee reached under three different contexts (joined to the
        // worst case) plus a deeper chain below it.
        let m = lower(
            "fn leaf() { MPI_Barrier(); }
             fn work() { leaf(); }
             fn main() {
                work();
                parallel { single { work(); } }
                parallel { work(); }
             }",
        );
        let ctx = compute_contexts(&m, InitialContext::Sequential);
        assert_eq!(ctx.context_of("work"), InitialContext::Parallel);
        assert_eq!(ctx.context_of("leaf"), InitialContext::Parallel);
        assert_eq!(
            ctx.multithreaded_calls().len(),
            2,
            "work->leaf and the parallel main->work"
        );
    }

    #[test]
    fn callee_raised_through_the_whole_lattice_converges() {
        // Callees precede callers in module order, so each round pushes
        // contexts one call edge further: `leaf` is raised Sequential ->
        // ParallelSingle (round 2, via `mid`) -> Parallel (round 3, via
        // `outer` -> `inner`) — the lattice height — and the loop must
        // still stop inside its 3·n bound with the least fixpoint.
        let m = lower(
            "fn leaf() { MPI_Barrier(); }
             fn inner() { leaf(); }
             fn outer() { inner(); }
             fn mid() { leaf(); }
             fn main() {
                parallel { single { mid(); } }
                parallel { outer(); }
             }",
        );
        let mut ctx = compute_contexts(&m, InitialContext::Sequential);
        assert_eq!(ctx.context_of("mid"), InitialContext::ParallelSingle);
        assert_eq!(ctx.context_of("outer"), InitialContext::Parallel);
        assert_eq!(ctx.context_of("inner"), InitialContext::Parallel);
        assert_eq!(ctx.context_of("leaf"), InitialContext::Parallel);
        // The table holds the words of the final contexts, not only of
        // a context the function passed through on the way up.
        for (fi, f) in m.funcs.iter().enumerate() {
            let final_ctx = ctx.context_of(&f.name);
            let order = parcoach_ir::graph::CfgOrder::of(f);
            let fresh = compute_pw(f, final_ctx, order.view(), &mut Default::default());
            let kept = ctx.db.func(fi).pw[final_ctx as usize]
                .peek()
                .expect("every function has words");
            assert_eq!(kept.word_at(f.entry), fresh.word_at(f.entry), "{}", f.name);
        }
    }
}
