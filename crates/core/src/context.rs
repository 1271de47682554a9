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
//! [`QueryDb`], misses computed in parallel), then joins every
//! call site's context into its callee, until a full round changes
//! nothing. Convergence is *asserted*: the lattice has height 3 and the
//! call graph is finite, so `3·n` rounds cannot be reached. (An
//! incremental worklist driver was retired in PR 13 at measured parity,
//! see git history.)
//!
//! This module also computes which functions may (transitively) execute
//! MPI collectives — calls to those functions act as *collective events*
//! in the matching phase, and their call sites from multithreaded
//! contexts are reported.

use crate::lang::MonoVerdict;
use crate::pw::{compute_pw, InitialContext, PwResult, PwState};
use crate::query::{call_summary, span_at, CallSummary, QueryDb};
use parcoach_front::span::Span;
use parcoach_ir::func::Module;
use parcoach_ir::types::BlockId;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-module interprocedural facts.
#[derive(Debug, Clone)]
pub struct CallContexts {
    /// Initial context per function name.
    pub initial: HashMap<String, InitialContext>,
    /// Functions that may (transitively) execute an MPI collective.
    pub collective_bearing: HashMap<String, bool>,
    /// Call sites of collective-bearing functions found in multithreaded
    /// contexts: (caller, callee, call span).
    pub multithreaded_calls: Vec<(String, String, Span)>,
    /// Parallelism words per function, computed under the final contexts
    /// (reused by the analysis phases — computing pw is the costliest
    /// part of the pipeline). `Arc`-shared with the [`QueryDb`] so a
    /// warm re-check pays no clone.
    pub pw: HashMap<String, Arc<PwResult>>,
    /// Per-function call-graph summaries, indexed like `Module::funcs`.
    /// `Arc`-shared with the [`QueryDb`]; the fact store derives entry
    /// reachability from these without another IR walk.
    pub summaries: Vec<Arc<CallSummary>>,
}

impl CallContexts {
    /// The initial context for `func` (Sequential when unknown).
    pub fn context_of(&self, func: &str) -> InitialContext {
        self.initial.get(func).copied().unwrap_or_default()
    }

    /// The cached parallelism-word result for `func`.
    pub fn pw_of(&self, func: &str) -> Option<&PwResult> {
        self.pw.get(func).map(|a| a.as_ref())
    }

    /// Does `func` (transitively) execute collectives?
    pub fn bears_collectives(&self, func: &str) -> bool {
        self.collective_bearing.get(func).copied().unwrap_or(false)
    }
}

/// Compute call contexts and collective-bearing facts for a module.
///
/// `entry_context` is the context `main` is assumed to start in
/// (normally [`InitialContext::Sequential`]; the paper's "initial level"
/// option). `db` must have been reconciled against `m`
/// ([`QueryDb::reconcile`]); the per-`(function, context)` parallelism
/// words and the call summaries are served from it where present
/// (shared by `Arc`) and stored into it where not.
///
/// The fixpoint alternates two passes per round: the parallelism words
/// of every function whose context changed are recomputed *in parallel*
/// on `pool` (word propagation is the costliest part of the pipeline and
/// is pure per function), then a sequential pass joins call-site
/// contexts into callees. Chaotic ascending iteration over a finite
/// lattice reaches the same least fixpoint in either schedule.
pub fn compute_contexts(
    m: &Module,
    entry_context: InitialContext,
    pool: &parcoach_pool::Pool,
    db: &mut QueryDb,
) -> CallContexts {
    // --- per-function call-graph summaries. Everything below
    // (collective-bearing, the context fixpoint, and — via the fact
    // store — entry reachability) reads these instead of re-walking
    // instructions.
    let summaries: Vec<Arc<CallSummary>> = m
        .funcs
        .iter()
        .enumerate()
        .map(|(fi, f)| {
            let summary = &mut db.func(fi).summary;
            summary.get_or_put(|| Arc::new(call_summary(f))).clone()
        })
        .collect();

    // --- resolve call-site callee names to module indices once: the
    // fixpoints below run on dense per-function arrays (no string
    // hashing or cloning on the hot path). Aligned index-for-index with
    // each summary's `call_sites`; `None` marks externs.
    let n = m.funcs.len();
    let callee_idx: Vec<Vec<Option<usize>>> = summaries
        .iter()
        .map(|s| {
            s.call_sites
                .iter()
                .map(|(_, _, c)| m.by_name.get(c.as_str()).copied())
                .collect()
        })
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
            let has = callee_idx[fi]
                .iter()
                .any(|c| c.map(|ci| bearing[ci]).unwrap_or(false));
            if has {
                bearing[fi] = true;
                changed = true;
            }
        }
    }

    // --- initial contexts: ascending fixpoint from main.
    let mut initial: Vec<InitialContext> = vec![InitialContext::Sequential; n];
    if let Some(&mi) = m.by_name.get("main") {
        initial[mi] = entry_context;
    }
    let mut multithreaded_calls: Vec<(String, String, Span)> = Vec::new();
    let mut pw_cache: Vec<Option<(InitialContext, Arc<PwResult>)>> = vec![None; n];

    // --- round loop: recompute each function's pw under its current
    // context and push call-site contexts into callees, every round,
    // until a full round changes nothing. The lattice has height 3 and
    // the call graph is finite, so the round bound is unreachable —
    // asserted below, not silently papered over.
    let mut converged = false;
    for _round in 0..(3 * n.max(1)) {
        let mut any = false;
        multithreaded_calls.clear();
        refresh_stale(m, pool, &mut pw_cache, &initial, db);
        for (fi, (f, s)) in m.funcs.iter().zip(&summaries).enumerate() {
            let pw = &pw_cache[fi].as_ref().expect("refreshed").1;
            // Summaries keep sites in block order, so the entry context
            // of each block is computed once per run of same-block sites.
            let mut cur: Option<(BlockId, InitialContext)> = None;
            for ((bid, ii, callee), ci) in s.call_sites.iter().zip(&callee_idx[fi]) {
                let site_ctx = match cur {
                    Some((b, ctx)) if b == *bid => ctx,
                    _ => {
                        let ctx = site_context(pw, bid.index());
                        cur = Some((*bid, ctx));
                        ctx
                    }
                };
                let Some(ci) = *ci else { continue };
                let joined = initial[ci].join(site_ctx);
                if joined != initial[ci] {
                    initial[ci] = joined;
                    any = true;
                }
                if site_ctx == InitialContext::Parallel && bearing[ci] {
                    let span = span_at(m, (fi, *bid, *ii));
                    multithreaded_calls.push((f.name.clone(), callee.clone(), span));
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

    CallContexts {
        initial: m
            .funcs
            .iter()
            .zip(&initial)
            .map(|(f, c)| (f.name.clone(), *c))
            .collect(),
        collective_bearing: m
            .funcs
            .iter()
            .zip(&bearing)
            .map(|(f, b)| (f.name.clone(), *b))
            .collect(),
        multithreaded_calls,
        pw: m
            .funcs
            .iter()
            .zip(pw_cache)
            .map(|(f, entry)| {
                let (_c, pw) = entry.expect("every function propagated");
                (f.name.clone(), pw)
            })
            .collect(),
        summaries,
    }
}

/// Refresh the fixpoint's pw cache for every function whose context
/// moved since its last computation: stored results are served as `Arc`
/// clones, misses run in parallel (words are per-function pure) and
/// flow back into the table.
fn refresh_stale(
    m: &Module,
    pool: &parcoach_pool::Pool,
    pw_cache: &mut [Option<(InitialContext, Arc<PwResult>)>],
    initial: &[InitialContext],
    db: &mut QueryDb,
) {
    let mut misses: Vec<usize> = Vec::new();
    for fi in 0..m.funcs.len() {
        let ctx = initial[fi];
        if pw_cache[fi].as_ref().map(|(c, _)| *c) == Some(ctx) {
            continue;
        }
        match db.func(fi).pw[ctx as usize].get() {
            Some(pw) => pw_cache[fi] = Some((ctx, pw.clone())),
            None => misses.push(fi),
        }
    }
    let fresh = pool.par_map(&misses, |&fi| {
        Arc::new(compute_pw(&m.funcs[fi], initial[fi]))
    });
    for (fi, pw) in misses.into_iter().zip(fresh) {
        db.func(fi).pw[initial[fi] as usize].put(pw.clone());
        pw_cache[fi] = Some((initial[fi], pw));
    }
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

    /// One-shot contexts: the pipeline's stage over a fresh table.
    fn compute_contexts(m: &Module, entry: InitialContext) -> CallContexts {
        let mut db = QueryDb::new();
        db.reconcile(m);
        super::compute_contexts(m, entry, parcoach_pool::global(), &mut db)
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
        assert_eq!(ctx.multithreaded_calls.len(), 1);
        assert_eq!(ctx.multithreaded_calls[0].1, "exchange");
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
            ctx.multithreaded_calls.len() >= 2,
            "both call edges are multithreaded: {:?}",
            ctx.multithreaded_calls
        );
    }

    #[test]
    fn sequential_call_not_reported() {
        let m = lower(
            "fn exchange() { MPI_Barrier(); }
             fn main() { exchange(); }",
        );
        let ctx = compute_contexts(&m, InitialContext::Sequential);
        assert!(ctx.multithreaded_calls.is_empty());
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
        let edges: Vec<(&str, &str)> = ctx
            .multithreaded_calls
            .iter()
            .map(|(caller, callee, _)| (caller.as_str(), callee.as_str()))
            .collect();
        assert_eq!(
            edges,
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
            ctx.multithreaded_calls.len(),
            2,
            "work->leaf and the parallel main->work"
        );
        assert_eq!(ctx.pw.len(), 3);
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
        let ctx = compute_contexts(&m, InitialContext::Sequential);
        assert_eq!(ctx.context_of("mid"), InitialContext::ParallelSingle);
        assert_eq!(ctx.context_of("outer"), InitialContext::Parallel);
        assert_eq!(ctx.context_of("inner"), InitialContext::Parallel);
        assert_eq!(ctx.context_of("leaf"), InitialContext::Parallel);
        // The returned words are those of the final contexts, not of a
        // context the function passed through on the way up.
        for f in &m.funcs {
            let fresh = compute_pw(f, ctx.context_of(&f.name));
            let kept = ctx.pw_of(&f.name).expect("every function has words");
            assert_eq!(kept.word_at(f.entry), fresh.word_at(f.entry), "{}", f.name);
        }
    }
}
