//! Phase 3 — "all MPI processes execute the same sequence of
//! collectives" (paper §2, property 3; PARCOACH Algorithm 1).
//!
//! For every *collective event* `e` (an MPI collective kind, or a call
//! to a function that transitively executes collectives), take the set
//! `S_e` of blocks issuing `e` and compute its **iterated post-dominance
//! frontier** `PDF+(S_e)`. Every conditional in the frontier can steer
//! processes into executing different numbers/sequences of `e` — each is
//! reported as a potential collective mismatch and triggers `CC`
//! instrumentation.
//!
//! The phase reads the per-function [`crate::facts::FuncFacts`]: the
//! block→event map is precomputed (interned [`EventId`]s), the per-block
//! post-dominance frontiers are computed once, and `PDF+(S_e)` queries
//! go through a memoizing [`IpdfEngine`] so events issued from the same
//! block set share one fixpoint.
//!
//! **Refinement** (extension, see DESIGN.md): a conditional whose two
//! arms provably execute the *same* sequence of collective events before
//! re-joining (acyclic region, unique event sequence per arm) cannot
//! cause a mismatch; such candidates are dropped, eliminating the
//! classic `if/else`-balanced false positive. The ablation experiment E5
//! measures its effect.

use crate::comm::{CommId, CommTable, FuncComms};
use crate::context::CallContexts;
use crate::facts::AnalysisCx;
use crate::intern::{EventId, Sym};
use crate::query::Locator;
use crate::report::{WarningCore, WarningKind};
use parcoach_front::ast::CollectiveKind;
use parcoach_ir::dom::IpdfEngine;
use parcoach_ir::func::{FuncIr, Module};
use parcoach_ir::instr::{Instr, MpiIr};
use parcoach_ir::types::BlockId;
use std::cmp::Ordering;
use std::collections::HashMap;

/// A collective event: an MPI collective on a specific (static)
/// communicator class, or a call into a collective-bearing function.
///
/// The communicator is part of the event identity: the "same sequence
/// of collectives" property holds *per communicator* — ranks may
/// legally interleave collectives on unrelated communicators
/// differently, so `MPI_Barrier(a)` and `MPI_Barrier(b)` are distinct
/// events when `a` and `b` cannot alias.
///
/// Callees are [`Sym`]s — indices into `Module::funcs` — which makes the
/// whole enum `Copy`: event sequences and phase results carry ids, not
/// `String`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// Direct MPI collective on a communicator class.
    Coll(CommId, CollectiveKind),
    /// A communicator-management collective (`MPI_Comm_split`/`dup`) on
    /// its *parent* communicator class — these synchronize all members
    /// of the parent exactly like a data collective, so divergent
    /// communicator creation is a mismatch like any other.
    CommMgmt(CommId, &'static str),
    /// Call to a function that may execute collectives.
    Call(Sym),
}

impl Event {
    /// Display name for warnings.
    pub fn name(&self, table: &CommTable, m: &Module) -> String {
        match self {
            Event::Coll(c, k) if c.is_world() => k.mpi_name().to_string(),
            Event::Coll(c, k) => format!("{} on {}", k.mpi_name(), table.label(*c)),
            Event::CommMgmt(c, name) if c.is_world() => (*name).to_string(),
            Event::CommMgmt(c, name) => format!("{} of {}", name, table.label(*c)),
            Event::Call(f) => format!("call to `{}`", f.name(m)),
        }
    }

    /// Report order: collectives, then comm management, then calls —
    /// calls compared by *name* (not by `Sym` id), so the warning order
    /// matches the pre-interning `Ord`-on-`Event` sort exactly.
    pub fn cmp_for_report(&self, other: &Event, m: &Module) -> Ordering {
        fn rank(e: &Event) -> u8 {
            match e {
                Event::Coll(..) => 0,
                Event::CommMgmt(..) => 1,
                Event::Call(..) => 2,
            }
        }
        match (self, other) {
            (Event::Coll(c1, k1), Event::Coll(c2, k2)) => c1.cmp(c2).then(k1.cmp(k2)),
            (Event::CommMgmt(c1, n1), Event::CommMgmt(c2, n2)) => c1.cmp(c2).then(n1.cmp(n2)),
            (Event::Call(s1), Event::Call(s2)) => s1.name(m).cmp(s2.name(m)),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

/// The events issued by one block, in instruction order, each with the
/// index of the instruction issuing it. Called once per block by the
/// fact-store construction ([`crate::facts`]); the phases read the
/// precomputed (interned) map.
pub(crate) fn block_events(
    m: &Module,
    f: &FuncIr,
    b: BlockId,
    ctxs: &CallContexts,
    comms: &FuncComms,
) -> Vec<(Event, usize)> {
    f.block(b)
        .instrs
        .iter()
        .enumerate()
        .filter_map(|(ii, i)| {
            let event = match i {
                Instr::Mpi { op, .. } => match op {
                    MpiIr::Collective { kind, comm, .. } => {
                        Event::Coll(comms.of_operand(*comm), *kind)
                    }
                    _ => {
                        let (name, parent) = op.comm_mgmt()?;
                        Event::CommMgmt(comms.of_operand(Some(parent)), name)
                    }
                },
                Instr::Call { func, .. } => {
                    let callee = *m.by_name.get(func)?;
                    if !ctxs.collective_bearing[callee] {
                        return None;
                    }
                    Event::Call(Sym(callee as u32))
                }
                _ => return None,
            };
            Some((event, ii))
        })
        .collect()
}

/// Phase-3 result for one function.
#[derive(Debug, Clone, Default)]
pub struct MatchingResult {
    /// Warnings found.
    pub warnings: Vec<WarningCore>,
    /// Blocks with collectives that participate in a potential mismatch
    /// (all blocks of the affected event kinds).
    pub suspects: Vec<BlockId>,
    /// Called functions involved in mismatch warnings (their bodies need
    /// `CC` instrumentation too), by name.
    pub tainted_callees: Vec<Sym>,
    /// Candidate conditionals found by PDF+ *before* the sequence
    /// refinement (ablation metric).
    pub candidates_before_refinement: usize,
    /// Candidates confirmed after refinement.
    pub candidates_confirmed: usize,
}

/// Options for the matching phase.
#[derive(Debug, Clone, Copy)]
pub struct MatchingOptions {
    /// Apply the balanced-arms sequence refinement.
    pub refine: bool,
}

impl Default for MatchingOptions {
    fn default() -> Self {
        MatchingOptions { refine: true }
    }
}

/// Run Algorithm 1 on one function, with one PDF+ query per
/// (communicator, event) group.
pub fn check_matching(cx: &AnalysisCx, fidx: usize, opts: MatchingOptions) -> MatchingResult {
    let m = cx.module;
    let f = &m.funcs[fidx];
    let facts = cx.facts(fidx);
    let table = &cx.comms.table;
    let mut out = MatchingResult::default();

    // Group blocks by (interned) event.
    let mut by_event: HashMap<EventId, Vec<(BlockId, usize)>> = HashMap::new();
    for b in f.block_ids() {
        for &(e, ii) in &facts.block_events[b.index()] {
            by_event.entry(e).or_default().push((b, ii));
        }
    }
    if by_event.is_empty() {
        return out;
    }

    let mut events: Vec<EventId> = by_event.keys().copied().collect();
    events.sort_unstable_by(|a, b| cx.events.get(*a).cmp_for_report(&cx.events.get(*b), m));
    let locate = |&(b, ii): &(BlockId, usize)| Locator::Instr(fidx, b, ii);

    // A collective whose communicator operand could not be resolved to
    // one creation site merged handles from different sites across
    // control flow (MiniHPC cannot pass communicators through calls, so
    // unresolved = merged): ranks taking different paths call the same
    // collective on *different* communicators, which no per-class PDF+
    // group can see. Report the site itself.
    for &id in &events {
        let e = cx.events.get(id);
        let unknown_comm = match e {
            Event::Coll(c, _) | Event::CommMgmt(c, _) => c.is_unknown(),
            Event::Call(_) => false,
        };
        if !unknown_comm {
            continue;
        }
        let sites = &by_event[&id];
        out.warnings.push(WarningCore {
            kind: WarningKind::CollectiveMismatch,
            message: format!(
                "{} is called on a control-flow-dependent communicator \
                 (the handle merges several creation sites); ranks may \
                 enter the collective on different communicators",
                e.name(table, m)
            ),
            site: locate(&sites[0]),
            related: sites
                .iter()
                .skip(1)
                .map(|s| (Some(locate(s)), "also called here".to_string()))
                .collect(),
        });
        out.suspects.extend(sites.iter().map(|(b, _)| *b));
    }

    // The per-function memo over the precomputed per-block frontiers:
    // event sets sharing the same blocks share one PDF+ fixpoint.
    let mut engine = IpdfEngine::new(&facts.cfg().pdf);

    for id in events {
        let e = cx.events.get(id);
        let sites = &by_event[&id];
        let blocks: Vec<BlockId> = sites.iter().map(|(b, _)| *b).collect();
        let mut frontier = engine.iterated(&blocks);
        // OpenMP dispatch branches (`single`/`master`/`section` entry)
        // choose *which thread* runs the body, but the body still runs
        // exactly once per process per encounter — they are not
        // inter-process divergence points. Real conditionals live in
        // normal blocks.
        frontier.retain(|&b| f.block(b).directive().is_none());
        if frontier.is_empty() {
            continue;
        }
        out.candidates_before_refinement += frontier.len();
        // Refinement: drop conditionals whose arms issue identical event
        // sequences up to the re-join point.
        let confirmed: Vec<BlockId> = frontier
            .into_iter()
            .filter(|&cond| !opts.refine || !balanced_arms(f, facts, cond))
            .collect();
        out.candidates_confirmed += confirmed.len();
        if confirmed.is_empty() {
            continue;
        }
        let mut related: Vec<(Option<Locator>, String)> = confirmed
            .iter()
            .map(|&c| {
                (
                    Some(Locator::Cond(fidx, c)),
                    "execution depends on this conditional".to_string(),
                )
            })
            .collect();
        for s in sites.iter().skip(1) {
            related.push((
                Some(locate(s)),
                format!("{} also called here", e.name(table, m)),
            ));
        }
        out.warnings.push(WarningCore {
            kind: WarningKind::CollectiveMismatch,
            message: format!(
                "{} may not be executed by all processes (or not the same \
                 number of times): control-flow divergence at {} point(s)",
                e.name(table, m),
                confirmed.len()
            ),
            site: locate(&sites[0]),
            related,
        });
        out.suspects.extend(blocks);
        if let Event::Call(callee) = e {
            out.tainted_callees.push(callee);
        }
    }
    out.suspects.sort_unstable();
    out.suspects.dedup();
    out.tainted_callees
        .sort_unstable_by(|a, b| a.name(m).cmp(b.name(m)));
    out.tainted_callees.dedup();
    out
}

/// True when all successors of `cond` provably issue the same sequence
/// of collective events before reaching `ipdom(cond)`.
///
/// The per-arm sequence is a `Vec<EventId>` read off the precomputed
/// block→event map, computed by a memoized walk that fails (and keeps
/// the warning) on cycles, on returns before the join, and on any
/// interior divergence.
fn balanced_arms(f: &FuncIr, facts: &crate::facts::FuncFacts, cond: BlockId) -> bool {
    let Some(join) = facts.cfg().pdt.ipdom(cond) else {
        // No post-dominator inside the function (e.g. a return on one
        // arm): cannot be balanced.
        return false;
    };
    let succs = f.block(cond).term.successors();
    if succs.len() < 2 {
        return false;
    }
    let mut memo: HashMap<BlockId, Option<Vec<EventId>>> = HashMap::new();
    let mut visiting: Vec<BlockId> = Vec::new();
    let first = arm_sequence(f, facts, succs[0], join, &mut memo, &mut visiting);
    let Some(first) = first else { return false };
    for &s in &succs[1..] {
        match arm_sequence(f, facts, s, join, &mut memo, &mut visiting) {
            Some(seq) if seq == first => {}
            _ => return false,
        }
    }
    true
}

/// The unique event sequence from `n` (inclusive) to `stop` (exclusive),
/// or `None` when no unique sequence exists.
fn arm_sequence(
    f: &FuncIr,
    facts: &crate::facts::FuncFacts,
    n: BlockId,
    stop: BlockId,
    memo: &mut HashMap<BlockId, Option<Vec<EventId>>>,
    visiting: &mut Vec<BlockId>,
) -> Option<Vec<EventId>> {
    if n == stop {
        return Some(Vec::new());
    }
    if let Some(cached) = memo.get(&n) {
        return cached.clone();
    }
    if visiting.contains(&n) {
        return None; // cycle
    }
    visiting.push(n);
    let own: Vec<EventId> = facts.block_events[n.index()]
        .iter()
        .map(|&(e, _)| e)
        .collect();
    let succs = f.block(n).term.successors();
    let result = if succs.is_empty() {
        None // leaves the function before the join
    } else {
        let mut tail: Option<Vec<EventId>> = None;
        let mut ok = true;
        for &s in &succs {
            match arm_sequence(f, facts, s, stop, memo, visiting) {
                None => {
                    ok = false;
                    break;
                }
                Some(seq) => match &tail {
                    None => tail = Some(seq),
                    Some(t) if *t == seq => {}
                    Some(_) => {
                        ok = false;
                        break;
                    }
                },
            }
        }
        if ok {
            tail.map(|t| {
                let mut full = own;
                full.extend(t);
                full
            })
        } else {
            None
        }
    };
    visiting.pop();
    memo.insert(n, result.clone());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::AnalysisCx;
    use crate::pw::InitialContext;
    use parcoach_front::parse_and_check;
    use parcoach_ir::lower::lower_program;
    use parcoach_ir::Module;

    fn lower(src: &str) -> Module {
        let unit = parse_and_check("t.mh", src).expect("valid");
        lower_program(&unit.program, &unit.signatures)
    }

    fn run_on(m: &Module, opts: MatchingOptions) -> MatchingResult {
        let cx = AnalysisCx::build(m, InitialContext::Sequential, parcoach_pool::global());
        check_matching(&cx, m.by_name["main"], opts)
    }

    fn run_with(src: &str, refine: bool) -> MatchingResult {
        let m = lower(src);
        run_on(&m, MatchingOptions { refine })
    }

    fn run(src: &str) -> MatchingResult {
        run_with(src, true)
    }

    #[test]
    fn unconditional_collective_clean() {
        let r = run("fn main() { MPI_Init(); MPI_Barrier(); MPI_Finalize(); }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
    }

    #[test]
    fn rank_dependent_collective_flagged() {
        let r = run("fn main() { if (rank() == 0) { MPI_Barrier(); } }");
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
        assert_eq!(r.warnings[0].kind, WarningKind::CollectiveMismatch);
        assert!(!r.suspects.is_empty());
    }

    #[test]
    fn balanced_branches_refined_away() {
        let src = "fn main() {
            if (rank() == 0) { MPI_Barrier(); } else { MPI_Barrier(); }
        }";
        let refined = run(src);
        assert!(
            refined.warnings.is_empty(),
            "balanced arms are not a mismatch: {:?}",
            refined.warnings
        );
        // Without refinement the PDF+ flags it (the ablation measures
        // exactly this difference).
        let raw = run_with(src, false);
        assert_eq!(raw.warnings.len(), 1);
        assert!(raw.candidates_before_refinement > 0);
    }

    #[test]
    fn unbalanced_kinds_not_refined() {
        // Same count, different kinds → sequences differ → keep warning.
        let r = run("fn main() {
                if (rank() == 0) { MPI_Barrier(); } else { let x = MPI_Allreduce(1, SUM); }
            }");
        assert_eq!(r.warnings.len(), 2, "one per kind: {:?}", r.warnings);
    }

    #[test]
    fn collective_in_loop_flagged() {
        // Iteration count may differ across ranks (bound from rank()).
        let r = run("fn main() {
                let n = rank() + 1;
                for (i in 0..n) { MPI_Barrier(); }
            }");
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
    }

    #[test]
    fn uniform_loop_still_flagged_statically() {
        // The static phase cannot prove bounds are uniform — this is the
        // classic false positive the dynamic CC resolves (paper §3).
        let r = run("fn main() { for (i in 0..10) { MPI_Barrier(); } }");
        assert_eq!(r.warnings.len(), 1);
    }

    #[test]
    fn early_return_with_collective_after() {
        let r = run("fn main() {
                if (rank() == 0) { return; }
                MPI_Barrier();
            }");
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
    }

    #[test]
    fn call_to_collective_function_is_an_event() {
        let m = lower(
            "fn exchange() { MPI_Barrier(); }
             fn main() { if (rank() == 0) { exchange(); } }",
        );
        let cx = AnalysisCx::build(&m, InitialContext::Sequential, parcoach_pool::global());
        let r = check_matching(&cx, m.by_name["main"], MatchingOptions::default());
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
        assert_eq!(r.tainted_callees.len(), 1);
        assert_eq!(r.tainted_callees[0].name(&m), "exchange");
    }

    #[test]
    fn balanced_calls_refined_away() {
        let m = lower(
            "fn exchange() { MPI_Barrier(); }
             fn main() { if (rank() == 0) { exchange(); } else { exchange(); } }",
        );
        let r = run_on(&m, MatchingOptions::default());
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
    }

    #[test]
    fn nested_conditionals_all_reported() {
        let r = run("fn main() {
                if (rank() > 0) {
                    if (rank() > 1) {
                        MPI_Barrier();
                    }
                }
            }");
        assert_eq!(r.warnings.len(), 1);
        // Both conditionals appear as related divergence points.
        let conds = r.warnings[0]
            .related
            .iter()
            .filter(|(_, l)| l.contains("conditional"))
            .count();
        assert_eq!(conds, 2, "{:?}", r.warnings[0].related);
    }

    #[test]
    fn multiple_kinds_independent() {
        // Bcast is conditional, Barrier is not.
        let r = run("fn main() {
                if (rank() == 0) { let x = MPI_Bcast(1, 0); }
                MPI_Barrier();
            }");
        assert_eq!(r.warnings.len(), 1);
        assert!(r.warnings[0].message.contains("MPI_Bcast"));
    }

    #[test]
    fn different_comms_are_distinct_events() {
        // Same kind, unrelated communicators: two distinct events, both
        // rank-divergent, and the refinement must NOT treat the arms as
        // balanced (the sequences differ per communicator).
        let r = run("fn main() {
                let a = MPI_Comm_dup(MPI_COMM_WORLD);
                if (rank() == 0) { MPI_Barrier(a); } else { MPI_Barrier(); }
            }");
        assert_eq!(r.warnings.len(), 2, "{:?}", r.warnings);
        assert!(r.warnings.iter().any(|w| w.message.contains("duplicated")));
    }

    #[test]
    fn balanced_arms_same_comm_refined_away() {
        let r = run("fn main() {
                let a = MPI_Comm_dup(MPI_COMM_WORLD);
                if (rank() == 0) { MPI_Barrier(a); } else { MPI_Barrier(a); }
            }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
    }

    #[test]
    fn divergent_comm_creation_flagged() {
        // MPI_Comm_dup is a collective over its parent: creating it on
        // one branch only desynchronizes exactly like a lone barrier.
        let r = run("fn main() {
                if (rank() == 0) { let c = MPI_Comm_dup(MPI_COMM_WORLD); }
            }");
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
        assert!(r.warnings[0].message.contains("MPI_Comm_dup"));
    }

    #[test]
    fn merged_comm_handle_at_collective_flagged() {
        // The handle merges two creation sites across a rank branch:
        // ranks may enter the barrier on different communicators even
        // though the barrier site itself is unconditional.
        let r = run("fn main() {
                let a = MPI_Comm_dup(MPI_COMM_WORLD);
                let b = MPI_Comm_dup(MPI_COMM_WORLD);
                let c = a;
                if (rank() == 0) { c = b; }
                MPI_Barrier(c);
            }");
        assert!(
            r.warnings
                .iter()
                .any(|w| w.message.contains("control-flow-dependent communicator")),
            "{:?}",
            r.warnings
        );
        assert!(!r.suspects.is_empty());
    }

    #[test]
    fn unconditional_subcomm_collective_clean() {
        let r = run("fn main() {
                let c = MPI_Comm_split(MPI_COMM_WORLD, rank() % 2, rank());
                let s = MPI_Allreduce(rank() + 1, SUM, c);
            }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
    }

    #[test]
    fn while_loop_with_collective_and_break() {
        let r = run("fn main() {
                let go = true;
                while (go) {
                    MPI_Barrier();
                    if (rank() == 0) { go = false; }
                }
            }");
        assert!(!r.warnings.is_empty());
    }
}
