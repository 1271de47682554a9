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
//! block→event map is precomputed (`Copy` [`Event`]s), the per-block
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

use crate::comm::{CommDef, CommId};
use crate::context::CallContexts;
use crate::facts::AnalysisCx;
use crate::handle::{ClassTable, FuncHandles};
use crate::report::{WarningCore, WarningKind};
use parcoach_front::ast::CollectiveKind;
use parcoach_ir::dom::IpdfEngine;
use parcoach_ir::func::{FuncIr, Module};
use parcoach_ir::instr::Instr;
use parcoach_ir::types::BlockId;
use parcoach_ir::Locator;
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
/// A callee is its index in `Module::funcs`, which makes the whole enum
/// `Copy`: event sequences and phase results carry indices, not
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
    Call(usize),
}

impl Event {
    /// Display name for warnings.
    pub fn name(&self, table: &ClassTable<CommDef>, m: &Module) -> String {
        match self {
            Event::Coll(c, k) if c.is_world() => k.mpi_name().to_string(),
            Event::Coll(c, k) => format!("{} on {}", k.mpi_name(), table.label(*c)),
            Event::CommMgmt(c, name) if c.is_world() => (*name).to_string(),
            Event::CommMgmt(c, name) => format!("{} of {}", name, table.label(*c)),
            Event::Call(f) => format!("call to `{}`", m.funcs[*f].name),
        }
    }

    /// Report order: collectives, then comm management, then calls —
    /// calls compared by callee *name*, not by function index.
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
            (Event::Call(f1), Event::Call(f2)) => m.funcs[*f1].name.cmp(&m.funcs[*f2].name),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

/// The events issued by one block, in instruction order, each with the
/// index of the instruction issuing it. Called once per block by the
/// fact-store construction ([`crate::facts`]); the phases read the
/// precomputed map.
pub(crate) fn block_events<'a>(
    f: &'a FuncIr,
    b: BlockId,
    ctxs: &'a CallContexts,
    handles: &'a FuncHandles,
) -> impl Iterator<Item = (Event, usize)> + 'a {
    let instrs = f.instrs(b).iter().enumerate();
    instrs.filter_map(move |(ii, (i, _))| {
        let event = match i {
            Instr::Mpi { op, .. } => {
                // Comm management synchronizes the *parent* communicator.
                let comm = handles.comm(op.synchronizes()?.1);
                match op.collective_kind() {
                    Some(kind) => Event::Coll(comm, kind),
                    None => Event::CommMgmt(comm, op.name()),
                }
            }
            Instr::Call { callee, .. } if ctxs.collective_bearing[*callee] => Event::Call(*callee),
            _ => return None,
        };
        Some((event, ii))
    })
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
    /// `CC` instrumentation too), as function indices sorted by name.
    pub tainted_callees: Vec<usize>,
    /// Candidate conditionals found by PDF+ *before* the sequence
    /// refinement (ablation metric).
    pub candidates_before_refinement: usize,
    /// Candidates confirmed after refinement.
    pub candidates_confirmed: usize,
}

/// Run Algorithm 1 on one function, with one PDF+ query per
/// (communicator, event) group; `refine` applies the balanced-arms
/// sequence refinement.
pub fn check_matching(cx: &AnalysisCx, fidx: usize, refine: bool) -> MatchingResult {
    let m = cx.module;
    let f = &m.funcs[fidx];
    let facts = cx.facts(fidx);
    let table = &cx.handles.comms;
    let mut out = MatchingResult::default();

    // Group blocks by event.
    let mut by_event: HashMap<Event, Vec<(BlockId, usize)>> = HashMap::new();
    for b in f.block_ids() {
        for &(e, ii) in &facts.block_events[b.index()] {
            by_event.entry(e).or_default().push((b, ii));
        }
    }
    if by_event.is_empty() {
        return out;
    }

    let mut events: Vec<Event> = by_event.keys().copied().collect();
    events.sort_unstable_by(|a, b| a.cmp_for_report(b, m));
    let locate = |&(b, ii): &(BlockId, usize)| Locator::Instr(fidx, b, ii);

    // A collective whose communicator operand could not be resolved to
    // one creation site merged handles from different sites across
    // control flow (MiniHPC cannot pass communicators through calls, so
    // unresolved = merged): ranks taking different paths call the same
    // collective on *different* communicators, which no per-class PDF+
    // group can see. Report the site itself.
    for e in &events {
        let unknown_comm = match e {
            Event::Coll(c, _) | Event::CommMgmt(c, _) => c.is_unknown(),
            Event::Call(_) => false,
        };
        if !unknown_comm {
            continue;
        }
        let sites = &by_event[e];
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

    for e in events {
        let sites = &by_event[&e];
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
            .filter(|&cond| !refine || !balanced_arms(f, facts, cond))
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
        .sort_unstable_by(|a, b| m.funcs[*a].name.cmp(&m.funcs[*b].name));
    out.tainted_callees.dedup();
    out
}

/// True when all successors of `cond` provably issue the same sequence
/// of collective events before reaching `ipdom(cond)`.
///
/// The per-arm sequence is a `Vec<Event>` read off the precomputed
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
    let mut memo: HashMap<BlockId, Option<Vec<Event>>> = HashMap::new();
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
    memo: &mut HashMap<BlockId, Option<Vec<Event>>>,
    visiting: &mut Vec<BlockId>,
) -> Option<Vec<Event>> {
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
    let own: Vec<Event> = facts.block_events[n.index()]
        .iter()
        .map(|&(e, _)| e)
        .collect();
    let succs = f.block(n).term.successors();
    let result = if succs.is_empty() {
        None // leaves the function before the join
    } else {
        let mut tail: Option<Vec<Event>> = None;
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

    fn run_on(m: &Module, refine: bool) -> MatchingResult {
        let cx = AnalysisCx::build(m, InitialContext::Sequential);
        check_matching(&cx, m.index("main").unwrap(), refine)
    }

    fn run_with(src: &str, refine: bool) -> MatchingResult {
        run_on(&lower(src), refine)
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
        let cx = AnalysisCx::build(&m, InitialContext::Sequential);
        let r = check_matching(&cx, m.index("main").unwrap(), true);
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
        assert_eq!(r.tainted_callees.len(), 1);
        assert_eq!(r.tainted_callees, [m.index("exchange").unwrap()]);
    }

    #[test]
    fn balanced_calls_refined_away() {
        let m = lower(
            "fn exchange() { MPI_Barrier(); }
             fn main() { if (rank() == 0) { exchange(); } else { exchange(); } }",
        );
        let r = run_on(&m, true);
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
