//! Phase 1 — "all MPI collectives are executed in a monothreaded
//! context" (paper §2, property 1).
//!
//! For every collective node, classify its parallelism word against
//! `L = (S|PB*S)*`. Nodes that fail (or whose word is control-flow
//! dependent) join the suspect set `S` and get a runtime monothread
//! check (the paper's `S_ipw` instrumentation); the warning cites the
//! parallel construct responsible.

use crate::facts::AnalysisCx;
use crate::lang::MonoVerdict;
use crate::pw::{PwState, SYNTH_BASE};
use crate::query::Locator;
use crate::report::{WarningCore, WarningKind};
use crate::word::Token;
use parcoach_front::ast::ThreadLevel;
use parcoach_ir::func::FuncIr;
use parcoach_ir::types::BlockId;

/// Phase-1 result for one function.
#[derive(Debug, Clone, Default)]
pub struct MonoResult {
    /// Warnings found.
    pub warnings: Vec<WarningCore>,
    /// Collective blocks in (possibly) multithreaded context — the set
    /// `S`; these need `CC` + monothread checks.
    pub suspects: Vec<BlockId>,
    /// The highest MPI thread level required by any collective of this
    /// function (None when the function has no collectives).
    pub required_level: Option<ThreadLevel>,
}

/// Run phase 1 on one function, reading its parallelism words from the
/// fact store.
pub fn check_monothread(cx: &AnalysisCx, fidx: usize) -> MonoResult {
    let f = &cx.module.funcs[fidx];
    let pw = &cx.facts(fidx).pw;
    let mut out = MonoResult::default();

    // Structural divergences (barrier in one branch only) are reported
    // regardless of collectives: they are candidate thread deadlocks.
    for d in &pw.divergences {
        out.warnings.push(WarningCore {
            kind: WarningKind::BarrierDivergence,
            message: format!(
                "parallel construct / barrier structure differs between paths \
                 ({} vs {}) — a barrier may be executed by only part of the team",
                d.left, d.right
            ),
            site: Locator::Block(fidx, d.block),
            related: Vec::new(),
        });
    }

    // One classification loop for everything that synchronizes like a
    // collective: the data collectives and the communicator-management
    // collectives (`MPI_Comm_split`/`dup`, which synchronize their
    // parent's members — a whole team creating a communicator is the
    // same error as a whole team entering a barrier).
    for (bid, block) in f.iter_blocks() {
        for (ii, i) in block.instrs.iter().enumerate() {
            let parcoach_ir::instr::Instr::Mpi { op, .. } = i else {
                continue;
            };
            let name = match op.collective_kind() {
                Some(k) => k.mpi_name(),
                None => match op.comm_mgmt() {
                    Some((n, _)) => n,
                    None => continue,
                },
            };
            let site = Locator::Instr(fidx, bid, ii);
            match pw.entry[bid.index()] {
                None => continue, // unreachable
                Some(PwState::Conflict) => {
                    // Conflict state: context depends on control flow.
                    out.warnings.push(WarningCore {
                        kind: WarningKind::MultithreadedCollective,
                        message: format!(
                            "{name} is reached with control-flow-dependent thread \
                             context; cannot prove monothreaded execution"
                        ),
                        site,
                        related: Vec::new(),
                    });
                    out.suspects.push(bid);
                    out.bump_level(ThreadLevel::Multiple);
                }
                Some(PwState::Word(node)) => {
                    // The verdict is cached on the word node; the word
                    // itself materializes only for warning messages.
                    let class = pw.class(node);
                    out.bump_level(class.required_level);
                    match class.verdict {
                        MonoVerdict::SequentialContext | MonoVerdict::MonoThreaded => {}
                        MonoVerdict::MultiThreaded => {
                            let w = pw.dag.materialize(node);
                            let related = responsible_construct(f, fidx, &w);
                            out.warnings.push(WarningCore {
                                kind: WarningKind::MultithreadedCollective,
                                message: format!(
                                    "{name} may be executed by multiple non-synchronized \
                                     threads (parallelism word {w}); requires \
                                     MPI_THREAD_MULTIPLE and a proof that a single \
                                     thread calls it"
                                ),
                                site,
                                related,
                            });
                            out.suspects.push(bid);
                        }
                        MonoVerdict::NestedParallelism => {
                            let w = pw.dag.materialize(node);
                            let related = responsible_construct(f, fidx, &w);
                            out.warnings.push(WarningCore {
                                kind: WarningKind::NestedParallelismCollective,
                                message: format!(
                                    "{name} sits under nested parallel regions \
                                     (parallelism word {w}); one thread per team may \
                                     execute it"
                                ),
                                site,
                                related,
                            });
                            out.suspects.push(bid);
                        }
                    }
                }
            }
        }
    }

    // Point-to-point thread-level demand. Unlike collectives, p2p in a
    // multithreaded context is *not* an error (matching is by tag, and
    // MPIxThreads-style designs rely on it) — but it is only legal when
    // the program holds the thread level its context demands: any
    // thread of a team calling MPI needs MPI_THREAD_MULTIPLE, a
    // monothreaded region SERIALIZED (FUNNELED for master chains).
    for bid in f.p2p_blocks() {
        match pw.entry[bid.index()] {
            None => continue, // unreachable
            Some(PwState::Conflict) => out.bump_level(ThreadLevel::Multiple),
            Some(PwState::Word(node)) => out.bump_level(pw.class(node).required_level),
        }
    }

    out.suspects.dedup();
    out
}

impl MonoResult {
    fn bump_level(&mut self, l: ThreadLevel) {
        self.required_level = Some(match self.required_level {
            None => l,
            Some(cur) => cur.max(l),
        });
    }
}

/// Locate the parallel construct responsible for the multithreaded
/// context: the innermost `P` token's begin block (or a note that the
/// context comes from the caller when the token is synthetic).
fn responsible_construct(
    f: &FuncIr,
    fidx: usize,
    w: &crate::word::Word,
) -> Vec<(Option<Locator>, String)> {
    let mut related = Vec::new();
    if let Some(Token::P(r)) = w.tokens().iter().rev().find(|t| t.is_p()) {
        if r.0 >= SYNTH_BASE {
            related.push((
                None,
                "the multithreaded context comes from a caller of this function".to_string(),
            ));
        } else if let Some(begin) = f.region_begin_block(*r) {
            related.push((
                Some(Locator::Block(fidx, begin)),
                "parallel region opened here".to_string(),
            ));
        }
    }
    related
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pw::InitialContext;
    use parcoach_front::parse_and_check;
    use parcoach_ir::lower::lower_program;
    use parcoach_ir::Module;

    fn run(src: &str) -> (Module, Vec<MonoResult>) {
        let unit = parse_and_check("t.mh", src).expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        let cx = AnalysisCx::build(&m, InitialContext::Sequential, parcoach_pool::global());
        let results = (0..m.funcs.len())
            .map(|i| check_monothread(&cx, i))
            .collect();
        (m, results)
    }

    fn main_result(src: &str) -> MonoResult {
        let (m, rs) = run(src);
        let idx = m.by_name["main"];
        rs.into_iter().nth(idx).unwrap()
    }

    #[test]
    fn whole_team_comm_creation_flagged() {
        // Every thread of the team enters the comm_dup collective —
        // the same error as a whole-team barrier.
        let r = main_result("fn main() { parallel { let c = MPI_Comm_dup(MPI_COMM_WORLD); } }");
        assert!(
            r.warnings
                .iter()
                .any(|w| w.kind == WarningKind::MultithreadedCollective
                    && w.message.contains("MPI_Comm_dup")),
            "{:?}",
            r.warnings
        );
        assert_eq!(r.required_level, Some(ThreadLevel::Multiple));
        // Sequential comm creation is fine.
        let r = main_result("fn main() { let c = MPI_Comm_split(MPI_COMM_WORLD, 0, rank()); }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
    }

    #[test]
    fn p2p_levels_no_warning() {
        // Sequential p2p: SINGLE is enough.
        let r = main_result("fn main() { MPI_Send(1, 0, 1); let v = MPI_Recv(0, 1); }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
        assert_eq!(r.required_level, Some(ThreadLevel::Single));
        // Whole-team p2p: requires MULTIPLE but is not an error.
        let r = main_result("fn main() { parallel { MPI_Send(1, 0, 1); } }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
        assert_eq!(r.required_level, Some(ThreadLevel::Multiple));
        // Funneled p2p.
        let r = main_result("fn main() { parallel { master { MPI_Send(1, 0, 1); } } }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
        assert_eq!(r.required_level, Some(ThreadLevel::Funneled));
    }

    #[test]
    fn sequential_collective_clean() {
        let r = main_result("fn main() { MPI_Barrier(); }");
        assert!(r.warnings.is_empty());
        assert_eq!(r.required_level, Some(ThreadLevel::Single));
    }

    #[test]
    fn collective_in_single_clean_serialized() {
        let r = main_result("fn main() { parallel { single { MPI_Barrier(); } } }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
        assert_eq!(r.required_level, Some(ThreadLevel::Serialized));
    }

    #[test]
    fn collective_in_master_funneled() {
        let r = main_result("fn main() { parallel { master { MPI_Barrier(); } } }");
        assert!(r.warnings.is_empty());
        assert_eq!(r.required_level, Some(ThreadLevel::Funneled));
    }

    #[test]
    fn bare_parallel_collective_flagged() {
        let r = main_result("fn main() { parallel { MPI_Barrier(); } }");
        assert_eq!(r.warnings.len(), 1);
        assert_eq!(r.warnings[0].kind, WarningKind::MultithreadedCollective);
        assert_eq!(r.suspects.len(), 1);
        assert_eq!(r.required_level, Some(ThreadLevel::Multiple));
        // The responsible parallel construct is cited.
        assert!(!r.warnings[0].related.is_empty());
    }

    #[test]
    fn nested_parallelism_flagged_differently() {
        let r = main_result("fn main() { parallel { parallel { single { MPI_Barrier(); } } } }");
        assert_eq!(r.warnings.len(), 1);
        assert_eq!(r.warnings[0].kind, WarningKind::NestedParallelismCollective);
    }

    #[test]
    fn collective_in_pfor_flagged() {
        let r = main_result("fn main() { parallel { pfor (i in 0..4) { MPI_Barrier(); } } }");
        assert!(r
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::MultithreadedCollective));
    }

    #[test]
    fn collective_in_critical_flagged() {
        // critical serializes but every thread executes: N calls per rank.
        let r = main_result("fn main() { parallel { critical { MPI_Barrier(); } } }");
        assert!(r
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::MultithreadedCollective));
    }

    #[test]
    fn divergent_barrier_reported() {
        let r = main_result("fn main() { parallel { if (thread_num() == 0) { barrier; } } }");
        assert!(r
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::BarrierDivergence));
    }

    #[test]
    fn callee_in_parallel_context_flagged() {
        let (m, rs) = run("fn exchange() { MPI_Allreduce(1, SUM); }
             fn main() { parallel { exchange(); } }");
        let idx = m.by_name["exchange"];
        let r = &rs[idx];
        assert!(
            r.warnings
                .iter()
                .any(|w| w.kind == WarningKind::MultithreadedCollective),
            "collective in callee called from parallel must be flagged: {:?}",
            r.warnings
        );
        // The related note explains the context comes from the caller.
        assert!(r.warnings[0]
            .related
            .iter()
            .any(|(_, l)| l.contains("caller")));
    }

    #[test]
    fn callee_in_single_context_clean() {
        let (m, rs) = run("fn exchange() { MPI_Allreduce(1, SUM); }
             fn main() { parallel { single { exchange(); } } }");
        let idx = m.by_name["exchange"];
        assert!(rs[idx].warnings.is_empty(), "{:?}", rs[idx].warnings);
        assert_eq!(rs[idx].required_level, Some(ThreadLevel::Serialized));
    }

    #[test]
    fn conflict_context_collective_flagged() {
        // Barrier divergence upstream makes the collective's context
        // control-dependent.
        let r = main_result(
            "fn main() {
                parallel {
                    if (thread_num() == 0) { barrier; }
                    single { MPI_Barrier(); }
                }
            }",
        );
        assert!(r
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::MultithreadedCollective
                && w.message.contains("control-flow-dependent")));
    }
}
