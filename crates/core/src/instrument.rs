//! Static instrumentation for execution-time verification (paper §3).
//!
//! Inserts the dynamic checks the static phase asked for:
//!
//! * `CC` (collective check) **before each suspect MPI collective** and
//!   **before `return` statements** of functions containing suspect
//!   collectives — the color all-reduce of PARCOACH's Algorithm 3;
//! * a **monothread assertion** before collectives whose context could
//!   not be proven (`S_ipw`);
//! * **concurrency counters** around possibly-concurrent monothreaded
//!   regions (`S_cc`).
//!
//! "The cost of the runtime checks is limited by a selective
//! instrumentation, avoiding unnecessary checks": functions with no
//! warnings receive no checks at all in [`InstrumentMode::Selective`].
//! [`InstrumentMode::Full`] instruments every collective and every
//! return of every collective-bearing function — the naive baseline the
//! ablation experiment (E5) compares against.

use crate::report::StaticReport;
use parcoach_front::span::Span;
use parcoach_ir::func::{FuncIr, Module};
use parcoach_ir::instr::{CheckOp, Instr, MpiOp, Terminator};
use parcoach_ir::types::{BlockId, RegionId, Value};
use std::sync::Arc;

/// How aggressively to instrument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InstrumentMode {
    /// Only what the static analysis demanded (the paper's approach).
    #[default]
    Selective,
    /// Every collective and return in collective-bearing functions (the
    /// no-static-analysis baseline).
    Full,
}

/// Counters describing what was inserted (ablation metric).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InstrumentStats {
    /// `CC` calls guarding collectives.
    pub cc_collective: usize,
    /// `CC` calls at returns.
    pub cc_return: usize,
    /// Monothread assertions.
    pub monothread_asserts: usize,
    /// Concurrency counter enter/exit pairs.
    pub concurrency_sites: usize,
    /// Point-to-point epoch census checks (before `MPI_Finalize`).
    pub p2p_epochs: usize,
}

impl InstrumentStats {
    /// Total inserted checks.
    pub fn total(&self) -> usize {
        self.cc_collective
            + self.cc_return
            + self.monothread_asserts
            + self.concurrency_sites
            + self.p2p_epochs
    }
}

/// Instrument a module according to its static report (`report` is
/// `m`'s). Returns the transformed module and insertion statistics.
///
/// The input module stays pristine. The result shares every function
/// that receives no check with it ([`Module`] holds its functions behind
/// `Arc`s) and copies only the ones the plan marks: code proven correct
/// statically is not instrumented — it is not even copied. Monothread
/// asserts and return `CC`s are numbered densely from 0 in module order,
/// each kind on its own.
pub fn instrument_module(
    m: &Module,
    report: &StaticReport,
    mode: InstrumentMode,
) -> (Module, InstrumentStats) {
    assert_eq!(report.plan.funcs.len(), m.funcs.len(), "a report of `m`");
    let mut out = m.clone();
    let mut stats = InstrumentStats::default();
    // Full mode guards every finalize when the module has p2p traffic
    // anywhere (the counters are world-global; the suspect send may
    // live in a different function than the finalize).
    let guard_every_finalize = mode == InstrumentMode::Full && m.funcs.iter().any(|f| f.has_p2p());

    for (shared, plan) in out.funcs.iter_mut().zip(&report.plan.funcs) {
        let full = mode == InstrumentMode::Full && shared.has_mpi();
        if !full && plan.is_empty() {
            continue;
        }
        // The one copy: `m` holds the function too.
        let func = Arc::make_mut(shared);
        let checks = Checks {
            cc: full || plan.cc,
            mono_blocks: &plan.monothread,
            counters: region_counters(func, &plan.concurrency),
            p2p: (full && guard_every_finalize) || plan.p2p_epoch,
        };
        stats.concurrency_sites += checks.counters.len();
        checks.apply(func, &mut stats);
    }

    (out, stats)
}

/// The checks one function receives.
struct Checks<'a> {
    /// `CC` before every collective and every return.
    cc: bool,
    /// Blocks whose collectives get a monothread assert, sorted.
    mono_blocks: &'a [BlockId],
    /// Concurrency counters: `(body entry, end block, site, span)`.
    counters: Vec<(BlockId, BlockId, u32, Span)>,
    /// A `P2pEpoch` census before every `MPI_Finalize`.
    p2p: bool,
}

impl Checks<'_> {
    /// Rebuild `func`'s instruction array with the checks in place, in
    /// one pass. Within a block:
    ///
    /// * the `ConcEnter`s of the regions whose body starts there, last
    ///   site first;
    /// * before each collective (data collectives and the
    ///   communicator-management ones, which synchronize their parent,
    ///   alike), its `CC` then its monothread assert — when a function
    ///   is CC-instrumented, *every* collective in it gets a `CC`: a
    ///   mismatch can pair any two collectives across processes, so
    ///   partial coverage would miss errors;
    /// * before each `MPI_Finalize`, the `P2pEpoch` census: the
    ///   communicators' final synchronization point, where every
    ///   buffered message must have been received (MPI semantics) — so
    ///   unbalanced per-communicator send/receive totals are a definite
    ///   error;
    /// * at the end, the `ReturnCc` of a returning block, then the
    ///   `ConcExit`s of the regions that end there, in site order.
    ///
    /// The module's asserts and return `CC`s so far, counted in `stats`,
    /// number the next ones.
    fn apply(&self, func: &mut FuncIr, stats: &mut InstrumentStats) {
        func.rewrite_instrs(|bid, block, old, out| {
            for &(entry, _, site, span) in self.counters.iter().rev() {
                if entry == bid {
                    out.push((Instr::Check(CheckOp::ConcEnter { site }), span));
                }
            }
            let mono = self.mono_blocks.binary_search(&bid).is_ok();
            for (i, span) in old {
                if let Some((what, color, comm)) = guarded_collective(&i) {
                    if self.cc {
                        // The CC runs on the guarded collective's
                        // communicator (see CheckOp::CollectiveCc).
                        out.push((Instr::Check(CheckOp::CollectiveCc { color, comm }), span));
                        stats.cc_collective += 1;
                    }
                    if mono {
                        let site = stats.monothread_asserts as u32;
                        out.push((Instr::Check(CheckOp::AssertMonothread { what, site }), span));
                        stats.monothread_asserts += 1;
                    }
                }
                if let Instr::Mpi {
                    op: MpiOp::Finalize,
                    ..
                } = &i
                {
                    if self.p2p {
                        out.push((Instr::Check(CheckOp::P2pEpoch), span));
                        stats.p2p_epochs += 1;
                    }
                }
                out.push((i, span));
            }
            if self.cc && matches!(block.term, Terminator::Return { .. }) {
                let site = stats.cc_return as u32;
                out.push((Instr::Check(CheckOp::ReturnCc { site }), block.term_span));
                stats.cc_return += 1;
            }
            for &(_, end, site, _) in &self.counters {
                if end == bid {
                    out.push((Instr::Check(CheckOp::ConcExit { site }), Span::DUMMY));
                }
            }
        });
    }
}

/// What a `CC` guarding `i` checks — `(MPI name, color, communicator)`
/// — if `i` is a collective.
fn guarded_collective(i: &Instr) -> Option<(&'static str, u32, Option<Value>)> {
    let Instr::Mpi { op, .. } = i else {
        return None;
    };
    let (color, comm) = op.synchronizes()?;
    Some((op.name(), color, comm))
}

/// Where each `(region, site)` pair's counter goes: `ConcEnter` at the
/// region's body entry, `ConcExit` in its end directive block. A region
/// that cannot be resolved gets no counter.
fn region_counters(func: &FuncIr, sites: &[(u32, u32)]) -> Vec<(BlockId, BlockId, u32, Span)> {
    sites
        .iter()
        .filter_map(|&(region, site)| {
            let region = RegionId(region);
            let body_entry = crate::concurrency::region_body_entry(func, region)?;
            let end_block = func.iter_blocks().find_map(|(id, b)| {
                b.directive()
                    .filter(|d| d.closes_region() && d.region() == Some(region))
                    .map(|_| id)
            })?;
            Some((body_entry, end_block, site, func.block(body_entry).span))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::AnalysisSession;
    use parcoach_front::parse_and_check;
    use parcoach_ir::lower::lower_program;
    use parcoach_ir::verify::verify_module;

    fn pipeline(src: &str, mode: InstrumentMode) -> (Module, InstrumentStats) {
        let unit = parse_and_check("t.mh", src).expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        let report = AnalysisSession::builder().build().check_module(&m);
        let (instr, stats) = instrument_module(&m, &report, mode);
        let errs = verify_module(&instr);
        assert!(errs.is_empty(), "instrumented module must verify: {errs:?}");
        (instr, stats)
    }

    #[test]
    fn clean_program_gets_no_checks() {
        let (_m, stats) = pipeline(
            "fn main() { MPI_Init(); MPI_Barrier(); MPI_Finalize(); }",
            InstrumentMode::Selective,
        );
        assert_eq!(
            stats.total(),
            0,
            "selective instrumentation on a clean program"
        );
    }

    #[test]
    fn full_mode_instruments_clean_program() {
        let (_m, stats) = pipeline(
            "fn main() { MPI_Init(); MPI_Barrier(); MPI_Finalize(); }",
            InstrumentMode::Full,
        );
        assert_eq!(stats.cc_collective, 1);
        assert_eq!(stats.cc_return, 1);
    }

    #[test]
    fn rank_dependent_barrier_gets_cc_and_return_cc() {
        let (m, stats) = pipeline(
            "fn main() { if (rank() == 0) { MPI_Barrier(); } }",
            InstrumentMode::Selective,
        );
        assert_eq!(stats.cc_collective, 1);
        assert_eq!(stats.cc_return, 1);
        let f = m.main().unwrap();
        let has_cc = f
            .instrs
            .iter()
            .any(|(i, _)| matches!(i, Instr::Check(CheckOp::CollectiveCc { .. })));
        assert!(has_cc);
    }

    #[test]
    fn multithreaded_collective_gets_assert() {
        let (_m, stats) = pipeline(
            "fn main() { parallel { MPI_Barrier(); } }",
            InstrumentMode::Selective,
        );
        assert!(stats.monothread_asserts >= 1);
        assert!(stats.cc_collective >= 1);
    }

    #[test]
    fn concurrent_singles_get_counters() {
        let (m, stats) = pipeline(
            "fn main() {
                parallel {
                    single nowait { MPI_Barrier(); }
                    single { MPI_Allreduce(1, SUM); }
                }
            }",
            InstrumentMode::Selective,
        );
        assert_eq!(stats.concurrency_sites, 2);
        let f = m.main().unwrap();
        let enters = f
            .instrs
            .iter()
            .filter(|(i, _)| matches!(i, Instr::Check(CheckOp::ConcEnter { .. })))
            .count();
        let exits = f
            .instrs
            .iter()
            .filter(|(i, _)| matches!(i, Instr::Check(CheckOp::ConcExit { .. })))
            .count();
        assert_eq!(enters, 2);
        assert_eq!(exits, 2);
    }

    #[test]
    fn selective_beats_full_on_mixed_program() {
        let src = "
            fn clean() { MPI_Barrier(); }
            fn dirty() { if (rank() == 0) { MPI_Barrier(); } }
            fn main() { clean(); dirty(); }
        ";
        let (_s, sel) = pipeline(src, InstrumentMode::Selective);
        let (_f, full) = pipeline(src, InstrumentMode::Full);
        assert!(
            sel.total() < full.total(),
            "selective {sel:?} must insert fewer checks than full {full:?}"
        );
    }

    #[test]
    fn original_module_untouched() {
        let unit = parse_and_check("t.mh", "fn main() { if (rank() == 0) { MPI_Barrier(); } }")
            .expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        let report = AnalysisSession::builder().build().check_module(&m);
        let (instr, stats) = instrument_module(&m, &report, InstrumentMode::Selective);
        assert!(stats.total() > 0);
        assert_ne!(instr, m);
        assert_eq!(m, lower_program(&unit.program, &unit.signatures));
    }

    /// Code proven correct statically is not instrumented — it is not
    /// even copied: the instrumented module holds the input's functions.
    #[test]
    fn clean_program_shares_every_function() {
        let unit = parse_and_check(
            "t.mh",
            "fn halo() { MPI_Barrier(); }
             fn main() { MPI_Init(); halo(); MPI_Finalize(); }",
        )
        .expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        let report = AnalysisSession::builder().build().check_module(&m);
        assert!(report.is_clean());
        let (instr, stats) = instrument_module(&m, &report, InstrumentMode::Selective);
        assert_eq!(stats.total(), 0);
        for (before, after) in m.funcs.iter().zip(&instr.funcs) {
            assert!(Arc::ptr_eq(before, after), "`{}` was copied", before.name);
        }
    }

    #[test]
    fn only_the_functions_the_plan_names_are_copied() {
        let src = "
            fn clean() { MPI_Barrier(); }
            fn dirty() { if (rank() == 0) { MPI_Barrier(); } }
            fn main() { clean(); dirty(); }
        ";
        let unit = parse_and_check("t.mh", src).expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        let report = AnalysisSession::builder().build().check_module(&m);
        let (instr, _) = instrument_module(&m, &report, InstrumentMode::Selective);
        for ((before, after), plan) in m.funcs.iter().zip(&instr.funcs).zip(&report.plan.funcs) {
            assert_eq!(Arc::ptr_eq(before, after), !plan.cc, "`{}`", before.name);
        }
        assert!(report.plan.funcs[1].cc, "`dirty`");
        assert!(
            Arc::ptr_eq(&m.funcs[0], &instr.funcs[0]),
            "`clean` is shared"
        );
    }

    /// Asserts and return `CC`s carry site ids, dense from 0 in module
    /// order, each kind on its own; the functions the plan marks are
    /// exactly the ones copied.
    #[test]
    fn check_sites_are_dense_in_module_order() {
        let src = "
            fn helper() { parallel { MPI_Barrier(); MPI_Allreduce(1, SUM); } }
            fn quiet() { let x = 1; }
            fn main() {
                parallel { MPI_Barrier(); }
                quiet();
                if (rank() == 0) { return; }
                helper();
            }
        ";
        let unit = parse_and_check("t.mh", src).expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        let report = AnalysisSession::builder().build().check_module(&m);
        let (instr, stats) = instrument_module(&m, &report, InstrumentMode::Selective);
        let (mut mono, mut ret) = (Vec::new(), Vec::new());
        for (fi, f) in instr.funcs.iter().enumerate() {
            for (i, _) in &f.instrs {
                match i {
                    Instr::Check(CheckOp::AssertMonothread { site, .. }) => mono.push((*site, fi)),
                    Instr::Check(CheckOp::ReturnCc { site }) => ret.push((*site, fi)),
                    _ => {}
                }
            }
        }
        // `(site, function)`: `helper`'s two collectives, then `main`'s
        // one; `helper`'s return, then `main`'s early and final ones.
        assert_eq!(mono, [(0, 0), (1, 0), (2, 2)]);
        assert_eq!(ret, [(0, 0), (1, 2), (2, 2)]);
        assert_eq!((stats.monothread_asserts, stats.cc_return), (3, 3));
        let plans = &report.plan.funcs;
        for ((before, after), plan) in m.funcs.iter().zip(&instr.funcs).zip(plans) {
            let shared = Arc::ptr_eq(before, after);
            assert_eq!(shared, plan.is_empty(), "`{}`", before.name);
        }
        assert!(report.plan.funcs[1].is_empty(), "`quiet`");
    }

    /// The p2p counters are world-global: in `Full` mode a module with
    /// p2p traffic anywhere guards every `MPI_Finalize`, also one in a
    /// function with no p2p of its own.
    #[test]
    fn full_mode_guards_every_finalize_of_a_module_with_p2p() {
        let src = "
            fn exchange() { if (rank() == 0) { MPI_Send(1, 1, 7); } else { let v = MPI_Recv(0, 7); } }
            fn shutdown() { MPI_Finalize(); }
            fn main() { MPI_Init(); exchange(); shutdown(); }
        ";
        let (m, stats) = pipeline(src, InstrumentMode::Full);
        assert_eq!(stats.p2p_epochs, 1);
        let shutdown = m.func("shutdown").unwrap();
        let guarded = shutdown.block_ids().any(|b| {
            shutdown.instrs(b).windows(2).any(|w| {
                matches!(
                    w,
                    [
                        (Instr::Check(CheckOp::P2pEpoch), _),
                        (
                            Instr::Mpi {
                                op: MpiOp::Finalize,
                                ..
                            },
                            _
                        )
                    ]
                )
            })
        });
        assert!(guarded, "{}", shutdown.dump(&m));
        // Without p2p traffic there is nothing to count.
        let (_, stats) = pipeline(
            "fn main() { MPI_Init(); MPI_Barrier(); MPI_Finalize(); }",
            InstrumentMode::Full,
        );
        assert_eq!(stats.p2p_epochs, 0);
    }
}
