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
use parcoach_ir::func::{FuncIr, Module};
use parcoach_ir::instr::{CheckOp, Instr, MpiIr, Terminator};
use parcoach_ir::types::{BlockId, RegionId};
use std::collections::{HashMap, HashSet};
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

/// Instrument a module according to the static report. Returns the
/// transformed module and insertion statistics.
///
/// The input module stays pristine. The result shares every function
/// that receives no check with it ([`Module`] holds its functions behind
/// `Arc`s) and copies only the ones the plan names: code proven correct
/// statically is not instrumented — it is not even copied.
pub fn instrument_module(
    m: &Module,
    report: &StaticReport,
    mode: InstrumentMode,
) -> (Module, InstrumentStats) {
    let mut out = m.clone();
    let mut stats = InstrumentStats::default();

    // Index the plan per function. (`suspect_collectives` is carried in
    // the plan for reporting; CC coverage is function-granular via
    // `cc_functions`, which the pipeline derives from the suspects.)
    let mut mono_checks: HashMap<&str, HashSet<BlockId>> = HashMap::new();
    for (f, b) in &report.plan.monothread_checks {
        mono_checks.entry(f).or_default().insert(*b);
    }
    let mut conc_sites: HashMap<&str, Vec<(u32, u32)>> = HashMap::new();
    for (f, region, site) in &report.plan.concurrency_sites {
        conc_sites.entry(f).or_default().push((*region, *site));
    }
    let cc_funcs: HashSet<&str> = report
        .plan
        .cc_functions
        .iter()
        .map(|s| s.as_str())
        .collect();

    let p2p_funcs: HashSet<&str> = report
        .plan
        .p2p_epoch_functions
        .iter()
        .map(|s| s.as_str())
        .collect();
    // Full mode guards every finalize when the module has p2p traffic
    // anywhere (the counters are world-global; the suspect send may
    // live in a different function than the finalize).
    let guard_every_finalize = mode == InstrumentMode::Full && m.funcs.iter().any(|f| f.has_p2p());
    let no_blocks = HashSet::new();

    for shared in &mut out.funcs {
        let name = shared.name.as_str();
        let full = mode == InstrumentMode::Full && shared.has_mpi();
        let cc_here = full || cc_funcs.contains(name);
        let mono_blocks = mono_checks.get(name).unwrap_or(&no_blocks);
        let sites = conc_sites.get(name).map_or(&[][..], Vec::as_slice);
        let p2p_here = (full && guard_every_finalize) || p2p_funcs.contains(name);
        if !cc_here && mono_blocks.is_empty() && sites.is_empty() && !p2p_here {
            continue;
        }
        // The one copy: `m` holds the function too.
        let func = Arc::make_mut(shared);

        instrument_collectives(func, cc_here, mono_blocks, &mut stats);

        if cc_here {
            instrument_returns(func, &mut stats);
        }

        for &(region, site) in sites {
            if instrument_region_counter(func, RegionId(region), site) {
                stats.concurrency_sites += 1;
            }
        }

        if p2p_here {
            instrument_p2p_epochs(func, &mut stats);
        }
    }

    (out, stats)
}

/// Insert `CC` + monothread asserts before collectives.
fn instrument_collectives(
    func: &mut FuncIr,
    cc_here: bool,
    mono_blocks: &HashSet<BlockId>,
    stats: &mut InstrumentStats,
) {
    for bidx in 0..func.blocks.len() {
        let bid = BlockId(bidx as u32);
        // When a function is CC-instrumented, *every* collective in it
        // gets a CC — a mismatch can pair any two collectives across
        // processes, so partial coverage would miss errors. Suspect
        // blocks additionally get the monothread assert.
        let needs_cc = cc_here;
        let block = &mut func.blocks[bidx];
        let mut i = 0;
        while i < block.instrs.len() {
            // Data collectives and the communicator-management
            // collectives (split/dup, which synchronize their parent)
            // are guarded alike.
            let (what, color, comm, span) = match &block.instrs[i] {
                Instr::Mpi {
                    op: MpiIr::Collective { kind, comm, .. },
                    span,
                    ..
                } => (kind.mpi_name(), kind.color(), *comm, *span),
                Instr::Mpi { op, span, .. } => match op.comm_mgmt() {
                    Some((name, parent)) => {
                        let color = if name == "MPI_Comm_split" {
                            parcoach_ir::instr::COLOR_COMM_SPLIT
                        } else {
                            parcoach_ir::instr::COLOR_COMM_DUP
                        };
                        (name, color, Some(parent), *span)
                    }
                    None => {
                        i += 1;
                        continue;
                    }
                },
                _ => {
                    i += 1;
                    continue;
                }
            };
            let mut inserted = 0;
            if mono_blocks.contains(&bid) {
                block
                    .instrs
                    .insert(i, Instr::Check(CheckOp::AssertMonothread { what, span }));
                stats.monothread_asserts += 1;
                inserted += 1;
            }
            if needs_cc {
                // The CC runs on the guarded collective's communicator
                // (see CheckOp::CollectiveCc).
                block
                    .instrs
                    .insert(i, Instr::Check(CheckOp::CollectiveCc { color, comm, span }));
                stats.cc_collective += 1;
                inserted += 1;
            }
            i += inserted + 1;
        }
    }
}

/// Append a `ReturnCc` check at the end of every returning block.
fn instrument_returns(func: &mut FuncIr, stats: &mut InstrumentStats) {
    for block in &mut func.blocks {
        if let Terminator::Return { span, .. } = block.term {
            block.instrs.push(Instr::Check(CheckOp::ReturnCc { span }));
            stats.cc_return += 1;
        }
    }
}

/// Insert a `P2pEpoch` census immediately before every `MPI_Finalize`:
/// the communicators' final synchronization point, where every buffered
/// message must have been received (MPI semantics) — so unbalanced
/// per-communicator send/receive totals are a definite error.
fn instrument_p2p_epochs(func: &mut FuncIr, stats: &mut InstrumentStats) {
    for block in &mut func.blocks {
        let mut i = 0;
        while i < block.instrs.len() {
            if let Instr::Mpi {
                op: MpiIr::Finalize,
                span,
                ..
            } = &block.instrs[i]
            {
                let span = *span;
                block
                    .instrs
                    .insert(i, Instr::Check(CheckOp::P2pEpoch { span }));
                stats.p2p_epochs += 1;
                i += 1;
            }
            i += 1;
        }
    }
}

/// Place `ConcEnter` at the region's body entry and `ConcExit` in its end
/// directive block. Returns false when the region cannot be resolved.
fn instrument_region_counter(func: &mut FuncIr, region: RegionId, site: u32) -> bool {
    let Some(body_entry) = crate::concurrency::region_body_entry(func, region) else {
        return false;
    };
    // Locate the end-directive block of the region.
    let end_block = func.iter_blocks().find_map(|(id, b)| {
        b.directive()
            .filter(|d| d.closes_region() && d.region() == Some(region))
            .map(|_| id)
    });
    let Some(end_block) = end_block else {
        return false;
    };
    let span = func.block(body_entry).span;
    func.block_mut(body_entry)
        .instrs
        .insert(0, Instr::Check(CheckOp::ConcEnter { site, span }));
    func.block_mut(end_block)
        .instrs
        .push(Instr::Check(CheckOp::ConcExit { site }));
    true
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
        let has_cc = f.blocks.iter().any(|b| {
            b.instrs
                .iter()
                .any(|i| matches!(i, Instr::Check(CheckOp::CollectiveCc { .. })))
        });
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
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::Check(CheckOp::ConcEnter { .. })))
            .count();
        let exits = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::Check(CheckOp::ConcExit { .. })))
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
        for (before, after) in m.funcs.iter().zip(&instr.funcs) {
            let named = report.plan.cc_functions.contains(&before.name);
            assert_eq!(Arc::ptr_eq(before, after), !named, "`{}`", before.name);
        }
        assert!(report.plan.cc_functions.contains(&"dirty".to_string()));
        assert!(
            Arc::ptr_eq(&m.funcs[0], &instr.funcs[0]),
            "`clean` is shared"
        );
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
        let guarded = shutdown.blocks.iter().any(|b| {
            b.instrs.windows(2).any(|w| {
                matches!(
                    w,
                    [
                        Instr::Check(CheckOp::P2pEpoch { .. }),
                        Instr::Mpi {
                            op: MpiIr::Finalize,
                            ..
                        }
                    ]
                )
            })
        });
        assert!(guarded, "{}", shutdown.dump());
        // Without p2p traffic there is nothing to count.
        let (_, stats) = pipeline(
            "fn main() { MPI_Init(); MPI_Barrier(); MPI_Finalize(); }",
            InstrumentMode::Full,
        );
        assert_eq!(stats.p2p_epochs, 0);
    }
}
