//! A run error's position is a position in the plain module, the one
//! the static warnings name: on every error of the catalogue's runs it
//! lies inside that module, and a check's error is at what it guards.

use parcoach::interp::{prepare, Executor, RunConfig, RunErrorKind};
use parcoach::ir::{Instr, Locator, Module, Terminator};
use parcoach::workloads::error_catalogue;
use std::time::Duration;

/// The plain instruction `at` names, if it names one inside `m`.
fn instr_at(m: &Module, at: Locator) -> Option<&Instr> {
    let Locator::Instr(fi, b, ii) = at else {
        return None;
    };
    let f = m.funcs.get(fi)?;
    (b.index() < f.block_count()).then_some(())?;
    f.instrs(b).get(ii).map(|(i, _)| i)
}

fn inside(m: &Module, at: Locator) -> bool {
    let Some(f) = m.funcs.get(at.func()) else {
        return false;
    };
    match at {
        Locator::Instr(..) => instr_at(m, at).is_some(),
        Locator::Block(_, b) | Locator::Entry(_, b) | Locator::Cond(_, b) => {
            b.index() < f.block_count()
        }
    }
}

fn is_collective(i: Option<&Instr>) -> bool {
    matches!(i, Some(Instr::Mpi { op, .. }) if op.synchronizes().is_some())
}

#[test]
fn every_catalogue_run_error_is_at_a_plain_position() {
    let mut errors = 0;
    for case in error_catalogue() {
        let (_, plain) = prepare(case.id, &case.source, false).expect("compiles");
        let (_, instrumented) = prepare(case.id, &case.source, true).expect("compiles");
        let run = Executor::new(instrumented, RunConfig::fast_fail(2, 2))
            .run_within(Duration::from_secs(20))
            .unwrap_or_else(|e| panic!("{}: no report ({e:?})", case.id));
        for e in &run.errors {
            let id = case.id;
            assert!(inside(&plain, e.at), "{id}: {e} at {:?}", e.at);
            match e.kind {
                RunErrorKind::CcMismatch { .. } => {
                    let at_return = matches!(e.at, Locator::Cond(fi, b)
                        if matches!(plain.funcs[fi].block(b).term, Terminator::Return { .. }));
                    assert!(
                        at_return || is_collective(instr_at(&plain, e.at)),
                        "{id}: {e} at {:?}",
                        e.at
                    );
                }
                RunErrorKind::MonothreadViolation { .. } => {
                    let i = instr_at(&plain, e.at);
                    assert!(is_collective(i), "{id}: {e} at {:?}", e.at);
                }
                _ => {}
            }
            errors += 1;
        }
    }
    assert!(errors > 0, "the catalogue's errors were run");
}
