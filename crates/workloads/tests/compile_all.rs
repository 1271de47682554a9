//! Every generated workload must parse, type-check, lower, verify and
//! analyze — the compile-time benchmark (Figure 1) depends on it.

use parcoach_core::{AnalysisSession, WarningKind};
use parcoach_front::parse_and_check;
use parcoach_ir::lower::lower_program;
use parcoach_workloads::{error_catalogue, figure1_suite, nas_mz, MzKind, WorkloadClass};

#[test]
fn figure1_suite_compiles_all_classes() {
    for class in [WorkloadClass::A, WorkloadClass::B, WorkloadClass::C] {
        for w in figure1_suite(class) {
            let unit = parse_and_check(w.name, &w.source).unwrap_or_else(|(d, sm)| {
                panic!(
                    "{} {:?} does not compile:\n{}",
                    w.name,
                    class,
                    d.render(&sm)
                )
            });
            let module = lower_program(&unit.program, &unit.signatures);
            let errs = parcoach_ir::verify_module(&module);
            assert!(errs.is_empty(), "{} {:?}: {errs:?}", w.name, class);
        }
    }
}

#[test]
fn nas_workloads_have_no_context_warnings() {
    // The NAS-MZ programs place every collective correctly: phases 1/2
    // must be silent (phase 3 may warn about uniform conditionals — the
    // false positives the dynamic checks clear).
    for kind in [MzKind::BT, MzKind::SP, MzKind::LU] {
        let w = nas_mz::generate(kind, WorkloadClass::A);
        let unit = parse_and_check(w.name, &w.source).expect("compiles");
        let module = lower_program(&unit.program, &unit.signatures);
        let report = AnalysisSession::builder().build().check_module(&module);
        for warn in &report.warnings {
            assert!(
                !matches!(
                    warn.kind,
                    WarningKind::MultithreadedCollective
                        | WarningKind::NestedParallelismCollective
                        | WarningKind::ConcurrentCollectives
                        | WarningKind::BarrierDivergence
                ),
                "{}: unexpected context warning {:?}: {}",
                w.name,
                warn.kind,
                warn.message
            );
        }
    }
}

#[test]
fn catalogue_compiles() {
    for case in error_catalogue() {
        let r = parse_and_check(case.id, &case.source);
        assert!(
            r.is_ok(),
            "case {} does not compile: {:?}",
            case.id,
            r.err().map(|(d, sm)| d.render(&sm))
        );
    }
}

#[test]
fn workloads_have_realistic_scale() {
    // Class B sizes should be ordered: HERA biggest, EPCC mid, NAS
    // solvers substantial.
    let suite = figure1_suite(WorkloadClass::B);
    let lines: std::collections::HashMap<_, _> =
        suite.iter().map(|w| (w.name, w.lines())).collect();
    assert!(lines["HERA"] > lines["EPCC"], "{lines:?}");
    assert!(lines["BT-MZ"] > 200, "{lines:?}");
    for w in &suite {
        assert!(w.lines() > 100, "{} too small: {}", w.name, w.lines());
    }
}
