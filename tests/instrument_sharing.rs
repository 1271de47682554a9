//! `instrument_module` copies what it changes and shares the rest, on a
//! real workload: HERA-B's instrumented module holds, pointer for
//! pointer, the input's functions except the ones the plan names, and is
//! byte for byte (`{:?}`) what the deep-cloning pass produced.

use parcoach::analysis::{instrument_module, AnalysisSession, InstrumentMode, InstrumentStats};
use parcoach::front::parse_and_check;
use parcoach::ir::lower::lower_program;
use parcoach::workloads::{figure1_suite, WorkloadClass};
use std::collections::HashSet;
use std::sync::Arc;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Computed by this test's own `{:?}` fingerprint on the commit before
/// modules shared their functions (`instrument_module` opened with a
/// deep `m.clone()` then).
const PINNED_STATS: InstrumentStats = InstrumentStats {
    cc_collective: 7,
    cc_return: 6,
    monothread_asserts: 0,
    concurrency_sites: 0,
    p2p_epochs: 0,
};
const PINNED_INSTRUMENTED_FINGERPRINT: u64 = 10_663_543_730_233_567_509;

#[test]
fn hera_b_unshares_exactly_the_functions_the_plan_names() {
    let suite = figure1_suite(WorkloadClass::B);
    let w = suite.iter().find(|w| w.name == "HERA").expect("HERA-B");
    let unit = parse_and_check(w.name, &w.source).expect("workload compiles");
    let m = lower_program(&unit.program, &unit.signatures);
    let report = AnalysisSession::builder().build().check_module(&m);
    let (instrumented, stats) = instrument_module(&m, &report, InstrumentMode::Selective);

    let plan = &report.plan;
    let named: HashSet<&str> = (plan.cc_functions.iter().map(String::as_str))
        .chain(plan.monothread_checks.iter().map(|(f, _)| f.as_str()))
        .chain(plan.concurrency_sites.iter().map(|(f, _, _)| f.as_str()))
        .chain(plan.p2p_epoch_functions.iter().map(String::as_str))
        .collect();
    assert!(!named.is_empty() && named.len() < m.funcs.len());
    for (before, after) in m.funcs.iter().zip(&instrumented.funcs) {
        assert_eq!(
            Arc::ptr_eq(before, after),
            !named.contains(before.name.as_str()),
            "`{}`: shared iff the plan does not name it",
            before.name
        );
    }
    assert!(Arc::ptr_eq(&m.by_name, &instrumented.by_name));

    let fingerprint = fnv1a(format!("{:?}", instrumented.funcs).as_bytes());
    assert_eq!(
        (stats, fingerprint),
        (PINNED_STATS, PINNED_INSTRUMENTED_FINGERPRINT),
        "the instrumented HERA-B module changed"
    );

    // The input is still what lowering made it.
    assert_eq!(m, lower_program(&unit.program, &unit.signatures));
}
