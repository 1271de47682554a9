//! `instrument_module` copies what it changes and shares the rest, on a
//! real workload: HERA-B's instrumented module holds, pointer for
//! pointer, the input's functions except the ones the plan marks, and its
//! canonical IR text is byte for byte what the pass produced when it
//! inserted each check into a block's own instruction vector. And it
//! only inserts: without its checks, an instrumented function is the
//! plain one.

mod corpus;

use parcoach::analysis::{instrument_module, AnalysisSession, InstrumentMode, InstrumentStats};
use parcoach::front::parse_and_check;
use parcoach::ir::lower::lower_program;
use parcoach::ir::Instr;
use parcoach::workloads::{figure1_suite, WorkloadClass};
use std::sync::Arc;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The statistics are pinned since the commit before modules shared
/// their functions; the fingerprint, of the canonical text
/// (`FuncIr::canonical`), was computed on the commit before functions held one
/// instruction array — the `{:?}` text pinned until then shows that
/// layout and so moved by construction — re-pinned when spans moved
/// out of the variants, which moved only where the text prints them, and
/// when return `CC`s and monothread asserts gained site ids, which moved
/// only where the text prints those.
const PINNED_STATS: InstrumentStats = InstrumentStats {
    cc_collective: 7,
    cc_return: 6,
    monothread_asserts: 0,
    concurrency_sites: 0,
    p2p_epochs: 0,
};
const PINNED_INSTRUMENTED_FINGERPRINT: u64 = 17_816_193_988_369_026_715;

#[test]
fn hera_b_unshares_exactly_the_functions_the_plan_names() {
    let suite = figure1_suite(WorkloadClass::B);
    let w = suite.iter().find(|w| w.name == "HERA").expect("HERA-B");
    let unit = parse_and_check(w.name, &w.source).expect("workload compiles");
    let m = lower_program(&unit.program, &unit.signatures);
    let report = AnalysisSession::builder().build().check_module(&m);
    let (instrumented, stats) = instrument_module(&m, &report, InstrumentMode::Selective);

    let plans = &report.plan.funcs;
    let marked = plans.iter().filter(|p| !p.is_empty()).count();
    assert!(marked > 0 && marked < m.funcs.len());
    for ((before, after), plan) in m.funcs.iter().zip(&instrumented.funcs).zip(plans) {
        assert_eq!(
            Arc::ptr_eq(before, after),
            plan.is_empty(),
            "`{}`: shared iff the plan marks no check",
            before.name
        );
    }

    let text: String = instrumented
        .funcs
        .iter()
        .map(|f| f.canonical(&instrumented))
        .collect();
    let fingerprint = fnv1a(text.as_bytes());
    assert_eq!(
        (stats, fingerprint),
        (PINNED_STATS, PINNED_INSTRUMENTED_FINGERPRINT),
        "the instrumented HERA-B module changed"
    );

    // The input is still what lowering made it.
    assert_eq!(m, lower_program(&unit.program, &unit.signatures));
}

/// Deleting the `Instr::Check`s of every function of an instrumented
/// module gives back the plain module's functions: instructions, spans,
/// blocks and terminators. A run error's position in the plain module is
/// a prefix count that relies on it.
#[test]
fn without_its_checks_an_instrumented_function_is_the_plain_one() {
    let mut session = AnalysisSession::default();
    for (name, src) in corpus::corpus() {
        let unit = parse_and_check(&name, &src)
            .unwrap_or_else(|(d, sm)| panic!("{name}: {}", d.render(&sm)));
        let m = lower_program(&unit.program, &unit.signatures);
        let report = session.check_module(&m);
        for mode in [InstrumentMode::Selective, InstrumentMode::Full] {
            let (instrumented, _) = instrument_module(&m, &report, mode);
            for (plain, f) in m.funcs.iter().zip(&instrumented.funcs) {
                let mut stripped = (**f).clone();
                stripped.rewrite_instrs(|_, _, old, out| {
                    out.extend(old.filter(|(i, _)| !matches!(i, Instr::Check(_))));
                });
                assert!(stripped == **plain, "{name}, {mode:?}: `{}`", plain.name);
            }
        }
    }
}
