//! The static phase's output, pinned: one fingerprint over everything a
//! user of `parcoachc check` (and of the instrumented run) can observe,
//! on the error catalogue, the Figure-1 suite (classes A, B and C) and
//! 300 seeded `Scenario` modules.
//!
//! Per module it hashes the report's `{:?}` text, the rendered report,
//! the instrumentation statistics and the canonical text of every
//! instrumented function. The fingerprint below was computed by this
//! very test on the commit before the static phase's per-check interning
//! arenas were deleted, re-pinned when spans moved out of the IR's
//! variants, which moved only where the canonical text prints them, and
//! re-pinned when the instrumentation plan became one record per
//! function and return `CC`s and monothread asserts gained site ids,
//! which moved the report's `{:?}` text and the canonical text of those
//! checks only, and re-pinned when the three findings that had no
//! position got one (a barrier divergence at the step that enters its
//! join, a "loop here" note at the loop's condition, a caller-context
//! note at the function's header) and a caller's synthetic region
//! printed as `P(caller)` instead of its internal id, which moved those
//! spans and messages only, and re-pinned when a barrier divergence
//! moved from the step entering its join to the branch that splits the
//! paths (the join's immediate dominator), which moved that one span of
//! the catalogue's `barrier-divergence` case only. A
//! refactor of the static phase that claims "same reports" passes this
//! test unchanged; a change of verdict on purpose re-pins it (the
//! assertion message prints the new value).

mod corpus;

use corpus::corpus;
use parcoach::analysis::{instrument_module, AnalysisSession, InstrumentMode};
use parcoach::front::parse_and_check;
use parcoach::ir::lower::lower_program;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn static_reports_and_instrumentation_are_pinned() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut modules = 0usize;
    let mut session = AnalysisSession::default();
    for (name, src) in corpus() {
        let unit = parse_and_check(&name, &src)
            .unwrap_or_else(|(d, sm)| panic!("{name}: {}", d.render(&sm)));
        let module = lower_program(&unit.program, &unit.signatures);
        let report = session.check_module(&module);
        fnv1a(&mut h, format!("{report:?}").as_bytes());
        fnv1a(&mut h, report.render(&unit.source_map).as_bytes());
        let (instrumented, stats) = instrument_module(&module, &report, InstrumentMode::Selective);
        fnv1a(&mut h, format!("{stats:?}").as_bytes());
        for f in &instrumented.funcs {
            fnv1a(&mut h, f.canonical(&instrumented).as_bytes());
        }
        modules += 1;
    }
    assert_eq!(
        (modules, h),
        (PINNED_MODULES, PINNED_REPORT_FINGERPRINT),
        "static reports or instrumentation of the corpus changed"
    );
}

const PINNED_MODULES: usize = 362;
const PINNED_REPORT_FINGERPRINT: u64 = 16_938_143_202_184_162_931;
