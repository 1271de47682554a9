//! How often a cold check evaluates a function's parallelism words,
//! as an exact count: `QueryStats::pw_misses` after one
//! `check_module_in` over an empty table, against the function count.
//! The function count is the floor — each function evaluated once under
//! its final context — and the context fixpoint's round loop exceeds it
//! only when a caller raises a function's context after the function
//! was evaluated.
//!
//! The counts are pinned on the 15 Figure-1 sources and on the 300
//! modules of the seed-42 fuzz campaign's first rounds
//! (`module_seed(42, i)` → `Scenario::generate`), so a change to the
//! context fixpoint that evaluates more, or less, shows up here by
//! module.

use parcoach::analysis::{AnalysisSession, QueryDb};
use parcoach::front::parse_and_check;
use parcoach::ir::lower::lower_program;
use parcoach::workloads::{figure1_suite, WorkloadClass};
use parcoach_fuzz::module_seed;
use parcoach_testutil::Scenario;

/// `(functions, parallelism-word evaluations)` of a cold check of `src`.
fn evaluations(name: &str, src: &str) -> (usize, u64) {
    let unit =
        parse_and_check(name, src).unwrap_or_else(|(d, sm)| panic!("{name}: {}", d.render(&sm)));
    let m = lower_program(&unit.program, &unit.signatures);
    let mut db = QueryDb::new();
    AnalysisSession::default()
        .check_module_in(&m, &mut db, None)
        .expect("no cancel token");
    (m.funcs.len(), db.stats().pw_misses)
}

#[test]
fn figure1_sources_evaluate_each_function_once() {
    let mut funcs = 0;
    for class in [WorkloadClass::A, WorkloadClass::B, WorkloadClass::C] {
        for w in figure1_suite(class) {
            let (n, evaluated) = evaluations(w.name, &w.source);
            assert_eq!(evaluated, n as u64, "{}-{class:?}", w.name);
            funcs += n;
        }
    }
    assert_eq!(funcs, 615);
}

/// `(module index, functions, evaluations)` of every seed-42 campaign
/// module that exceeds the floor: 8 evaluations too many over 578
/// functions.
const PINNED_EXCESS: [(u64, usize, u64); 7] = [
    (25, 2, 3),
    (42, 2, 3),
    (45, 2, 3),
    (174, 3, 4),
    (186, 3, 4),
    (216, 3, 4),
    (234, 3, 5),
];

#[test]
fn seed_42_campaign_modules_exceed_the_floor_exactly_where_pinned() {
    let mut funcs = 0;
    let mut excess = Vec::new();
    for i in 0..300 {
        let src = Scenario::generate(module_seed(42, i)).render();
        let (n, evaluated) = evaluations(&format!("fuzz_{i}.mh"), &src);
        funcs += n;
        if evaluated != n as u64 {
            excess.push((i, n, evaluated));
        }
    }
    assert_eq!(funcs, 578);
    assert_eq!(excess, PINNED_EXCESS);
}
