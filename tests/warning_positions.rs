//! Every static warning and every note names a real source position and
//! no internal id: on the static pins' corpus (the error catalogue, the
//! Figure-1 programs of every class and 300 seeded scenarios), no warning
//! or note is rendered without a span (which would print as `file:1:1`),
//! and no message prints a synthetic region of a caller's context (ids
//! from `SYNTH_BASE` up). A barrier divergence names the branch that
//! splits the paths, not the `parallel` construct around it.

mod corpus;

use corpus::corpus;
use parcoach::analysis::pw::SYNTH_BASE;
use parcoach::analysis::AnalysisSession;
use parcoach::front::parse_and_check;
use parcoach::ir::lower::lower_program;
use parcoach::workloads::error_catalogue;

/// The region ids `text` prints as tokens of a parallelism word (`P3`,
/// `S12`).
fn region_ids(text: &str) -> impl Iterator<Item = u64> + '_ {
    text.split(|c: char| !c.is_ascii_alphanumeric())
        .filter_map(|w| w.strip_prefix(['P', 'S']))
        .filter_map(|n| n.parse().ok())
}

#[test]
fn warnings_name_real_positions_and_no_synthetic_region() {
    let mut session = AnalysisSession::default();
    let (mut warnings, mut notes) = (0, 0);
    for (name, src) in corpus() {
        let unit = parse_and_check(&name, &src)
            .unwrap_or_else(|(d, sm)| panic!("{name}: {}", d.render(&sm)));
        let module = lower_program(&unit.program, &unit.signatures);
        let report = session.check_module(&module);
        for w in &report.warnings {
            assert!(
                !w.span.is_dummy(),
                "{name}: a warning without a position: {w:?}"
            );
            for (span, label) in &w.related {
                assert!(
                    !span.is_dummy(),
                    "{name}: note `{label}` without a position: {w:?}"
                );
            }
            warnings += 1;
            notes += w.related.len();
        }
        let text = report.render(&unit.source_map);
        let synthetic = region_ids(&text).find(|&id| id >= SYNTH_BASE as u64);
        assert_eq!(
            synthetic, None,
            "{name}: a synthetic region printed:\n{text}"
        );
    }
    assert!(
        warnings > 0 && notes > 0,
        "{warnings} warnings, {notes} notes"
    );
}

#[test]
fn region_ids_are_read_from_words() {
    let ids: Vec<u64> = region_ids("word P0·S12·B (P(caller)) SUM P2P").collect();
    assert_eq!(ids, [0, 12]);
}

#[test]
fn barrier_divergence_is_at_its_branch() {
    let case = error_catalogue()
        .into_iter()
        .find(|c| c.id == "barrier-divergence")
        .expect("the catalogue has a barrier-divergence case");
    let unit = parse_and_check(case.id, &case.source).expect("the case compiles");
    let module = lower_program(&unit.program, &unit.signatures);
    let report = AnalysisSession::default().check_module(&module);
    let lines: Vec<String> = report
        .warnings
        .iter()
        .map(|w| {
            let at = unit.source_map.span_start(w.span);
            format!("{}:{} {}", at.line, at.col, w.kind.code())
        })
        .collect();
    // Line 3 is `parallel num_threads(2) {`; line 4, column 13 is the
    // condition of `if (thread_num() == 0) { barrier; }`.
    assert_eq!(lines, ["4:13 barrier-divergence"]);
}
