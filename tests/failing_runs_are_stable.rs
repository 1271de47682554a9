//! A failing run has one answer: the same catalogue case, run again and
//! again at 2 ranks × 2 threads, reports the same errors at the same
//! lines and prints the same output, plain and instrumented. Each rank
//! reports its own fault; a rank that was only stopped by another's
//! fault reports nothing, so no run carries an `aborted` MPI call or a
//! poisoned team barrier.

use parcoach::front::span::SourceMap;
use parcoach::interp::{prepare, Executor, RunConfig, RunErrorKind, RunReport};
use parcoach::ir::span_at;
use parcoach::mpisim::MpiError;
use parcoach::ompsim::BarrierError;
use parcoach::workloads::error_catalogue;
use std::collections::BTreeSet;
use std::time::Duration;

/// The failing cases whose answer no schedule may change, each with
/// whether it fails uninstrumented too (else only its instrumented run
/// is listed). The catalogue's other failing cases are schedule-dependent
/// by nature: the property-1 races (`multithreaded-collective`,
/// `collective-in-pfor`, `nested-parallel-collective`,
/// `multithreaded-call`), the team races of the concurrency counter
/// (`concurrent-singles-nowait`, `concurrent-sections`), the thread-level
/// cases, and `fuzz-pinned-collector-single`, which a timeout decides.
const STABLE: [(&str, bool); 17] = [
    ("mismatch-rank-branch", true),
    ("missing-collective", true),
    ("count-mismatch-loop", true),
    ("early-return", true),
    ("barrier-divergence", true),
    ("divergent-call", true),
    ("p2p-recv-before-send", true),
    ("p2p-tag-mismatch-subcomm", true),
    ("subcomm-collective-divergence", true),
    ("request-wait-never-posted-send", true),
    ("nonblocking-wait-cycle", true),
    ("nonblocking-waitall-cycle-two-comms", true),
    ("wildcard-pinned-deadlock", true),
    ("fuzz-masked-recv-balance", true),
    ("self-concurrent-single", false),
    ("p2p-unreceived-send", false),
    ("request-leak-isend", false),
];

const RUNS: usize = 20;

/// The run as `parcoachc run` prints its errors, then its output.
fn render(run: &RunReport, plain: &parcoach::ir::Module, sm: &SourceMap) -> String {
    let mut text = String::new();
    for e in &run.errors {
        let line = sm.line_of(span_at(plain, e.at));
        text += &format!("{line}: {e} [{}]\n", e.kind.code());
    }
    for line in &run.output {
        text += line;
        text.push('\n');
    }
    text
}

/// What another thread's fault does to a thread: its MPI call returns
/// `Aborted`, its team barrier `Poisoned`.
fn is_stop(kind: &RunErrorKind) -> bool {
    matches!(
        kind,
        RunErrorKind::Mpi(MpiError::Aborted(_))
            | RunErrorKind::ThreadBarrier(BarrierError::Poisoned)
    )
}

#[test]
fn every_listed_failing_case_gives_one_rendering() {
    let cfg = RunConfig {
        ranks: 2,
        default_threads: 2,
        ..RunConfig::default()
    };
    let catalogue = error_catalogue();
    let mut failures = Vec::new();
    for (id, fails_plain) in STABLE {
        let case = catalogue
            .iter()
            .find(|c| c.id == id)
            .unwrap_or_else(|| panic!("no catalogue case `{id}`"));
        let sm = SourceMap::new(id, case.source.as_str());
        let (_, plain) = prepare(id, &case.source, false).expect("compiles");
        for instrument in [false, true].into_iter().filter(|&i| i || fails_plain) {
            let (_, module) = prepare(id, &case.source, instrument).expect("compiles");
            let (mut seen, mut stops) = (BTreeSet::new(), BTreeSet::new());
            for _ in 0..RUNS {
                let run = Executor::new(module.clone(), cfg.clone())
                    .run_within(Duration::from_secs(30))
                    .unwrap_or_else(|e| panic!("{id}: no report ({e:?})"));
                assert!(
                    !run.is_clean(),
                    "{id} (instrumented: {instrument}) ran clean"
                );
                if let Some(e) = run.errors.iter().find(|e| is_stop(&e.kind)) {
                    stops.insert(format!(
                        "{id} (instrumented: {instrument}): a stop reported as a fault: {e}"
                    ));
                }
                seen.insert(render(&run, &plain, &sm));
            }
            failures.extend(stops);
            if seen.len() > 1 {
                failures.push(format!(
                    "{id} (instrumented: {instrument}), {} renderings:\n{}",
                    seen.len(),
                    seen.into_iter().collect::<Vec<_>>().join("--\n")
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
