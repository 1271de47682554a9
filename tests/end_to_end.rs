//! Cross-crate integration tests: the full static → instrument → run
//! pipeline over the error catalogue and the generated benchmark
//! workloads.

use parcoach::interp::{check_and_run, RunConfig};
use parcoach::workloads::{
    error_catalogue, figure1_suite, ExpectDynamic, ExpectStatic, WorkloadClass,
};

/// Every catalogue case must match its recorded static and dynamic
/// expectations — this is experiment E3 as a test.
#[test]
fn catalogue_detection_matrix() {
    for case in error_catalogue() {
        let (report, run) = check_and_run(case.id, &case.source, RunConfig::fast_fail(2, 4), true)
            .unwrap_or_else(|e| panic!("{}: compile error {e}", case.id));
        match case.expect_static {
            ExpectStatic::Clean => assert!(
                report.is_clean(),
                "{}: expected clean static report, got {:#?}",
                case.id,
                report.warnings
            ),
            ExpectStatic::Warns(code) => assert!(
                report.warnings.iter().any(|w| w.kind.code() == code),
                "{}: expected a `{code}` warning, got {:?}",
                case.id,
                report
                    .warnings
                    .iter()
                    .map(|w| w.kind.code())
                    .collect::<Vec<_>>()
            ),
        }
        match case.expect_dynamic {
            ExpectDynamic::Clean => {
                assert!(run.is_clean(), "{}: {:?}", case.id, run.errors)
            }
            ExpectDynamic::CaughtByCheck => {
                assert!(!run.is_clean(), "{}: expected failure", case.id);
                assert!(
                    run.detected_by_check(),
                    "{}: expected PARCOACH check, got {:?}",
                    case.id,
                    run.errors
                );
            }
            ExpectDynamic::CaughtBySubstrate | ExpectDynamic::Fails => {
                assert!(!run.is_clean(), "{}: expected failure, ran clean", case.id)
            }
            ExpectDynamic::MayFail => {} // either outcome accepted
        }
    }
}

/// The clean benchmark programs must run to completion under full
/// selective instrumentation — the false-positive warnings they carry
/// (uniform conditionals) are cleared dynamically.
#[test]
fn class_a_workloads_run_clean_instrumented() {
    for w in figure1_suite(WorkloadClass::A) {
        let cfg = RunConfig {
            ranks: 2,
            default_threads: 2,
            ..RunConfig::default()
        };
        let (report, run) = check_and_run(w.name, &w.source, cfg, true)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(
            run.is_clean(),
            "{}: instrumented run failed ({} static warnings):\n{:#?}",
            w.name,
            report.warnings.len(),
            run.errors
        );
    }
}

/// What a class-A run does is a property of the program: the counts of
/// `RunStats` (both ranks together) repeat exactly, run after run.
#[test]
fn class_a_run_stats_repeat_exactly() {
    // (forks, barrier waits, MPI calls); steps are pinned by the
    // generated source, so only required to repeat.
    let expect = [
        ("EPCC", (28, 88, 62)),
        ("HERA", (144, 432, 34)),
        ("SP-MZ", (544, 1152, 48)),
    ];
    for w in figure1_suite(WorkloadClass::A) {
        let Some((_, counts)) = expect.iter().find(|(name, _)| *name == w.name) else {
            continue;
        };
        let run = || {
            let cfg = RunConfig {
                ranks: 2,
                default_threads: 2,
                ..RunConfig::default()
            };
            let (_, run) = check_and_run(w.name, &w.source, cfg, true).unwrap();
            assert!(run.is_clean(), "{}: {:?}", w.name, run.errors);
            run.stats
        };
        let first = run();
        assert_eq!(
            (first.forks, first.barrier_waits, first.mpi_calls),
            *counts,
            "{}",
            w.name
        );
        // Rank 1, and member 1 of every team of two.
        assert_eq!(first.os_threads, 1 + first.forks, "{}", w.name);
        assert!(first.steps > 0);
        for _ in 1..5 {
            assert_eq!(run(), first, "{}", w.name);
        }
    }
}

/// The same workloads uninstrumented (sanity: the simulator itself, not
/// the instrumentation, keeps them alive).
#[test]
fn class_a_workloads_run_clean_plain() {
    for w in figure1_suite(WorkloadClass::A) {
        let cfg = RunConfig {
            ranks: 2,
            default_threads: 2,
            ..RunConfig::default()
        };
        let (_report, run) = check_and_run(w.name, &w.source, cfg, false)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(run.is_clean(), "{}: {:?}", w.name, run.errors);
    }
}

/// Instrumentation must not change the observable output of a correct
/// program (differential run).
#[test]
fn instrumentation_is_output_transparent() {
    let src = r#"
fn main() {
    MPI_Init_thread(SERIALIZED);
    let acc = 0;
    for (step in 0..3) {
        parallel num_threads(2) {
            single { acc = acc + int_of(MPI_Allreduce(1.0, SUM)); }
        }
    }
    print(acc);
    MPI_Finalize();
}
"#;
    let cfg = || RunConfig {
        ranks: 2,
        default_threads: 2,
        ..RunConfig::default()
    };
    let (_r1, plain) = check_and_run("t.mh", src, cfg(), false).unwrap();
    let (_r2, instr) = check_and_run("t.mh", src, cfg(), true).unwrap();
    assert!(plain.is_clean() && instr.is_clean());
    let mut a = plain.output.clone();
    let mut b = instr.output.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b, "instrumentation changed program output");
}

/// Whole-team communicator creation is flagged statically AND the
/// instrumented run fails dynamically (comm-management collectives are
/// guarded like data collectives: the monothread assert or the matcher
/// intercepts, whichever the schedule reaches first — same semantics
/// as the whole-team data-collective case).
#[test]
fn whole_team_comm_dup_fails_instrumented() {
    let src = r#"
fn main() {
    MPI_Init_thread(MULTIPLE);
    parallel num_threads(2) {
        let c = MPI_Comm_dup(MPI_COMM_WORLD);
    }
    MPI_Finalize();
}
"#;
    let (report, run) = check_and_run("dup.mh", src, RunConfig::fast_fail(2, 2), true).unwrap();
    assert!(
        report
            .warnings
            .iter()
            .any(|w| w.kind.code() == "multithreaded-collective"),
        "{:?}",
        report.warnings
    );
    assert!(
        !run.is_clean(),
        "instrumented whole-team comm creation must fail"
    );
    assert!(
        run.errors.iter().any(|e| e.kind.is_verification_error()),
        "{:?}",
        run.errors
    );
}

/// The p2p epoch census must fire even when the leaking send lives in
/// a helper function and `MPI_Finalize` in `main` (the census is placed
/// at the finalize, and the world counters are global).
#[test]
fn p2p_census_catches_leak_in_helper() {
    let src = r#"
fn leak() {
    let peer = size() - 1 - rank();
    MPI_Send(1, peer, 5);
}
fn main() {
    MPI_Init();
    leak();
    MPI_Barrier();
    MPI_Finalize();
}
"#;
    let (report, run) = check_and_run("leak.mh", src, RunConfig::fast_fail(2, 2), true).unwrap();
    assert!(
        report
            .warnings
            .iter()
            .any(|w| w.kind.code() == "unmatched-p2p"),
        "{:?}",
        report.warnings
    );
    assert!(
        !run.is_clean(),
        "latent leak must be caught when instrumented"
    );
    assert!(run.detected_by_check(), "{:?}", run.errors);
    // Uninstrumented, the same program is silently clean — the latent
    // error the census exists for.
    let (_r, plain) = check_and_run("leak.mh", src, RunConfig::fast_fail(2, 2), false).unwrap();
    assert!(plain.is_clean(), "{:?}", plain.errors);
}

/// Divergent communicator creation is statically visible: comm_split /
/// comm_dup are collectives over their parent.
#[test]
fn divergent_comm_creation_reported_statically() {
    let src = r#"
fn main() {
    MPI_Init();
    if (rank() == 0) { let c = MPI_Comm_dup(MPI_COMM_WORLD); }
    MPI_Finalize();
}
"#;
    let (report, run) = check_and_run("dup.mh", src, RunConfig::fast_fail(2, 2), true).unwrap();
    assert!(
        report
            .warnings
            .iter()
            .any(|w| w.kind.code() == "collective-mismatch"),
        "{:?}",
        report.warnings
    );
    assert!(!run.is_clean(), "{:?}", run.errors);
}

/// A genuine wait cycle must terminate via the wait-for-graph detector
/// — quickly (the liveness census, not the operation timeout) and as a
/// check detection naming the cycle.
#[test]
fn wait_cycle_terminates_via_wait_for_graph() {
    let case = error_catalogue()
        .into_iter()
        .find(|c| c.id == "nonblocking-wait-cycle")
        .expect("catalogue case exists");
    // Generous op timeout: if the detector regressed, the census would
    // not fire and this test would sit in the blocking wait instead of
    // finishing in milliseconds.
    let cfg = RunConfig {
        ranks: 2,
        default_threads: 2,
        mpi_timeout: std::time::Duration::from_secs(30),
        ..RunConfig::default()
    };
    let t0 = std::time::Instant::now();
    let (report, run) = check_and_run(case.id, &case.source, cfg, true).unwrap();
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(10),
        "wait cycle must be detected by the census, not the 30s timeout"
    );
    assert!(
        report
            .warnings
            .iter()
            .any(|w| w.kind.code() == "mismatched-order"),
        "{:?}",
        report.warnings
    );
    assert!(!run.is_clean());
    assert!(run.detected_by_check(), "{:?}", run.errors);
    assert!(
        run.errors.iter().any(|e| e.kind.code() == "wait-cycle"),
        "{:?}",
        run.errors
    );
}

/// A leaked request (isend never waited, message never received) is
/// silent uninstrumented but caught by the pre-finalize census when
/// instrumented — the non-blocking sibling of `p2p_census_catches_leak_in_helper`.
#[test]
fn leaked_request_caught_by_census() {
    let case = error_catalogue()
        .into_iter()
        .find(|c| c.id == "request-leak-isend")
        .expect("catalogue case exists");
    let (report, run) =
        check_and_run(case.id, &case.source, RunConfig::fast_fail(2, 2), true).unwrap();
    assert!(
        report
            .warnings
            .iter()
            .any(|w| w.kind.code() == "unwaited-request"),
        "{:?}",
        report.warnings
    );
    assert!(!run.is_clean());
    assert!(run.detected_by_check(), "{:?}", run.errors);
    let (_r, plain) =
        check_and_run(case.id, &case.source, RunConfig::fast_fail(2, 2), false).unwrap();
    assert!(
        plain.is_clean(),
        "latent without the census: {:?}",
        plain.errors
    );
}

/// Regression (found by `fuzz_differential`, minimized by its
/// delta-debugger): functions unreachable from `main` must not be
/// diagnosed. Before the fix, an uncalled helper bearing a head-to-head
/// `recv; send`, a request leak and an unreceived send produced
/// `mismatched-order` / `unwaited-request` / `unmatched-p2p` warnings —
/// all guaranteed false positives, since the code never executes.
#[test]
fn uncalled_helper_is_not_diagnosed() {
    let src = r#"
fn dead() {
    let peer = size() - 1 - rank();
    let v = MPI_Recv(peer, 1);
    MPI_Send(1.0, peer, 1);
    let s = MPI_Isend(2.0, peer, 24);
    MPI_Send(42, peer, 21);
}
fn main() {
    MPI_Init();
    MPI_Barrier();
    MPI_Finalize();
}
"#;
    let (report, run) = check_and_run("dead.mh", src, RunConfig::fast_fail(2, 2), true).unwrap();
    assert!(
        report.is_clean(),
        "uncalled helper must not warn: {:?}",
        report.warnings
    );
    assert!(run.is_clean(), "{:?}", run.errors);
}

/// The soundness half of the same fix: before reachability filtering,
/// an uncalled helper's send fed the module-wide p2p matcher and
/// silently *balanced* the key of a reachable receive — masking a real
/// deadlock from the static phase.
#[test]
fn unreachable_send_cannot_balance_reachable_recv() {
    let src = r#"
fn dead() {
    let peer = size() - 1 - rank();
    MPI_Send(1.0, peer, 5);
}
fn main() {
    MPI_Init();
    let peer = size() - 1 - rank();
    let v = MPI_Recv(peer, 5);
    MPI_Finalize();
}
"#;
    let (report, run) = check_and_run("mask.mh", src, RunConfig::fast_fail(2, 2), true).unwrap();
    assert!(
        report
            .warnings
            .iter()
            .any(|w| w.kind.code() == "unmatched-p2p"),
        "the reachable receive has no reachable sender: {:?}",
        report.warnings
    );
    assert!(!run.is_clean(), "the receive deadlocks at run time");
}

/// Scaling smoke test: more ranks and threads still work.
#[test]
fn four_ranks_four_threads() {
    let src = r#"
fn main() {
    MPI_Init_thread(SERIALIZED);
    let v = 0;
    parallel num_threads(4) {
        single { v = int_of(MPI_Allreduce(float_of(rank() + 1), SUM)); }
    }
    print(v);
    MPI_Finalize();
}
"#;
    let cfg = RunConfig {
        ranks: 4,
        default_threads: 4,
        ..RunConfig::default()
    };
    let (_report, run) = check_and_run("t.mh", src, cfg, true).unwrap();
    assert!(run.is_clean(), "{:?}", run.errors);
    assert_eq!(run.output.len(), 4);
    assert!(run.output.iter().all(|l| l.ends_with("10"))); // 1+2+3+4
}
