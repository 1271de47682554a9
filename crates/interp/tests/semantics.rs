//! Integration tests of the hybrid executor: language semantics, OpenMP
//! model, MPI collectives, and — the paper's point — error detection
//! with and without PARCOACH instrumentation.

use parcoach_interp::{check_and_run, RunConfig, RunErrorKind, RunReport};
use parcoach_mpisim::MpiError;

fn run_plain(src: &str, ranks: usize, threads: usize) -> RunReport {
    let cfg = RunConfig {
        ranks,
        default_threads: threads,
        ..RunConfig::default()
    };
    let (_, report) = check_and_run("t.mh", src, cfg, false).expect("valid program");
    report
}

fn run_instr(src: &str, ranks: usize, threads: usize) -> RunReport {
    let cfg = RunConfig::fast_fail(ranks, threads);
    let (_, report) = check_and_run("t.mh", src, cfg, true).expect("valid program");
    report
}

fn run_fast(src: &str, ranks: usize, threads: usize) -> RunReport {
    let cfg = RunConfig::fast_fail(ranks, threads);
    let (_, report) = check_and_run("t.mh", src, cfg, false).expect("valid program");
    report
}

// ---- sequential language semantics ---------------------------------

#[test]
fn arithmetic_and_print() {
    let r = run_plain(
        "fn main() { let x = 2 + 3 * 4; print(x, x - 1, float_of(x) / 2.0); }",
        1,
        1,
    );
    assert!(r.is_clean(), "{:?}", r.errors);
    assert_eq!(r.output, vec!["[rank 0] 14 13 7"]);
}

#[test]
fn control_flow_loops() {
    let r = run_plain(
        "fn main() {
            let acc = 0;
            for (i in 0..10) { if (i % 2 == 0) { acc = acc + i; } }
            let j = 0;
            while (j < 3) { j = j + 1; }
            print(acc, j);
        }",
        1,
        1,
    );
    assert_eq!(r.output, vec!["[rank 0] 20 3"]);
}

#[test]
fn functions_and_recursion() {
    let r = run_plain(
        "fn fib(n: int) -> int {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        fn main() { print(fib(10)); }",
        1,
        1,
    );
    assert_eq!(r.output, vec!["[rank 0] 55"]);
}

#[test]
fn arrays_shared_reference_semantics() {
    let r = run_plain(
        "fn fill(a: float[], v: float) {
            for (i in 0..len(a)) { a[i] = v; }
        }
        fn main() {
            let a = array(4, 0.0);
            fill(a, 2.5);
            print(a[0] + a[3]);
        }",
        1,
        1,
    );
    assert_eq!(r.output, vec!["[rank 0] 5"]);
}

#[test]
fn short_circuit_evaluation() {
    let r = run_plain(
        "fn main() {
            let a = array(1, 7);
            // RHS would be out of bounds; && must not evaluate it.
            if (false && a[99] == 0) { print(1); } else { print(2); }
            if (true || a[99] == 0) { print(3); }
        }",
        1,
        1,
    );
    assert!(r.is_clean(), "{:?}", r.errors);
    assert_eq!(r.output, vec!["[rank 0] 2", "[rank 0] 3"]);
}

#[test]
fn division_by_zero_reported() {
    let r = run_plain("fn main() { let x = 1 / (rank() * 0); print(x); }", 1, 1);
    assert!(matches!(
        r.first_error().map(|e| &e.kind),
        Some(RunErrorKind::DivisionByZero)
    ));
}

#[test]
fn index_out_of_bounds_reported() {
    let r = run_plain("fn main() { let a = array(2, 0); a[5] = 1; }", 1, 1);
    assert!(matches!(
        r.first_error().map(|e| &e.kind),
        Some(RunErrorKind::IndexOutOfBounds { index: 5, len: 2 })
    ));
}

/// An array the allocator cannot give is the program's error, reported
/// like a negative length — not an abort of the whole process.
#[test]
fn unallocatable_array_is_a_bad_length() {
    for (src, n) in [
        (
            "fn main() { let a = array(1000000000000, 0.0); print(len(a)); }",
            1_000_000_000_000,
        ),
        (
            "fn main() { let a = array(4611686018427387904, 0); print(len(a)); }",
            4_611_686_018_427_387_904,
        ),
        ("fn main() { let a = array(0 - 1, 0); print(len(a)); }", -1),
    ] {
        let r = run_plain(src, 1, 1);
        assert_eq!(
            r.first_error().map(|e| &e.kind),
            Some(&RunErrorKind::BadArrayLength(n)),
            "{src}"
        );
        assert!(r.output.is_empty());
    }
}

/// Integer arithmetic wraps, `abs` included: the one value without a
/// positive counterpart is its own absolute value.
#[test]
fn abs_of_the_most_negative_integer_wraps() {
    let r = run_plain("fn main() { print(abs(-9223372036854775807 - 1)); }", 1, 1);
    assert!(r.is_clean(), "{:?}", r.errors);
    assert_eq!(r.output, vec!["[rank 0] -9223372036854775808"]);
}

#[test]
fn infinite_loop_hits_step_limit() {
    let cfg = RunConfig {
        ranks: 1,
        default_threads: 1,
        max_steps: 10_000,
        ..RunConfig::default()
    };
    let (_, r) = check_and_run("t.mh", "fn main() { while (true) { } }", cfg, false).unwrap();
    assert!(matches!(
        r.first_error().map(|e| &e.kind),
        Some(RunErrorKind::StepLimit)
    ));
}

// ---- OpenMP-model semantics -----------------------------------------

#[test]
fn parallel_region_runs_all_threads() {
    let r = run_plain(
        "fn main() {
            let count = 0;
            parallel num_threads(4) {
                critical { count = count + 1; }
            }
            print(count);
        }",
        1,
        4,
    );
    assert_eq!(r.output, vec!["[rank 0] 4"]);
}

#[test]
fn single_executes_once_and_is_visible() {
    let r = run_plain(
        "fn main() {
            let t = 0;
            parallel num_threads(4) {
                single { t = t + 1; }
            }
            print(t);
        }",
        1,
        4,
    );
    assert_eq!(r.output, vec!["[rank 0] 1"]);
}

#[test]
fn pfor_divides_iterations() {
    let r = run_plain(
        "fn main() {
            let a = array(100, 0);
            parallel num_threads(4) {
                pfor (i in 0..100) { a[i] = i; }
            }
            let sum = 0;
            for (i in 0..100) { sum = sum + a[i]; }
            print(sum);
        }",
        1,
        4,
    );
    assert_eq!(r.output, vec!["[rank 0] 4950"]);
}

#[test]
fn sections_distribute() {
    let r = run_plain(
        "fn main() {
            let a = 0; let b = 0;
            parallel num_threads(2) {
                sections {
                    section { a = 1; }
                    section { b = 2; }
                }
            }
            print(a + b);
        }",
        1,
        2,
    );
    assert_eq!(r.output, vec!["[rank 0] 3"]);
}

#[test]
fn master_only_master_runs() {
    let r = run_plain(
        "fn main() {
            let hits = 0;
            parallel num_threads(4) {
                master { hits = hits + 1; }
            }
            print(hits);
        }",
        1,
        4,
    );
    assert_eq!(r.output, vec!["[rank 0] 1"]);
}

#[test]
fn nested_parallel_regions() {
    let r = run_plain(
        "fn main() {
            let count = 0;
            parallel num_threads(2) {
                parallel num_threads(2) {
                    critical { count = count + 1; }
                }
            }
            print(count);
        }",
        1,
        2,
    );
    assert_eq!(r.output, vec!["[rank 0] 4"]);
}

// The sharing rule: a register assigned before a region and written in
// it is one cell for the team and the encountering thread; a register
// the region only reads is a copy taken at the fork.

#[test]
fn a_write_in_a_nested_region_is_seen_after_the_outer_join() {
    let r = run_plain(
        "fn main() {
            let x = 0;
            parallel num_threads(2) {
                parallel num_threads(2) {
                    master { x = 7; }
                }
            }
            print(x);
        }",
        1,
        2,
    );
    assert!(r.is_clean(), "{:?}", r.errors);
    assert_eq!(r.output, vec!["[rank 0] 7"]);
}

#[test]
fn a_parameter_written_in_a_region_is_seen_after_the_join() {
    let r = run_plain(
        "fn bump(n: int) -> int {
            parallel num_threads(2) {
                single { n = n + 1; }
            }
            return n;
        }
        fn main() { print(bump(41)); }",
        1,
        2,
    );
    assert!(r.is_clean(), "{:?}", r.errors);
    assert_eq!(r.output, vec!["[rank 0] 42"]);
}

#[test]
fn every_member_reads_a_read_only_register_as_it_was_at_the_fork() {
    let r = run_plain(
        "fn main() {
            let v = 0;
            let seen = array(4, 0);
            for (k in 1..4) {
                v = v + k;
                parallel num_threads(4) {
                    seen[thread_num()] = seen[thread_num()] + v;
                }
            }
            print(seen);
        }",
        1,
        4,
    );
    assert!(r.is_clean(), "{:?}", r.errors);
    // 1 + 3 + 6 for every member.
    assert_eq!(r.output, vec!["[rank 0] [10, 10, 10, 10]"]);
}

#[test]
fn an_element_store_is_seen_by_another_member_after_a_barrier() {
    let r = run_plain(
        "fn main() {
            let a = array(1, 0);
            let f = array(1, 0.0);
            let seen = array(1, 0);
            let seen_f = array(1, 0.0);
            parallel num_threads(2) {
                if (thread_num() == 0) { a[0] = 42; f[0] = 2.5; }
                barrier;
                if (thread_num() == 1) { seen[0] = a[0]; seen_f[0] = f[0]; }
            }
            print(seen[0], seen_f[0]);
        }",
        1,
        2,
    );
    assert!(r.is_clean(), "{:?}", r.errors);
    assert_eq!(r.output, vec!["[rank 0] 42 2.5"]);
}

#[test]
fn loop_variable_is_private_in_pfor() {
    let r = run_plain(
        "fn main() {
            let total = 0;
            parallel num_threads(4) {
                pfor (i in 0..40) {
                    critical { total = total + 1; }
                }
            }
            print(total);
        }",
        1,
        4,
    );
    assert_eq!(r.output, vec!["[rank 0] 40"]);
}

#[test]
fn barrier_phases_are_respected() {
    let r = run_plain(
        "fn main() {
            let x = 0;
            parallel num_threads(4) {
                single { x = 41; }
                // implicit barrier of single
                master { x = x + 1; }
            }
            print(x);
        }",
        1,
        4,
    );
    assert_eq!(r.output, vec!["[rank 0] 42"]);
}

#[test]
fn divergent_thread_barrier_detected() {
    let r = run_fast(
        "fn main() {
            parallel num_threads(2) {
                if (thread_num() == 0) { barrier; }
            }
        }",
        1,
        2,
    );
    assert!(
        matches!(
            r.first_error().map(|e| &e.kind),
            Some(RunErrorKind::ThreadBarrier(_))
        ),
        "{:?}",
        r.errors
    );
}

// ---- MPI semantics ---------------------------------------------------

#[test]
fn allreduce_across_ranks() {
    let r = run_plain(
        "fn main() {
            MPI_Init();
            let s = MPI_Allreduce(rank() + 1, SUM);
            print(s);
            MPI_Finalize();
        }",
        4,
        1,
    );
    assert!(r.is_clean(), "{:?}", r.errors);
    assert_eq!(r.output.len(), 4);
    assert!(r.output.iter().all(|l| l.ends_with("10")));
}

#[test]
fn bcast_and_gather() {
    let r = run_plain(
        "fn main() {
            MPI_Init();
            let v = MPI_Bcast(rank() + 100, 0);
            let g = MPI_Gather(v, 0);
            if (rank() == 0) { print(len(g), g[0], g[1]); } else { print(len(g)); }
            MPI_Finalize();
        }",
        2,
        1,
    );
    assert!(r.is_clean(), "{:?}", r.errors);
    assert!(r.output.contains(&"[rank 0] 2 100 100".to_string()));
    assert!(r.output.contains(&"[rank 1] 0".to_string()));
}

#[test]
fn send_recv_ring() {
    let r = run_plain(
        "fn main() {
            MPI_Init();
            let next = (rank() + 1) % size();
            let prev = (rank() + size() - 1) % size();
            MPI_Send(rank() * 10, next, 7);
            let got = MPI_Recv(prev, 7);
            print(got);
            MPI_Finalize();
        }",
        3,
        1,
    );
    assert!(r.is_clean(), "{:?}", r.errors);
    assert_eq!(r.output.len(), 3);
}

#[test]
fn hybrid_collective_in_single() {
    let r = run_plain(
        "fn main() {
            MPI_Init_thread(SERIALIZED);
            let s = 0;
            parallel num_threads(4) {
                single { s = MPI_Allreduce(rank() + 1, SUM); }
            }
            print(s);
            MPI_Finalize();
        }",
        2,
        4,
    );
    assert!(r.is_clean(), "{:?}", r.errors);
    assert!(r.output.iter().all(|l| l.ends_with("3")));
}

#[test]
fn scan_and_scatter() {
    let r = run_plain(
        "fn main() {
            MPI_Init();
            let prefix = MPI_Scan(1, SUM);
            let a = array(size(), 5);
            let mine = MPI_Scatter(a, 0);
            print(prefix, mine);
            MPI_Finalize();
        }",
        3,
        1,
    );
    assert!(r.is_clean(), "{:?}", r.errors);
    assert!(r.output.contains(&"[rank 0] 1 5".to_string()));
    assert!(r.output.contains(&"[rank 2] 3 5".to_string()));
}

/// An array payload is copied when the call takes it: storing into the
/// array afterwards changes neither what was delivered nor the result.
/// (`MPI_Send` and `MPI_Bcast` take scalars in this language; the
/// collectives that carry arrays are these.)
#[test]
fn an_array_sent_then_overwritten_delivers_the_old_values() {
    let r = run_plain(
        "fn main() {
            MPI_Init();
            let a = array(2, 1.5);
            let all = MPI_Alltoall(a);
            let one = MPI_Scatter(a, 0);
            a[0] = 9.0;
            a[1] = 9.0;
            MPI_Barrier();
            print(all, one, a);
            MPI_Finalize();
        }",
        2,
        1,
    );
    assert!(r.is_clean(), "{:?}", r.errors);
    let mut out = r.output;
    out.sort();
    assert_eq!(
        out,
        vec![
            "[rank 0] [1.5, 1.5] 1.5 [9.0, 9.0]",
            "[rank 1] [1.5, 1.5] 1.5 [9.0, 9.0]",
        ]
    );
}

// ---- error detection: uninstrumented (substrate fallback) ------------

#[test]
fn mismatch_detected_by_matcher() {
    let r = run_fast(
        "fn main() {
            if (rank() == 0) { MPI_Barrier(); } else { let x = MPI_Allreduce(1, SUM); }
        }",
        2,
        1,
    );
    assert!(!r.is_clean());
    assert!(
        matches!(
            r.first_error().map(|e| &e.kind),
            Some(RunErrorKind::Mpi(MpiError::CollectiveMismatch { .. }))
        ),
        "{:?}",
        r.errors
    );
    assert!(!r.detected_by_check());
}

#[test]
fn missing_collective_detected() {
    let r = run_fast(
        "fn main() {
            if (rank() == 0) { MPI_Barrier(); }
        }",
        2,
        1,
    );
    assert!(!r.is_clean(), "{:?}", r.errors);
}

// ---- error detection: instrumented (PARCOACH checks) -----------------

#[test]
fn cc_detects_mismatch_before_collective() {
    let r = run_instr(
        "fn main() {
            if (rank() == 0) { MPI_Barrier(); } else { let x = MPI_Allreduce(1, SUM); }
        }",
        2,
        1,
    );
    assert!(!r.is_clean());
    assert!(
        r.detected_by_check(),
        "CC must catch this, got {:?}",
        r.errors
    );
    let text = r.first_error().unwrap().to_string();
    assert!(text.contains("MPI_Barrier"), "{text}");
    assert!(text.contains("MPI_Allreduce"), "{text}");
}

#[test]
fn cc_detects_missing_collective_via_return() {
    let r = run_instr(
        "fn main() {
            if (rank() == 0) { MPI_Barrier(); }
        }",
        2,
        1,
    );
    assert!(!r.is_clean());
    assert!(
        r.detected_by_check(),
        "return-CC must catch this, got {:?}",
        r.errors
    );
    let text = r.first_error().unwrap().to_string();
    assert!(text.contains("<return/exit>"), "{text}");
}

#[test]
fn clean_program_unaffected_by_instrumentation() {
    let src = "fn main() {
        MPI_Init_thread(SERIALIZED);
        let t = 0.0;
        parallel num_threads(2) {
            pfor (i in 0..20) { let x = float_of(i) * 2.0; }
            single { t = MPI_Allreduce(1.0, SUM); }
        }
        print(t);
        MPI_Finalize();
    }";
    let plain = run_plain(src, 2, 2);
    let inst = run_instr(src, 2, 2);
    assert!(plain.is_clean(), "{:?}", plain.errors);
    assert!(inst.is_clean(), "{:?}", inst.errors);
    assert_eq!(plain.output.len(), inst.output.len());
}

#[test]
fn monothread_assert_fires_for_parallel_collective() {
    let r = run_instr(
        "fn main() {
            parallel num_threads(4) {
                MPI_Barrier();
            }
        }",
        1,
        4,
    );
    assert!(!r.is_clean());
    assert!(
        matches!(
            r.first_error().map(|e| &e.kind),
            Some(RunErrorKind::MonothreadViolation { .. })
                | Some(RunErrorKind::Mpi(MpiError::ThreadLevelViolation { .. }))
        ),
        "{:?}",
        r.errors
    );
}

#[test]
fn concurrent_singles_fail() {
    // Two nowait singles with collectives: schedule-dependent order. Any
    // of the PARCOACH detections (concurrency counter, CC) or the
    // matcher may fire first depending on the schedule, but the run must
    // fail.
    let r = run_instr(
        "fn main() {
            parallel num_threads(4) {
                single nowait { MPI_Barrier(); }
                single nowait { let x = MPI_Allreduce(1, SUM); }
                barrier;
            }
        }",
        2,
        4,
    );
    assert!(!r.is_clean(), "{:?}", r.errors);
}

#[test]
fn serialized_self_concurrency_still_detected() {
    // A team of one: every nowait-single instance is claimed by the
    // same thread, so the executions can never overlap in *time*. The
    // ordering violation — a suspect site executing twice with no
    // barrier in between — must be flagged anyway (the paper's S_cc
    // counters reset at synchronization points, not at region exits),
    // making detection schedule-independent.
    let r = run_instr(
        "fn main() {
            parallel num_threads(1) {
                for (i in 0..3) {
                    single nowait { let x = MPI_Allreduce(i, SUM); }
                }
                barrier;
            }
        }",
        2,
        1,
    );
    assert!(!r.is_clean(), "{:?}", r.errors);
    assert!(
        r.errors
            .iter()
            .any(|e| matches!(e.kind, RunErrorKind::ConcurrentRegions { .. })),
        "expected a concurrency-counter hit, got {:?}",
        r.errors
    );
}

#[test]
fn sequential_reexecution_of_suspect_site_is_clean() {
    // The single-in-a-loop is statically self-concurrent (its site gets
    // a counter), but here it only ever executes *outside* any team —
    // once per loop iteration, twice per call, fully ordered by program
    // order. Epoch counting applies to team execution only; the
    // sequential executions must never accumulate into a false
    // ConcurrentRegions abort, no matter how often the function is
    // re-called over the rank's lifetime.
    let r = run_instr(
        "fn f() {
            for (i in 0..2) { single nowait { MPI_Barrier(); } }
            barrier;
        }
        fn main() { MPI_Init(); f(); f(); MPI_Finalize(); }",
        2,
        2,
    );
    assert!(r.is_clean(), "{:?}", r.errors);
}

#[test]
fn barrier_resets_concurrency_epoch() {
    // The same suspect single re-executing across loop iterations is
    // fine when a barrier separates the iterations: the epoch count
    // resets at the synchronization point.
    let r = run_instr(
        "fn main() {
            parallel num_threads(4) {
                for (i in 0..3) {
                    single nowait { let x = MPI_Allreduce(i, SUM); }
                    barrier;
                }
            }
        }",
        2,
        4,
    );
    assert!(r.is_clean(), "{:?}", r.errors);
}

#[test]
fn each_region_counts_a_suspect_site_in_a_team_of_its_own() {
    // The single is statically self-concurrent (it sits in a loop with
    // no barrier), so it carries a concurrency counter. The outer loop
    // runs the region three times: three fresh teams, each at barrier
    // epoch 0. One execution in each is clean; two in one team are not.
    let src = |per_team: &str| {
        format!(
            "fn main() {{
                for (k in 0..3) {{
                    parallel num_threads(2) {{
                        for (i in 0..{per_team}) {{
                            single nowait {{ let x = MPI_Allreduce(i, SUM); }}
                        }}
                    }}
                }}
            }}"
        )
    };
    let r = run_instr(&src("1"), 2, 2);
    assert!(r.is_clean(), "{:?}", r.errors);
    let r = run_instr(&src("k"), 2, 2);
    assert!(
        r.errors
            .iter()
            .any(|e| matches!(e.kind, RunErrorKind::ConcurrentRegions { .. })),
        "{:?}",
        r.errors
    );
}

#[test]
fn rank_dependent_loop_count_detected() {
    let r = run_instr(
        "fn main() {
            let n = 2 + rank();
            for (i in 0..n) { MPI_Barrier(); }
        }",
        2,
        1,
    );
    assert!(!r.is_clean());
    assert!(
        r.detected_by_check(),
        "CC should catch the count divergence: {:?}",
        r.errors
    );
}

#[test]
fn uniform_conditional_runs_clean_despite_warning() {
    // Statically a false positive (PDF+ flags the conditional); the
    // dynamic check proves it harmless: all ranks take the same path.
    let src = "fn main() {
        let flag = size() > 0;
        if (flag) { MPI_Barrier(); }
    }";
    let cfg = RunConfig::fast_fail(2, 1);
    let (report, run) = check_and_run("t.mh", src, cfg, true).unwrap();
    assert!(
        !report.is_clean(),
        "static phase must warn about the conditional"
    );
    assert!(run.is_clean(), "dynamic phase must pass: {:?}", run.errors);
}

#[test]
fn funneled_violation_from_worker_thread() {
    // Under MPI_THREAD_FUNNELED only the initial thread may call MPI;
    // thread 1's send is a deterministic violation.
    let r = run_fast(
        "fn main() {
            MPI_Init_thread(FUNNELED);
            parallel num_threads(2) {
                if (thread_num() == 1) { MPI_Send(1, rank(), 9); }
            }
            MPI_Finalize();
        }",
        1,
        2,
    );
    assert!(
        matches!(
            r.first_error().map(|e| &e.kind),
            Some(RunErrorKind::Mpi(MpiError::ThreadLevelViolation { .. }))
        ),
        "{:?}",
        r.errors
    );
}

#[test]
fn a_monothread_assert_reached_by_one_member_per_team_passes() {
    // The analysis cannot prove that only member 0 calls the barrier,
    // so the call gets a monothread assert; at run time one member per
    // team (per rank, and per region encounter) reaches it.
    let src = "fn main() {
        MPI_Init_thread(MULTIPLE);
        for (k in 0..2) {
            parallel num_threads(2) {
                if (thread_num() == k) { MPI_Barrier(); }
            }
        }
        MPI_Finalize();
    }";
    let (report, _) = parcoach_interp::prepare("t.mh", src, true).expect("valid program");
    assert!(!report.is_clean(), "the static phase must warn");
    let r = run_instr(src, 2, 2);
    assert!(r.is_clean(), "{:?}", r.errors);
    assert_eq!(r.stats.mpi_calls, 2 * (2 + 2), "{:?}", r.stats);
}

#[test]
fn funneled_admits_only_member_0_of_teams_the_initial_thread_forked() {
    // The initial thread goes on as member 0 of the outer team, and as
    // member 0 of the inner team that member forks: its MPI call is
    // legal. Member 0 of the inner team outer member 1 forks is another
    // thread.
    let run = |caller: u32| {
        run_fast(
            &format!(
                "fn main() {{
                    MPI_Init_thread(FUNNELED);
                    parallel num_threads(2) {{
                        let outer = thread_num();
                        parallel num_threads(2) {{
                            if (outer == {caller} && thread_num() == 0) {{ MPI_Barrier(); }}
                        }}
                    }}
                    MPI_Finalize();
                }}"
            ),
            1,
            2,
        )
    };
    let legal = run(0);
    assert!(legal.is_clean(), "{:?}", legal.errors);
    let r = run(1);
    assert!(
        matches!(
            r.first_error().map(|e| &e.kind),
            Some(RunErrorKind::Mpi(MpiError::ThreadLevelViolation { .. }))
        ),
        "{:?}",
        r.errors
    );
}

#[test]
fn serialized_with_critical_is_legal() {
    // `critical` serializes the MPI calls, satisfying SERIALIZED; with
    // equal team sizes all ranks issue the same number of barriers, so
    // the run is clean (the *static* phase still warns — multithreaded
    // context — which is exactly the paper's point about needing the
    // dynamic phase).
    let r = run_plain(
        "fn main() {
            MPI_Init_thread(SERIALIZED);
            parallel num_threads(3) {
                critical { MPI_Barrier(); }
            }
            MPI_Finalize();
        }",
        2,
        3,
    );
    assert!(r.is_clean(), "{:?}", r.errors);
}

#[test]
fn rank_dependent_team_size_mismatch_detected() {
    // Collectives per rank = team size; team sizes differ by rank →
    // count mismatch, surfaced by the substrate even uninstrumented.
    let r = run_fast(
        "fn main() {
            parallel num_threads(2 + rank()) {
                critical { MPI_Barrier(); }
            }
        }",
        2,
        2,
    );
    assert!(!r.is_clean(), "{:?}", r.errors);
}

#[test]
fn output_is_captured_per_rank() {
    let r = run_plain("fn main() { print(rank(), size()); }", 3, 1);
    assert_eq!(r.output.len(), 3);
    for rank in 0..3 {
        assert!(r
            .output
            .iter()
            .any(|l| l == &format!("[rank {rank}] {rank} 3")));
    }
}

#[test]
fn collective_in_function_called_from_single() {
    let r = run_instr(
        "fn exchange() -> int {
            return MPI_Allreduce(1, SUM);
        }
        fn main() {
            MPI_Init_thread(SERIALIZED);
            let t = 0;
            parallel num_threads(3) {
                single { t = exchange(); }
            }
            print(t);
            MPI_Finalize();
        }",
        2,
        3,
    );
    assert!(r.is_clean(), "{:?}", r.errors);
    assert!(r.output.iter().all(|l| l.ends_with("2")));
}

#[test]
fn multizone_like_timestep_loop_clean() {
    // Shape of a NAS-MZ time step: parallel compute + sequential MPI
    // exchange per step.
    let r = run_plain(
        "fn main() {
            MPI_Init_thread(FUNNELED);
            let residual = 0.0;
            for (step in 0..5) {
                parallel num_threads(3) {
                    pfor (i in 0..30) { let w = float_of(i) * 1.5; }
                }
                residual = MPI_Allreduce(1.0, SUM);
            }
            print(residual);
            MPI_Finalize();
        }",
        2,
        3,
    );
    assert!(r.is_clean(), "{:?}", r.errors);
    assert!(r.output.iter().all(|l| l.ends_with("2")));
}
