//! The executor's threading model, from outside: the simulated program's
//! threads are the only threads (rank 0 runs on `run`'s caller, the
//! thread that meets `parallel` goes on as member 0), the step budget is
//! leased per thread, and a region's join is its closing barrier.

use parcoach_front::parse_and_check;
use parcoach_interp::{check_and_run, Executor, RunConfig, RunErrorKind, RunReport};
use parcoach_ir::instr::{CheckOp, Directive, Instr};
use parcoach_ir::lower::lower_program;
use std::time::{Duration, Instant};

fn run_with(src: &str, cfg: RunConfig) -> RunReport {
    let (_, report) = check_and_run("t.mh", src, cfg, false).expect("valid program");
    report
}

fn cfg(ranks: usize, threads: usize) -> RunConfig {
    RunConfig {
        ranks,
        default_threads: threads,
        ..RunConfig::default()
    }
}

fn kinds(r: &RunReport) -> Vec<&RunErrorKind> {
    r.errors.iter().map(|e| &e.kind).collect()
}

/// 1-based line of a byte offset.
fn line_of(src: &str, offset: u32) -> usize {
    src[..offset as usize].matches('\n').count() + 1
}

// ---- step budget -----------------------------------------------------

#[test]
fn a_run_needing_exactly_max_steps_passes_and_one_less_fails() {
    let src = "fn main() {
        let a = 1;
        let b = a + 2;
        let c = b * a;
        print(a, b, c);
    }";
    let steps = run_with(src, cfg(1, 1)).stats.steps;
    assert!(steps > 4, "{steps}");
    let exact = run_with(
        src,
        RunConfig {
            max_steps: steps,
            ..cfg(1, 1)
        },
    );
    assert!(exact.is_clean(), "{:?}", exact.errors);
    assert_eq!(exact.stats.steps, steps);
    let short = run_with(
        src,
        RunConfig {
            max_steps: steps - 1,
            ..cfg(1, 1)
        },
    );
    assert_eq!(kinds(&short), [&RunErrorKind::StepLimit]);
    assert_eq!(short.stats.steps, steps - 1);
}

#[test]
fn a_region_hands_its_unused_lease_back() {
    // The region's members lease far more than they execute; the
    // sequential tail after the join needs every step they gave back.
    let src = "fn main() {
        parallel num_threads(3) { let t = thread_num(); }
        let acc = 0;
        for (i in 0..200) { acc = acc + i; }
        print(acc);
    }";
    let steps = run_with(src, cfg(1, 1)).stats.steps;
    let exact = run_with(
        src,
        RunConfig {
            max_steps: steps,
            ..cfg(1, 1)
        },
    );
    assert!(exact.is_clean(), "{:?}", exact.errors);
    assert_eq!(exact.stats.steps, steps);
}

#[test]
fn every_thread_of_a_runaway_2x2_ends_in_step_limit_within_the_budget() {
    let max_steps = 50_000;
    let r = run_with(
        "fn main() { parallel num_threads(2) { while (true) { } } }",
        RunConfig {
            max_steps,
            ..cfg(2, 2)
        },
    );
    // One (root-cause) error per rank: no member was left spinning, or
    // the join — and this test — would never have returned.
    assert_eq!(
        kinds(&r),
        [&RunErrorKind::StepLimit, &RunErrorKind::StepLimit]
    );
    assert!(r.stats.steps <= max_steps, "{:?}", r.stats);
    // What was not executed is at most what the threads that were not
    // the first to find the budget empty still held.
    assert!(r.stats.steps > max_steps - 4 * 1024, "{:?}", r.stats);
}

// ---- the join is the region-end barrier --------------------------------

#[test]
fn a_divergent_team_is_reported_at_the_barrier_that_diverged_without_a_timeout() {
    let src = "fn main() {
        parallel num_threads(2) {
            if (thread_num() == 0) {
                barrier;
            }
        }
    }";
    // Proven (everyone else has left the region), not timed out: far
    // inside the default 2 s `barrier_timeout`. Best of three, so that a
    // co-tenant burst on the test machine is not a failure.
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = run_with(src, cfg(1, 2));
        best = best.min(t0.elapsed());
        let e = r.first_error().expect("divergence reported");
        assert!(
            matches!(&e.kind, RunErrorKind::ThreadBarrier(m) if m.contains("1/2")),
            "{e}"
        );
        assert_eq!(line_of(src, e.span.lo), 4, "the inner `barrier;`: {e}");
        if best < Duration::from_millis(50) {
            return;
        }
    }
    panic!("divergence took {best:?}: waited out instead of proven?");
}

#[test]
fn checks_attached_to_a_regions_end_barrier_still_run() {
    // Members leave at the end barrier instead of waiting there; a check
    // the instrumentation hangs on that block must run all the same. A
    // monothread assert shows it: both members reach it.
    let unit = parse_and_check("t.mh", "fn main() { parallel num_threads(2) { } }").unwrap();
    let mut module = lower_program(&unit.program, &unit.signatures);
    let end_barrier = std::sync::Arc::make_mut(&mut module.funcs[0])
        .blocks
        .iter_mut()
        .find(|b| {
            matches!(
                b.directive(),
                Some(Directive::Barrier {
                    implicit: true,
                    region: Some(_),
                    ..
                })
            )
        })
        .expect("the region's implicit end barrier");
    let span = end_barrier.span;
    end_barrier
        .instrs
        .push(Instr::Check(CheckOp::AssertMonothread {
            what: "MPI_Barrier",
            span,
        }));
    let r = Executor::new(module, cfg(1, 2)).run();
    assert_eq!(
        kinds(&r),
        [&RunErrorKind::MonothreadViolation {
            what: "MPI_Barrier"
        }]
    );
}

// ---- member 0 continues on the encountering thread -------------------------

const NESTED_DESCENT: &str = "fn down(n: int) -> int {
    if (n == 0) { return 0; }
    let r = array(1, 0);
    if (n % 15 == 0) {
        parallel num_threads(2) {
            if (thread_num() == 0) { r[0] = down(n - 1) + 1; }
        }
    } else {
        r[0] = down(n - 1) + 1;
    }
    return r[0];
}";

/// Run on a thread with the default 2 MiB stack whatever the harness
/// gave the test: rank 0 runs on the caller, and member 0 of every
/// region on the thread that met it, so the whole descent is one stack.
fn on_a_2_mib_stack(src: String) -> RunReport {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || run_with(&src, cfg(1, 2)))
        .unwrap()
        .join()
        .expect("no stack overflow, no panic")
}

#[test]
fn call_depth_120_through_8_nested_regions_fits_a_2_mib_stack() {
    let r = on_a_2_mib_stack(format!(
        "{NESTED_DESCENT}\nfn main() {{ print(down(120)); }}"
    ));
    assert!(r.is_clean(), "{:?}", r.errors);
    assert_eq!(r.output, ["[rank 0] 120"]);
    assert_eq!(r.stats.forks, 8);
}

#[test]
fn call_depth_129_is_still_a_stack_overflow_error() {
    // `main` is depth 0 and `down(n)` calls run at depths 1..=129.
    let r = on_a_2_mib_stack(format!(
        "{NESTED_DESCENT}\nfn main() {{ print(down(128)); }}"
    ));
    assert_eq!(kinds(&r), [&RunErrorKind::StackOverflow]);
}

#[test]
fn nested_critical_in_a_team_of_one_reenters_because_member_0_is_the_holders_os_thread() {
    // The `critical` lock is a reentrant mutex owned by an OS thread.
    // The encountering thread holds it and goes on as member 0, so the
    // inner `critical` is a re-entry (a member on a thread of its own
    // used to block here for good).
    let r = run_with(
        "fn main() {
            let x = array(1, 0);
            critical {
                parallel num_threads(1) {
                    critical { x[0] = x[0] + 1; }
                }
            }
            print(x[0]);
        }",
        cfg(1, 1),
    );
    assert!(r.is_clean(), "{:?}", r.errors);
    assert_eq!(r.output, ["[rank 0] 1"]);
}

#[test]
fn nested_critical_still_hangs_member_1_because_its_holder_waits_for_it_at_the_join() {
    // Non-conforming OpenMP (a `critical` nested in a `critical` of the
    // same name deadlocks): member 0 re-enters as above, member 1 blocks
    // on a lock whose holder is waiting for member 1 at the join. No
    // clock guards a `critical`, so the run hangs — as it did when both
    // members blocked. Pinned so that a change to who owns the lock
    // shows up here; the run's threads are abandoned.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let r = run_with(
            "fn main() {
                let x = array(1, 0);
                critical {
                    parallel num_threads(2) {
                        critical { x[0] = x[0] + 1; }
                    }
                }
                print(x[0]);
            }",
            cfg(1, 2),
        );
        let _ = tx.send(r);
    });
    assert!(rx.recv_timeout(Duration::from_millis(300)).is_err());
}

// ---- RunStats ---------------------------------------------------------

#[test]
fn a_flat_2x2_run_puts_three_threads_on_other_os_threads() {
    // Rank 1, and member 1 of each rank's one team; rank 0 and both
    // members 0 run on the caller and on their rank's thread.
    let r = run_with(
        "fn main() {
            MPI_Init_thread(FUNNELED);
            parallel { let t = thread_num(); barrier; }
            MPI_Barrier();
            MPI_Finalize();
        }",
        cfg(2, 2),
    );
    assert!(r.is_clean(), "{:?}", r.errors);
    assert_eq!(r.stats.os_threads, 3);
    assert_eq!(r.stats.forks, 2);
    assert_eq!(r.stats.barrier_waits, 4, "the explicit barrier only");
    assert_eq!(r.stats.mpi_calls, 6);
}
