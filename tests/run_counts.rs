//! What the class-A programs of the benchmark's `sim_run` do, counted
//! exactly: EPCC-A, HERA-A and SP-MZ-A, selectively instrumented, at 2
//! ranks × 2 threads. A run's counts are a property of the program, so
//! each repeats exactly from run to run; a simulator change that adds a
//! step, a fork, a barrier wait, a shared register cell, an MPI call or
//! a thread shows here. (`bench_ci` gates the shared cells and
//! SP-MZ-A's steps, forks and barrier waits against
//! `BENCH_baseline.json`; this pins every count in the tier-1 suite.)

use parcoach::interp::{prepare, Executor, RunConfig, RunStats};
use parcoach::workloads::{figure1_suite, WorkloadClass};

/// Two instrumented 2 × 2 runs of the class-A program `name`; both clean,
/// both counting the same. Returns what they counted.
fn counts(name: &str) -> RunStats {
    let w = figure1_suite(WorkloadClass::A)
        .into_iter()
        .find(|w| w.name == name)
        .expect("a Figure-1 program");
    let (_, module) = prepare(w.name, &w.source, true).expect("the workload compiles");
    let exec = Executor::new(
        module,
        RunConfig {
            ranks: 2,
            default_threads: 2,
            ..RunConfig::default()
        },
    );
    let [first, second] = [exec.run(), exec.run()];
    assert!(first.is_clean(), "{name}: {:?}", first.errors);
    assert!(second.is_clean(), "{name}: {:?}", second.errors);
    assert_eq!(first.stats, second.stats, "{name}: the counts repeat");
    first.stats
}

#[test]
fn epcc_a_counts() {
    assert_eq!(
        counts("EPCC"),
        RunStats {
            steps: 5_506,
            forks: 28,
            shared_cells: 0,
            barrier_waits: 88,
            mpi_calls: 62,
            os_threads: 29,
        }
    );
}

#[test]
fn hera_a_counts() {
    assert_eq!(
        counts("HERA"),
        RunStats {
            steps: 186_675,
            forks: 144,
            shared_cells: 72,
            barrier_waits: 432,
            mpi_calls: 34,
            os_threads: 145,
        }
    );
}

#[test]
fn sp_mz_a_counts() {
    assert_eq!(
        counts("SP-MZ"),
        RunStats {
            steps: 885_944,
            forks: 544,
            shared_cells: 0,
            barrier_waits: 1_152,
            mpi_calls: 48,
            os_threads: 545,
        }
    );
}
