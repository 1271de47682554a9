//! No run starts more than `MAX_THREADS` simulated threads: too many
//! ranks, too large a default team and too large a `num_threads`
//! (directly or through the threads the run already has alive) are
//! refused before any thread is spawned. One test in its own binary, so
//! no other test spawns threads while it watches the thread cache.

use parcoach_interp::{check_and_run, RunConfig, RunErrorKind, RunReport, MAX_THREADS};
use parcoach_ompsim::OmpError;

fn run(src: &str, ranks: usize, threads: usize) -> RunReport {
    let cfg = RunConfig::fast_fail(ranks, threads);
    check_and_run("t.mh", src, cfg, false)
        .expect("valid program")
        .1
}

fn assert_refused(r: &RunReport) {
    assert!(
        r.errors.iter().any(|e| matches!(
            &e.kind,
            RunErrorKind::Omp(OmpError::ForkRefused(m)) if m.contains("would pass")
        )),
        "{:?}",
        r.errors
    );
}

#[test]
fn a_run_past_the_thread_bound_is_refused_before_it_spawns() {
    let team = |n: usize| format!("fn main() {{ parallel num_threads({n}) {{ print(1); }} }}");
    let plain = "fn main() { parallel { print(1); } }";
    // Warm the cache with the one rank thread the two-rank runs use.
    assert!(run(&team(1), 2, 1).is_clean());
    let spawned = parcoach_sync::thread_cache().spawned_total();

    assert_refused(&run(plain, MAX_THREADS + 1, 1));
    assert_refused(&run(plain, 1, MAX_THREADS + 1));
    assert_refused(&run(&team(MAX_THREADS + 1), 1, 1));
    assert_refused(&run(&team(1 << 40), 1, 1));
    // Two ranks are alive: a team that fits alone passes the bound.
    assert_refused(&run(&team(MAX_THREADS), 2, 1));

    assert_eq!(parcoach_sync::thread_cache().spawned_total(), spawned);
}
