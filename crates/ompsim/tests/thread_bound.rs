//! A fork that would pass `MAX_THREADS` live simulated threads is
//! refused before any member starts. One test in its own binary, so no
//! other test spawns threads while it watches the thread cache's count.

use parcoach_ompsim::{ForkError, OmpConfig, OmpError, OmpSim, ThreadCtx, MAX_THREADS};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn refused(res: Result<(), ForkError<()>>) -> bool {
    matches!(res, Err(ForkError::Omp(OmpError::ForkRefused(m))) if m.contains("would pass"))
}

#[test]
fn a_team_past_the_bound_is_refused_before_it_starts() {
    let spawned = parcoach_sync::thread_cache().spawned_total();
    let body = |_: &mut ThreadCtx| -> Result<(), ()> { panic!("no member may run") };

    // One team over the bound.
    let sim = OmpSim::default();
    assert!(refused(sim.fork(
        &mut ThreadCtx::initial(),
        Some(MAX_THREADS + 1),
        &body
    )));

    // Threads of the run alive elsewhere (other ranks, sibling teams)
    // count too: with the bound reached, even a team of two is refused,
    // and a team of one starts no thread.
    let live = Arc::new(AtomicUsize::new(MAX_THREADS));
    let full = OmpSim::sharing(OmpConfig::default(), Arc::clone(&live));
    assert!(refused(full.fork(
        &mut ThreadCtx::initial(),
        Some(2),
        &body
    )));
    let ran = full.fork::<(), _>(&mut ThreadCtx::initial(), Some(1), &|_| Ok(()));
    assert!(ran.is_ok(), "{ran:?}");

    // A refused fork leaves the count as it found it.
    assert_eq!(live.load(Ordering::Relaxed), MAX_THREADS);
    assert_eq!(parcoach_sync::thread_cache().spawned_total(), spawned);
}
