//! Micro-drivers on the public API of the layers no workload reaches
//! directly (`mpisim::World`, `ompsim::OmpSim`, an empty `interp` run, the
//! input generators). They take no workload's inputs, so every traced run
//! reports the same quantity.

use crate::harness::LayerMap;
use crate::stats::median;
use parcoach_front::ast::{ReduceOp, ThreadLevel};
use parcoach_front::parse_and_check;
use parcoach_fuzz::module_seed;
use parcoach_interp::{Executor, RunConfig};
use parcoach_ir::lower::lower_program;
use parcoach_mpisim::{run_ranks, CollectiveOp, MpiConfig, MpiType, MpiValue, Signature, World};
use parcoach_ompsim::{OmpConfig, OmpSim, ThreadCtx};
use parcoach_testutil::Scenario;
use parcoach_workloads::{figure1_suite, WorkloadClass};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A `Vm*` line of `/proc/self/status`, in kB.
pub fn vm_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Median over `iters` timings of `f`, microseconds.
fn time_each(iters: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..iters.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            us(t)
        })
        .collect();
    median(&samples).expect("iters >= 1")
}

fn two_ranks() -> Arc<World> {
    World::new(MpiConfig {
        world_size: 2,
        ..Default::default()
    })
}

/// Both ranks run `body(rank)` `n` times back to back inside one
/// `run_ranks`; returns rank 0's time per repetition, microseconds.
fn per_call_us(n: usize, body: impl Fn(&World, usize) + Sync) -> f64 {
    let w = two_ranks();
    let times = run_ranks(&w, |r| {
        w.thread_started(r);
        w.init(r, ThreadLevel::Multiple);
        let t = Instant::now();
        for _ in 0..n {
            body(&w, r);
        }
        let dt = us(t) / n as f64;
        w.finalize(r, true).expect("finalize");
        w.finish_rank(r);
        dt
    });
    times[0]
}

/// Fill `out` with the probe metrics. `iters` repetitions per probe.
pub fn run(seed: u64, iters: usize, out: &mut LayerMap) -> Result<(), String> {
    // interp: the fixed cost of a run — a program that only initializes
    // and finalizes MPI, at the workloads' 2 ranks × 2 threads.
    let unit = parse_and_check(
        "empty.mh",
        "fn main() {\n    MPI_Init();\n    MPI_Finalize();\n}\n",
    )
    .map_err(|(d, sm)| d.render(&sm))?;
    let exec = Executor::new(
        lower_program(&unit.program, &unit.signatures),
        RunConfig {
            ranks: 2,
            default_threads: 2,
            ..Default::default()
        },
    );
    let mut clean = true;
    out.insert(
        "interp.empty_run_us",
        time_each(iters, || clean &= black_box(exec.run()).is_clean()),
    );
    if !clean {
        return Err("probe: the empty program did not run clean".into());
    }

    // mpisim, two ranks.
    out.insert(
        "mpisim.world_setup_us",
        time_each(iters, || {
            let w = two_ranks();
            run_ranks(&w, |r| {
                w.thread_started(r);
                w.init(r, ThreadLevel::Multiple);
                w.finalize(r, true).expect("finalize");
                w.finish_rank(r);
            });
        }),
    );
    let n = iters * 10;
    let sum = Signature::collective(
        CollectiveOp::Allreduce,
        Some(ReduceOp::Sum),
        None,
        Some(MpiType::Int),
    );
    out.insert(
        "mpisim.allreduce_us",
        per_call_us(n, |w, r| {
            black_box(
                w.collective(r, sum, Some(MpiValue::Int(1)), true)
                    .expect("allreduce"),
            );
        }),
    );
    out.insert(
        "mpisim.pingpong_us",
        per_call_us(n, |w, r| {
            if r == 0 {
                w.send(0, 1, 7, MpiValue::Int(1), true).expect("send");
                black_box(w.recv(0, 1, 7, true).expect("recv"));
            } else {
                black_box(w.recv(1, 0, 7, true).expect("recv"));
                w.send(1, 0, 7, MpiValue::Int(2), true).expect("send");
            }
        }),
    );
    out.insert(
        "mpisim.cc_us",
        per_call_us(n, |w, r| {
            black_box(w.control_cc(r, 7, true).expect("cc"));
        }),
    );
    // Both ranks receive from each other and nobody sends: the time until
    // the census calls the cycle (the op timeout is 10 s, far above it).
    let mut called = true;
    out.insert(
        "mpisim.deadlock_verdict_us",
        time_each(iters.min(50), || {
            let w = two_ranks();
            let res = run_ranks(&w, |r| {
                w.thread_started(r);
                let out = w.recv(r, 1 - r as i64, 3, true);
                w.finish_rank(r);
                out
            });
            called &= res.iter().all(Result::is_err);
        }),
    );
    if !called {
        return Err("probe: a recv/recv cycle was not reported".into());
    }

    // ompsim, a team of two.
    let omp = OmpSim::new(OmpConfig {
        default_num_threads: 2,
        ..Default::default()
    });
    out.insert(
        "ompsim.fork_join_us",
        time_each(iters, || {
            omp.fork::<(), _>(&mut ThreadCtx::initial(), Some(2), &|_| Ok(()))
                .unwrap_or_else(|_| panic!("fork of an empty region failed"));
        }),
    );
    let barrier_us = std::sync::Mutex::new(0.0);
    omp.fork::<(), _>(&mut ThreadCtx::initial(), Some(2), &|ctx| {
        let t = Instant::now();
        for _ in 0..n {
            ctx.barrier(Duration::from_secs(5)).map_err(|_| ())?;
        }
        if ctx.thread_num() == 0 {
            *barrier_us.lock().expect("probe lock") = us(t) / n as f64;
        }
        Ok(())
    })
    .map_err(|_| "probe: team barrier failed".to_string())?;
    out.insert(
        "ompsim.barrier_us",
        barrier_us.into_inner().expect("probe lock"),
    );

    // Input generators (what set-up pays).
    let mut i = 0;
    out.insert(
        "testutil.gen_us",
        time_each(iters, || {
            i += 1;
            black_box(Scenario::generate(module_seed(seed, i)).render());
        }),
    );
    out.insert(
        "workloads.gen_us",
        time_each(5, || {
            black_box(figure1_suite(WorkloadClass::B));
        }),
    );
    Ok(())
}
