//! CI perf-regression gate.
//!
//! Measures the fig1 micro-bench (full `compile_with_codegen` per
//! class-A workload), one end-to-end detection pass over the error
//! catalogue, the HERA class-B static-analysis speedup at `jobs = 4` vs
//! `jobs = 1`, and instrumented 2×2 runs of three class-A programs
//! (timings informational, SP-MZ-A's `RunStats` counts exact); writes
//! everything to a flat JSON file and compares against a checked-in
//! baseline.
//!
//! Robustness, in layers:
//! * **Cross-machine**: gated numbers are normalized by an arithmetic
//!   *calibration* spin timed in the same run, so a uniformly slower CI
//!   runner does not trip the gate — only a change in the *shape* of
//!   the cost does.
//! * **Cross-run noise**: the gate compares two *aggregates* (total
//!   fig1 compile time, detection-table wall clock) rather than
//!   individual sub-millisecond compiles whose minima still jitter by
//!   tens of percent on busy runners; per-workload times are recorded
//!   as `info/` for humans. A gated aggregate that lands over tolerance
//!   is re-measured up to two times and the fastest attempt kept — a
//!   real regression fails every attempt, a descheduling spike does
//!   not.
//!
//! ```text
//! bench_ci [--out FILE] [--baseline FILE] [--phases-out FILE]
//!          [--tolerance PCT] [--write-baseline FILE]
//! ```
//!
//! Exit codes: 0 = ok, 1 = regression (> tolerance) or detection
//! failure, 3 = usage error.

use parcoach_bench::{
    bench_session, compile_suite_concurrent, compile_with_codegen, lower_workload, measure,
    static_phase_breakdown,
};
use parcoach_core::{instrument_module, AnalysisSession, InstrumentMode, QueryDb, StaticReport};
use parcoach_front::lexer::lex;
use parcoach_front::parser::parse_program;
use parcoach_front::sema::check_program;
use parcoach_front::{parse_and_check, Diagnostics, SourceMap};
use parcoach_interp::{check_and_run, Executor, RunConfig, RunStats};
use parcoach_ir::lower::lower_program;
use parcoach_ir::{verify_module, Module};
use parcoach_workloads::{
    error_catalogue, figure1_suite, ExpectDynamic, ExpectStatic, Workload, WorkloadClass,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Repetitions per workload for the compile benches. The per-workload
/// minimum is the least noise-contaminated estimate of a CPU-bound
/// compile; the gate sums those minima.
const COMPILE_REPS: usize = 15;
/// Repetitions for the informational analyze speedup probe.
const ANALYZE_REPS: usize = 21;
/// Repetitions for the per-phase breakdown probes (min per phase).
const PHASE_REPS: usize = 15;
/// Extra measurement attempts for a gated aggregate that lands over
/// tolerance (the fastest attempt is kept).
const GATE_RETRIES: usize = 2;
/// Repetitions per program for the simulated class-A runs (the fastest
/// is kept; every one is counted).
const SIM_RUN_REPS: usize = 9;
/// Default regression tolerance on normalized ratios, percent.
const DEFAULT_TOLERANCE: f64 = 25.0;
/// Wall-clock watchdog per catalogue case in the detection pass. Every
/// case resolves in well under a second (the deadlocking ones via the
/// liveness census / wait-for graph, not timeouts); a case still
/// running after this long has regressed into a real hang — fail the
/// gate in seconds instead of stalling the job until the runner
/// timeout.
const CASE_WATCHDOG: Duration = Duration::from_secs(20);

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(ok) => {
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("bench_ci: {msg}");
            ExitCode::from(3)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut out_path = "BENCH_ci.json".to_string();
    let mut baseline_path = "BENCH_baseline.json".to_string();
    let mut phases_path = "BENCH_phases.json".to_string();
    let mut write_baseline: Option<String> = None;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{}: missing value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--out" => out_path = take(&mut i)?,
            "--baseline" => baseline_path = take(&mut i)?,
            "--phases-out" => phases_path = take(&mut i)?,
            "--write-baseline" => write_baseline = Some(take(&mut i)?),
            "--tolerance" => {
                tolerance = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }

    let baseline =
        match &write_baseline {
            Some(_) => None,
            None => {
                let text = std::fs::read_to_string(&baseline_path).map_err(|e| {
                    format!("read baseline {baseline_path}: {e} (create one with --write-baseline)")
                })?;
                Some(parse_flat_json(&text).ok_or_else(|| {
                    format!("{baseline_path}: not a flat JSON object of integers")
                })?)
            }
        };

    let mut results: BTreeMap<String, u64> = BTreeMap::new();
    let mut gate_ok = true;

    // --- calibration -----------------------------------------------------
    let calibration_ns = calibrate();
    results.insert("calibration_ns".into(), calibration_ns);
    println!("calibration: {:.3} ms", calibration_ns as f64 / 1e6);

    // Warm every compile path (and the pool) before the first timed
    // sample: the first workload otherwise pays one-off cold costs —
    // lazy relocations, branch-predictor and allocator warm-up — that
    // the baseline run did not, which reads as a phantom regression.
    let suite = figure1_suite(WorkloadClass::A);
    let _ = compile_suite_concurrent(&suite);

    // The single-CPU-baseline NOTE is printed at most once per run (it
    // repeats identically per gated key otherwise and drowns CI logs).
    let mut slack_note_printed = false;

    // --- fig1 micro-bench (gated on the suite total) ----------------------
    let (mut fig1_total, per_workload) = measure_fig1(&suite);
    gate_ok &= gate(
        "bench/fig1_total",
        &mut fig1_total,
        calibration_ns,
        baseline.as_ref(),
        tolerance,
        &mut slack_note_printed,
        || measure_fig1(&suite).0,
    );
    for (name, ns) in &per_workload {
        println!(
            "  fig1/{name:<8} min {:>9.3} ms  (x{:.3} cal)",
            *ns as f64 / 1e6,
            *ns as f64 / calibration_ns as f64
        );
    }
    results.insert("bench/fig1_total".into(), fig1_total);
    for (name, ns) in per_workload {
        results.insert(format!("info/fig1/{name}"), ns);
    }

    // --- detection table (gated wall-clock + correctness) ----------------
    let mut detection_ok = true;
    let mut run_detection = || {
        let t0 = Instant::now();
        let ok = detection_pass();
        detection_ok &= ok;
        t0.elapsed().as_nanos() as u64
    };
    let mut detection_ns = run_detection();
    gate_ok &= gate(
        "bench/detection_table",
        &mut detection_ns,
        calibration_ns,
        baseline.as_ref(),
        tolerance,
        &mut slack_note_printed,
        &mut run_detection,
    );
    println!(
        "detection_table: {:.3} ms, {}",
        detection_ns as f64 / 1e6,
        if detection_ok {
            "all cases ok"
        } else {
            "CASE FAILURES"
        }
    );
    results.insert("bench/detection_table".into(), detection_ns);

    // --- HERA-B analyze speedup (informational) --------------------------
    let (jobs1_ns, jobs4_ns, identical) = analyze_speedup();
    results.insert("info/analyze_hera_b_jobs1_ns".into(), jobs1_ns);
    results.insert("info/analyze_hera_b_jobs4_ns".into(), jobs4_ns);
    let speedup = jobs1_ns as f64 / jobs4_ns.max(1) as f64;
    results.insert(
        "info/analyze_hera_b_speedup_x1000".into(),
        (speedup * 1000.0) as u64,
    );
    println!(
        "analyze HERA/B: jobs=1 {:.3} ms, jobs=4 {:.3} ms  → {speedup:.2}x speedup, reports {}",
        jobs1_ns as f64 / 1e6,
        jobs4_ns as f64 / 1e6,
        if identical {
            "byte-identical"
        } else {
            "DIFFER"
        }
    );

    // --- incremental warm re-check (absolute gate) ------------------------
    // A warm single-function re-check over a resident table must stay
    // under 80 µs — a bound on the warm side alone: the ratio to the
    // cold check (still recorded) shrinks every time the cold path gets
    // faster. Absolute, so it needs no baseline entry.
    const WARM_RECHECK_BOUND_NS: u64 = 80_000;
    let (cold, warm_ns, warm_identical) = incremental_latency();
    let cold_ns = cold.total_ns;
    results.insert("info/incr/hera_b/cold_full_ns".into(), cold_ns);
    results.insert("info/incr/hera_b/warm_recheck_ns".into(), warm_ns);
    let incr_speedup = cold_ns as f64 / warm_ns.max(1) as f64;
    results.insert(
        "info/incr/hera_b/speedup_x1000".into(),
        (incr_speedup * 1000.0) as u64,
    );
    let incr_ok = warm_ns <= WARM_RECHECK_BOUND_NS && warm_identical;
    println!(
        "incremental HERA/B: cold {:.3} ms, warm re-check {:.3} ms (bound {:.3} ms; {incr_speedup:.1}x), \
         reports {} — {}",
        cold_ns as f64 / 1e6,
        warm_ns as f64 / 1e6,
        WARM_RECHECK_BOUND_NS as f64 / 1e6,
        if warm_identical {
            "byte-identical"
        } else {
            "DIFFER"
        },
        if incr_ok { "ok" } else { "GATE FAILURE" }
    );

    // --- one neutral edit through the daemon's front door (absolute gate) -
    // What a `parcoachd` client waits for: an `edit` request line plus a
    // `check` request line through `Server::handle_line` on resident
    // HERA-B, request bytes in to response bytes out.
    const NEUTRAL_EDIT_BOUND_NS: u64 = 200_000;
    let (neutral_edit_ns, edit_live) = neutral_edit_latency();
    results.insert("info/incr/hera_b/neutral_edit_ns".into(), neutral_edit_ns);
    let neutral_ok = neutral_edit_ns <= NEUTRAL_EDIT_BOUND_NS && edit_live;
    println!(
        "neutral edit HERA/B: edit + check {:.3} ms (bound {:.3} ms), {} — {}",
        neutral_edit_ns as f64 / 1e6,
        NEUTRAL_EDIT_BOUND_NS as f64 / 1e6,
        if edit_live {
            "incremental, findings served from the table"
        } else {
            "NOT INCREMENTAL"
        },
        if neutral_ok { "ok" } else { "GATE FAILURE" }
    );

    // --- module-memo warm re-check (absolute gate) -----------------------
    // The module-level memo's acceptance bar: an edit that touches NO
    // comm/request/p2p events must reuse the module-wide match tables
    // wholesale, so the whole-module warm re-check stays within 2x the
    // single-function warm number measured above — same run, same
    // machine, no baseline entry needed.
    let (module_warm_ns, module_identical, memo_live) = module_warm_latency();
    results.insert("info/incr/hera_b/module_warm_ns".into(), module_warm_ns);
    let module_ok = module_warm_ns <= 2 * warm_ns && module_identical && memo_live;
    println!(
        "module-memo HERA/B: warm whole-module {:.3} ms (bound 2x single-function = {:.3} ms), \
         reports {}, module tables {} — {}",
        module_warm_ns as f64 / 1e6,
        (2 * warm_ns) as f64 / 1e6,
        if module_identical {
            "byte-identical"
        } else {
            "DIFFER"
        },
        if memo_live { "reused" } else { "NOT REUSED" },
        if module_ok { "ok" } else { "GATE FAILURE" }
    );

    // --- per-phase static-analysis breakdown (informational) -------------
    // Recorded per phase into the main JSON (trend spelunking) and
    // mirrored into a compact phases-only file uploaded as its own CI
    // artifact.
    let phase_records = phase_breakdown();
    let mut phases_only: BTreeMap<String, u64> = BTreeMap::new();
    phases_only.insert("calibration_ns".into(), calibration_ns);
    for (key, ns) in &phase_records {
        results.insert(format!("info/{key}"), *ns);
        phases_only.insert(key.clone(), *ns);
    }

    // Absolute latency bar: a full cold static analysis of HERA class B
    // must finish under
    // 0.4 ms. Like the warm-re-check gate above, this needs no baseline
    // entry — the bound is a property of the analysis, not the machine.
    const HERA_B_TOTAL_BOUND_NS: u64 = 400_000;
    let hera_total_ns = phase_records
        .iter()
        .find(|(k, _)| k == "phase/hera_b/total_ns")
        .map(|(_, ns)| *ns)
        .unwrap_or(u64::MAX);
    let hera_ok = hera_total_ns < HERA_B_TOTAL_BOUND_NS;
    println!(
        "hera_b cold analysis: {:.3} ms (bound {:.1} ms) — {}",
        hera_total_ns as f64 / 1e6,
        HERA_B_TOTAL_BOUND_NS as f64 / 1e6,
        if hera_ok { "ok" } else { "GATE FAILURE" }
    );

    // --- the other half of the cold budget: front + ir spans -------------
    // `cold_full_ns` above is source → report → instrumented module →
    // everything dropped; the phase rows cover only the analysis inside
    // it. These rows name the rest — they are the stage boundaries of
    // the very rep `cold_full_ns` reports — and the named spans must add
    // up to the whole: a cold check that grows a stage nobody times
    // fails here.
    let named = [
        ("front/hera_b/lex_ns", cold.lex_ns),
        ("front/hera_b/parse_ns", cold.parse_ns),
        ("front/hera_b/sema_ns", cold.sema_ns),
        ("ir/hera_b/lower_ns", cold.lower_ns),
        ("ir/hera_b/verify_ns", cold.verify_ns),
        ("phase/hera_b/total_ns", hera_total_ns),
        ("core/hera_b/instrument_ns", cold.instrument_ns),
        ("drop/hera_b/products_ns", cold.drop_ns),
    ];
    for (key, ns) in named {
        results.insert(format!("info/{key}"), ns);
    }
    // Absolute bars on the spans whose cost was allocation, not work
    // (EXPERIMENTS.md E21): verifying HERA-B walks 1 100 blocks and
    // dropping a cold check's products frees a few thousand vectors —
    // about twice the measured numbers, so that a per-block or per-node
    // allocation coming back fails here whatever the machine.
    const VERIFY_BOUND_NS: u64 = 100_000;
    const PRODUCTS_DROP_BOUND_NS: u64 = 200_000;
    const COLD_FULL_BOUND_NS: u64 = 2_000_000;
    let layout_ok = cold.verify_ns <= VERIFY_BOUND_NS
        && cold.drop_ns <= PRODUCTS_DROP_BOUND_NS
        && cold_ns <= COLD_FULL_BOUND_NS;
    println!(
        "hera_b cold layout: verify {:.3} ms (bound {:.1}), drop {:.3} ms (bound {:.1}), \
         cold check + instrument {:.3} ms (bound {:.1}) — {}",
        cold.verify_ns as f64 / 1e6,
        VERIFY_BOUND_NS as f64 / 1e6,
        cold.drop_ns as f64 / 1e6,
        PRODUCTS_DROP_BOUND_NS as f64 / 1e6,
        cold_ns as f64 / 1e6,
        COLD_FULL_BOUND_NS as f64 / 1e6,
        if layout_ok { "ok" } else { "GATE FAILURE" }
    );
    let named_ns: u64 = named.iter().map(|(_, ns)| ns).sum();
    let budget_ok = named_ns.abs_diff(cold_ns) * 10 <= cold_ns;
    println!(
        "hera_b cold budget: {} = {:.3} ms of cold {:.3} ms ({:+.1} %) — {}",
        named
            .iter()
            .map(|(key, ns)| format!("{key} {:.3}", *ns as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(" + "),
        named_ns as f64 / 1e6,
        cold_ns as f64 / 1e6,
        (named_ns as f64 / cold_ns as f64 - 1.0) * 100.0,
        if budget_ok {
            "ok (within 10 %)"
        } else {
            "GATE FAILURE"
        }
    );

    // --- simulator fast-path rows (absolute gates) -----------------------
    // Acceptance bars of the simulator's census-driven verdicts. All
    // three are absolute bounds — the speed comes from census-driven
    // verdicts replacing timeout waits, a property of the simulator,
    // not the machine — with generous headroom over the measured
    // numbers so runner noise cannot trip them while a fallback to
    // timeout-driven detection (hundreds of ms per deadlock case)
    // always does.
    const SIM_DETECTION_BOUND_NS: u64 = 500_000_000;
    const SIM_ORACLE_MODULE_BOUND_NS: u64 = 5_000_000;
    const SIM_FUZZ_MPS_BOUND: u64 = 100;
    results.insert("sim/detection_table_ns".into(), detection_ns);
    let (oracle_module_ns, fuzz_mps) = sim_oracle_bench();
    results.insert("sim/oracle_module_ns".into(), oracle_module_ns);
    results.insert("sim/fuzz_modules_per_s".into(), fuzz_mps);
    let sim_ok = detection_ns < SIM_DETECTION_BOUND_NS
        && oracle_module_ns < SIM_ORACLE_MODULE_BOUND_NS
        && fuzz_mps > SIM_FUZZ_MPS_BOUND;
    println!(
        "sim fast path: detection_table {:.1} ms (bound {:.0} ms), oracle {:.3} ms/module \
         (bound {:.0} ms), fuzz {fuzz_mps} modules/s (bound > {SIM_FUZZ_MPS_BOUND}) — {}",
        detection_ns as f64 / 1e6,
        SIM_DETECTION_BOUND_NS as f64 / 1e6,
        oracle_module_ns as f64 / 1e6,
        SIM_ORACLE_MODULE_BOUND_NS as f64 / 1e6,
        if sim_ok { "ok" } else { "GATE FAILURE" }
    );

    // --- instrumented class-A runs (timings informational, counts exact) --
    // The programs of the benchmark's `sim_run` at its 2 ranks × 2
    // threads. What a run *does* is a property of the program: SP-MZ-A's
    // steps, forks and barrier waits must repeat exactly over the
    // repetitions and equal the baseline's — a simulator change that
    // adds a synchronisation or a step shows here as a count, whatever
    // the machine does to the timings.
    let mut sim_counts_ok = true;
    for (row, run_ns, stats) in sim_runs(&suite) {
        results.insert(format!("info/sim/{row}_run_ns"), run_ns);
        print!("sim run {row}: fastest {:.3} ms", run_ns as f64 / 1e6);
        match stats {
            Some(stats) => print!(", every run {stats}"),
            None => {
                sim_counts_ok = false;
                print!(", RUNS FAILED OR COUNTED DIFFERENTLY");
            }
        }
        println!();
        if let ("sp_mz_a", Some(stats)) = (row.as_str(), stats) {
            for (name, count) in [
                ("steps", stats.steps),
                ("forks", stats.forks),
                ("barrier_waits", stats.barrier_waits),
            ] {
                let key = format!("info/sim/sp_mz_a_{name}");
                if let Some(&pinned) = baseline.as_ref().and_then(|b| b.get(&key)) {
                    if pinned != count {
                        sim_counts_ok = false;
                        println!("  {key} = {count}, baseline {pinned} — COUNT MOVED");
                    }
                }
                results.insert(key, count);
            }
        }
    }

    // --- write ------------------------------------------------------------
    let json = to_json(&results);
    std::fs::write(&out_path, &json).map_err(|e| format!("write {out_path}: {e}"))?;
    println!("wrote {out_path}");
    let phases_json = to_json(&phases_only);
    std::fs::write(&phases_path, &phases_json).map_err(|e| format!("write {phases_path}: {e}"))?;
    println!("wrote {phases_path}");
    if let Some(p) = write_baseline {
        std::fs::write(&p, &json).map_err(|e| format!("write {p}: {e}"))?;
        println!("wrote baseline {p}");
        return Ok(detection_ok
            && identical
            && incr_ok
            && neutral_ok
            && module_ok
            && hera_ok
            && budget_ok
            && layout_ok
            && sim_ok
            && sim_counts_ok);
    }
    Ok(gate_ok
        && detection_ok
        && identical
        && incr_ok
        && neutral_ok
        && module_ok
        && hera_ok
        && budget_ok
        && layout_ok
        && sim_ok
        && sim_counts_ok)
}

/// The three class-A programs of the benchmark's `sim_run`, selectively
/// instrumented, at 2 ranks × 2 threads: per program its row name, the
/// fastest `Executor::run` of [`SIM_RUN_REPS`] (after one warm-up), and
/// what every run counted — `None` when a run failed or two runs
/// counted differently.
fn sim_runs(suite: &[Workload]) -> Vec<(String, u64, Option<RunStats>)> {
    suite
        .iter()
        .filter(|w| ["EPCC", "HERA", "SP-MZ"].contains(&w.name))
        .map(|w| {
            let module = lower_workload(w);
            let report = bench_session().check_module(&module);
            let (instrumented, _) = instrument_module(&module, &report, InstrumentMode::Selective);
            let cfg = RunConfig {
                ranks: 2,
                default_threads: 2,
                ..RunConfig::default()
            };
            let exec = Executor::new(instrumented, cfg);
            let warm = exec.run();
            let mut stats = warm.is_clean().then_some(warm.stats);
            let mut fastest = u64::MAX;
            for _ in 0..SIM_RUN_REPS {
                let t0 = Instant::now();
                let run = black_box(exec.run());
                fastest = fastest.min(t0.elapsed().as_nanos() as u64);
                if !run.is_clean() || stats != Some(run.stats) {
                    stats = None;
                }
            }
            let row = format!("{}_a", w.name.to_lowercase().replace('-', "_"));
            (row, fastest, stats)
        })
        .collect()
}

/// Average full-oracle latency (parse → analyze → instrument → simulate
/// under the watchdog) over 50 fixed-seed generator modules, and the
/// resulting throughput in modules/s. Generation is pre-rendered so the
/// timing covers the oracle alone.
fn sim_oracle_bench() -> (u64, u64) {
    use parcoach_fuzz::{module_seed, observe, OracleConfig, OracleOutcome};
    const MODULES: u64 = 50;
    let cfg = OracleConfig::default();
    let sources: Vec<String> = (0..MODULES)
        .map(|i| criterion::Scenario::generate(module_seed(42, i)).render())
        .collect();
    let t0 = Instant::now();
    for (i, src) in sources.iter().enumerate() {
        if let OracleOutcome::Invalid(d) = observe(&format!("bench_{i}.mh"), src, &cfg) {
            panic!("generator produced invalid module {i}: {d}");
        }
    }
    let total = t0.elapsed();
    let per_module = total.as_nanos() as u64 / MODULES;
    let mps = (MODULES as f64 / total.as_secs_f64()) as u64;
    (per_module, mps)
}

/// Minimum compile time per workload; returns the suite total and the
/// per-workload breakdown.
fn measure_fig1(suite: &[Workload]) -> (u64, BTreeMap<String, u64>) {
    let mut per_workload = BTreeMap::new();
    let mut total = 0u64;
    for w in suite {
        let t = measure(COMPILE_REPS, || {
            let _ = compile_with_codegen(w.name, &w.source);
        });
        let ns = t.min.as_nanos() as u64;
        total += ns;
        per_workload.insert(w.name.to_string(), ns);
    }
    (total, per_workload)
}

/// Check one gated aggregate against the baseline, re-measuring (and
/// keeping the fastest attempt) while it reads over tolerance. Returns
/// whether the metric passes; `current` is updated to the kept attempt.
/// `slack_note_printed` suppresses repeats of the baseline-slack NOTE
/// across gated keys within one run.
#[allow(clippy::too_many_arguments)]
fn gate(
    key: &str,
    current: &mut u64,
    calibration_ns: u64,
    baseline: Option<&BTreeMap<String, u64>>,
    tolerance: f64,
    slack_note_printed: &mut bool,
    mut remeasure: impl FnMut() -> u64,
) -> bool {
    let Some(base) = baseline else {
        return true; // --write-baseline mode
    };
    let (Some(&base_ns), Some(&base_cal)) = (base.get(key), base.get("calibration_ns")) else {
        eprintln!("{key}: missing from baseline — regenerate it with --write-baseline");
        return false;
    };
    let base_ratio = base_ns as f64 / base_cal as f64;
    let limit = base_ratio * (1.0 + tolerance / 100.0);
    let mut attempts = 0;
    loop {
        let ratio = *current as f64 / calibration_ns as f64;
        let delta = (ratio / base_ratio - 1.0) * 100.0;
        if ratio <= limit {
            println!("{key:<24} base x{base_ratio:>7.3}  now x{ratio:>7.3}  ({delta:>+6.1}%)  ok");
            // A ratio far *below* baseline means the baseline was
            // recorded on differently-shaped hardware (e.g. a 1-CPU
            // box where pooled work serialized) and the gate is running
            // with that much slack — it cannot catch a regression
            // smaller than the gap. Tell the operator to tighten it —
            // once per run, with the actual calibration ratios so the
            // log shows how much slack there is.
            if ratio < base_ratio * 0.6 && !*slack_note_printed {
                *slack_note_printed = true;
                println!(
                    "NOTE: {key} runs {:.0}% below baseline (x{ratio:.3} cal now vs \
                     x{base_ratio:.3} cal recorded) — baseline looks recorded on \
                     slower/differently-shaped hardware; refresh it on this machine with \
                     --write-baseline to restore the gate's sensitivity \
                     (further per-key notes suppressed this run)",
                    -delta
                );
            }
            return true;
        }
        if attempts >= GATE_RETRIES {
            println!(
                "{key:<24} base x{base_ratio:>7.3}  now x{ratio:>7.3}  ({delta:>+6.1}%)  REGRESSION"
            );
            return false;
        }
        attempts += 1;
        println!(
            "{key:<24} over tolerance ({delta:>+6.1}%) — remeasuring (attempt {attempts}/{GATE_RETRIES})"
        );
        *current = (*current).min(remeasure());
    }
}

/// Single-threaded arithmetic spin: the machine-speed yardstick. Many
/// ~2 ms spins (the compiles' timescale) with the minimum taken, so
/// both sides of the `bench / calibration` ratio dodge scheduler and
/// cgroup throttling windows the same way.
fn calibrate() -> u64 {
    let spin = || {
        let mut x = 0x9E37_79B9u64;
        for _ in 0..1_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x)
    };
    let t = measure(31, || {
        spin();
    });
    t.min.as_nanos() as u64
}

/// Run one catalogue case on a watchdog thread: `None` when the
/// simulator run exceeded [`CASE_WATCHDOG`] (the hung worker is left
/// detached — the gate reports and exits; the process does not wait on
/// it). A worker that *panics* is reported as an error, not a hang.
#[allow(clippy::type_complexity)]
fn run_case_with_watchdog(
    id: &'static str,
    source: String,
) -> Option<Result<(parcoach_core::StaticReport, parcoach_interp::RunReport), String>> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(check_and_run(id, &source, RunConfig::fast_fail(2, 4), true));
    });
    match rx.recv_timeout(CASE_WATCHDOG) {
        Ok(outcome) => Some(outcome),
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => None,
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => Some(Err(
            "case worker panicked before producing a result (see stderr backtrace)".into(),
        )),
    }
}

/// One instrumented run per catalogue case; true when every case behaves
/// as the paper predicts (same checks as the `detection_table` bin).
/// Each case runs under a wall-clock watchdog so a regression that
/// introduces a genuine deadlock fails the gate instead of hanging it.
fn detection_pass() -> bool {
    let mut all_ok = true;
    for case in error_catalogue() {
        let Some(outcome) = run_case_with_watchdog(case.id, case.source.clone()) else {
            eprintln!(
                "{}: WATCHDOG — still running after {}s; the simulator hung \
                 (deadlock-detection regression?)",
                case.id,
                CASE_WATCHDOG.as_secs()
            );
            all_ok = false;
            continue;
        };
        let (report, run) = match outcome {
            Ok(x) => x,
            Err(e) => {
                eprintln!("{}: {e}", case.id);
                all_ok = false;
                continue;
            }
        };
        let static_ok = match case.expect_static {
            ExpectStatic::Clean => report.is_clean(),
            ExpectStatic::Warns(code) => report.warnings.iter().any(|w| w.kind.code() == code),
        };
        let dynamic_ok = match case.expect_dynamic {
            ExpectDynamic::Clean => run.is_clean(),
            ExpectDynamic::CaughtByCheck => !run.is_clean() && run.detected_by_check(),
            ExpectDynamic::CaughtBySubstrate | ExpectDynamic::Fails => !run.is_clean(),
            ExpectDynamic::MayFail => true,
        };
        if !(static_ok && dynamic_ok) {
            eprintln!(
                "{}: unexpected behavior (static_ok={static_ok}, dynamic_ok={dynamic_ok})",
                case.id
            );
            all_ok = false;
        }
    }
    all_ok
}

/// Per-phase static-analysis minima for the EPCC and HERA class-B
/// workloads on a 1-lane deterministic pool (at `jobs = 1` the
/// per-function phase sums equal wall time, so the breakdown is
/// directly comparable run to run).
fn phase_breakdown() -> Vec<(String, u64)> {
    let mut session = bench_session();
    let mut out = Vec::new();
    for (label, w) in [
        (
            "epcc_b",
            parcoach_workloads::epcc::generate(WorkloadClass::B),
        ),
        (
            "hera_b",
            parcoach_workloads::hera::generate(WorkloadClass::B),
        ),
    ] {
        let module = lower_workload(&w);
        let phases = static_phase_breakdown(&module, &mut session, PHASE_REPS);
        for (phase, dur) in phases.lines() {
            out.push((format!("phase/{label}/{phase}_ns"), dur.as_nanos() as u64));
        }
        println!(
            "phases {label}: total {:.3} ms, contexts {:.3} ms, matching {:.3} ms",
            phases.total.as_secs_f64() * 1e3,
            phases.contexts.as_secs_f64() * 1e3,
            phases.matching.as_secs_f64() * 1e3,
        );
    }
    out
}

/// Median analyze time of HERA class B under a 1-lane and a 4-lane
/// deterministic pool, plus whether the two reports are byte-identical.
fn analyze_speedup() -> (u64, u64, bool) {
    let w: Workload = parcoach_workloads::hera::generate(WorkloadClass::B);
    let unit = parse_and_check(w.name, &w.source).expect("workload compiles");
    let module = lower_program(&unit.program, &unit.signatures);
    let session = |jobs| {
        AnalysisSession::builder()
            .jobs(jobs)
            .deterministic(true)
            .seed(42)
            .build()
    };
    let (mut s1, mut s4) = (session(1), session(4));
    let r1 = s1.check_module(&module);
    let r4 = s4.check_module(&module);
    let identical = format!("{r1:?}") == format!("{r4:?}");
    let t1 = measure(ANALYZE_REPS, || {
        let _ = s1.check_module(&module);
    });
    let t4 = measure(ANALYZE_REPS, || {
        let _ = s4.check_module(&module);
    });
    (
        t1.median.as_nanos() as u64,
        t4.median.as_nanos() as u64,
        identical,
    )
}

/// The analysis inside the daemon's headline number: cold one-shot
/// check of HERA class B (full front-end + fresh analysis, what
/// `parcoachc check` pays) vs a warm re-check over a resident memo
/// table after a single-function edit. The edit alternates one probe
/// function between two bodies, so every warm rep re-keys that function,
/// re-derives exactly its words, CFG facts and findings, and reuses the
/// rest — the steady state `parcoachd`'s documents serve. Returns
/// `(cold, warm_ns, identical)` where `identical` compares the warm
/// report byte-for-byte against a cold fresh-session report of the same
/// edited module.
fn incremental_latency() -> (ColdSpans, u64, bool) {
    let w: Workload = parcoach_workloads::hera::generate(WorkloadClass::B);
    let variant = |body: &str| format!("{}\nfn bench_ci_probe() {{ {body} }}\n", w.source);
    let (src_a, src_b) = (
        variant("MPI_Barrier();"),
        variant("MPI_Barrier(); MPI_Barrier();"),
    );
    let compile = |src: &str| {
        let unit = parse_and_check(w.name, src).expect("workload compiles");
        lower_program(&unit.program, &unit.signatures)
    };
    let session = |jobs| {
        AnalysisSession::builder()
            .jobs(jobs)
            .deterministic(true)
            .seed(42)
            .build()
    };

    let cold = cold_check_spans(w.name, &src_a);

    let (module_a, module_b) = (compile(&src_a), compile(&src_b));
    let mut probe = WarmProbe::new(module_a, module_b);
    let warm_report = probe.flip();
    let cold_report = session(1).check_module(probe.current());
    let identical = format!("{warm_report:?}") == format!("{cold_report:?}");

    let warm = measure(ANALYZE_REPS, || {
        let _ = probe.flip();
    });
    // Minimum over reps, like every other latency metric here: the
    // single-core CI runners have enough scheduler noise to swing a
    // median by 25%, and the minimum is the standard low-noise
    // estimator for a deterministic computation.
    (cold, warm.min.as_nanos() as u64, identical)
}

/// Where one cold check spent its time, stage by stage.
struct ColdSpans {
    /// Source bytes in → report out → every product dropped.
    total_ns: u64,
    /// Lexing alone (timed on its own: the parser calls it internally).
    lex_ns: u64,
    /// Source map + `parse_program`, minus `lex_ns`.
    parse_ns: u64,
    sema_ns: u64,
    lower_ns: u64,
    verify_ns: u64,
    /// `instrument_module(Selective)`.
    instrument_ns: u64,
    /// Dropping the instrumented module, report, session, module,
    /// signatures and AST.
    drop_ns: u64,
}

/// The one-shot path of `parcoachc check` over `src` — source map,
/// parse, sema, lower, verify, a fresh session's `check_module`,
/// selective instrumentation, then everything dropped — with a
/// timestamp at every stage boundary.
/// Reports the fastest of `ANALYZE_REPS` reps (after one warm-up) and
/// *that* rep's boundaries, so the spans are one consistent cold check
/// and not a collage of minima.
fn cold_check_spans(name: &str, src: &str) -> ColdSpans {
    let lex_ns = measure(ANALYZE_REPS, || {
        black_box(lex(black_box(src), &mut Diagnostics::new()));
    })
    .min
    .as_nanos() as u64;

    let mut best: Option<ColdSpans> = None;
    for _ in 0..=ANALYZE_REPS {
        let t0 = Instant::now();
        let source_map = SourceMap::new(name, black_box(src));
        let (program, mut diags) = parse_program(src);
        let t1 = Instant::now();
        let signatures = check_program(&program, &mut diags).signatures;
        assert!(!diags.has_errors(), "workload compiles");
        let t2 = Instant::now();
        let module = lower_program(&program, &signatures);
        let t3 = Instant::now();
        assert!(verify_module(&module).is_empty());
        let t4 = Instant::now();
        let mut session = bench_session();
        let report = session.check_module(&module);
        let t5 = Instant::now();
        let instrumented = instrument_module(&module, &report, InstrumentMode::Selective);
        let t6 = Instant::now();
        drop((
            instrumented,
            report,
            session,
            module,
            signatures,
            program,
            diags,
            source_map,
        ));
        let t7 = Instant::now();

        let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
        let rep = ColdSpans {
            total_ns: ns(t0, t7),
            lex_ns,
            parse_ns: ns(t0, t1).saturating_sub(lex_ns),
            sema_ns: ns(t1, t2),
            lower_ns: ns(t2, t3),
            verify_ns: ns(t3, t4),
            instrument_ns: ns(t5, t6),
            drop_ns: ns(t6, t7),
        };
        if best.as_ref().is_none_or(|b| rep.total_ns < b.total_ns) {
            best = Some(rep);
        }
    }
    best.expect("at least one rep")
}

/// What `parcoachd`'s document does around a single-function edit, in
/// miniature: one memo table over a module whose probe function flips
/// between two bodies. Each [`WarmProbe::flip`] marks the probe dirty
/// (handing the table the outgoing IR, as `Document::edit` does) and
/// re-checks the other variant over the table.
struct WarmProbe {
    session: AnalysisSession,
    db: QueryDb,
    modules: [Module; 2],
    /// Index into `modules` of the variant the table was last checked
    /// against.
    cur: usize,
    probe: usize,
}

impl WarmProbe {
    fn new(a: Module, b: Module) -> WarmProbe {
        let mut p = WarmProbe {
            session: bench_session(),
            db: QueryDb::new(),
            probe: a.by_name["bench_ci_probe"],
            modules: [a, b],
            cur: 1,
        };
        let _ = p.check();
        p
    }

    fn current(&self) -> &Module {
        &self.modules[self.cur]
    }

    fn check(&mut self) -> StaticReport {
        self.session
            .check_module_in(&self.modules[self.cur], &mut self.db, None)
            .expect("no token, cannot cancel")
    }

    fn flip(&mut self) -> StaticReport {
        self.db
            .mark_dirty(self.probe, &self.modules[self.cur].funcs[self.probe]);
        self.cur ^= 1;
        self.check()
    }
}

/// One MPI-neutral `edit` request line plus one `check` request line
/// through `Server::handle_line` on a resident HERA class B document:
/// a function in the middle of the file alternates between two values
/// of an added `let`, so every rep re-parses and re-lowers it, rebases
/// what follows, re-derives that one function's findings and re-encodes
/// the response. Returns the fastest rep and whether the reps were what
/// they claim to be: every edit incremental, every other function's
/// findings and the context fixpoint served from the table.
fn neutral_edit_latency() -> (u64, bool) {
    use parcoach_server::json::{obj, parse, Value};
    use parcoach_server::{Server, ServerConfig};

    let w: Workload = parcoach_workloads::hera::generate(WorkloadClass::B);
    let request = |id: i64, method: &str, params: Value| {
        obj([
            ("jsonrpc", Value::from("2.0")),
            ("id", Value::from(id)),
            ("method", Value::from(method)),
            ("params", params),
        ])
        .to_line()
    };
    let uri = || ("uri", Value::from(w.name));

    let mut server = Server::new(ServerConfig {
        jobs: Some(1),
        deterministic: true,
        seed: 42,
        ..ServerConfig::default()
    });
    let version = obj([("protocolVersion", Value::from(2i64))]);
    server.handle_line(&request(0, "initialize", version));
    let opened = server.handle_line(&request(
        1,
        "open",
        obj([uri(), ("text", Value::from(w.source.as_str()))]),
    ));
    let functions = parse(&opened)
        .ok()
        .and_then(|r| match r.get("result")?.get("functions")? {
            Value::Arr(names) => Some(names.len()),
            _ => None,
        })
        .expect("open lists the functions");

    // The definition in the middle of the file: from its `fn` to the
    // next one (generated sources put both in column 0).
    let starts: Vec<usize> = std::iter::once(0)
        .chain(w.source.match_indices("\nfn ").map(|(i, _)| i + 1))
        .collect();
    let mid = starts.len() / 2;
    let def = w.source[starts[mid]..starts[mid + 1]].trim_end();
    let (head, body) = def.split_once('\n').expect("a multi-line definition");
    let name = head["fn ".len()..].split('(').next().expect("fn name(");
    let edits: Vec<String> = [1, 2]
        .iter()
        .map(|pad| {
            let text = format!("{head}\n    let bench_pad = {pad};\n{body}");
            let params = obj([
                uri(),
                ("func", Value::from(name)),
                ("text", Value::from(text)),
            ]);
            request(2, "edit", params)
        })
        .collect();
    let check = request(3, "check", obj([uri()]));

    let mut rep = 0usize;
    let mut live = true;
    let mut step = |server: &mut Server| {
        let edited = server.handle_line(&edits[rep % 2]);
        let checked = server.handle_line(&check);
        rep += 1;
        live &= edited.contains(r#""incremental":true"#) && checked.contains(r#""result""#);
    };
    // The first two reps add the line and settle the call summary (the
    // added instruction moves the call sites after it).
    step(&mut server);
    step(&mut server);
    let cache = |server: &mut Server| {
        let timings = server.handle_line(&request(4, "timings", obj([])));
        let cache = parse(&timings).ok()?.get("result")?.get("cache")?.clone();
        let read = |key: &str| cache.get(key).and_then(Value::as_i64);
        Some((
            read("analysisHits")?,
            read("analysisMisses")?,
            read("contextHits")?,
            read("contextMisses")?,
        ))
    };
    let before = cache(&mut server).expect("timings after a check");
    let t = measure(ANALYZE_REPS, || step(&mut server));
    let after = cache(&mut server).expect("timings after a check");
    let reps = (ANALYZE_REPS + 1) as i64; // `measure` warms up once
    live &= after.0 - before.0 == reps * (functions as i64 - 1)
        && after.1 - before.1 == reps
        && after.2 - before.2 == reps
        && after.3 == before.3;
    (t.min.as_nanos() as u64, live)
}

/// The module-table counterpart of [`incremental_latency`]: the probe
/// flips between two bodies with NO comm/request/p2p events, so every
/// warm rep re-keys the probe and re-derives its local facts but finds
/// the module-wide comm/request/p2p tables untouched by the edit and
/// reuses them wholesale. Returns
/// `(warm_module_ns, identical, memo_live)` — `identical` compares the
/// warm report against a cold fresh-session report of the same edited
/// module; `memo_live` certifies the timed loop actually hit the module
/// tables (otherwise the ≤ 2x gate would vacuously time the rebuild
/// path).
fn module_warm_latency() -> (u64, bool, bool) {
    let w: Workload = parcoach_workloads::hera::generate(WorkloadClass::B);
    let variant = |body: &str| format!("{}\nfn bench_ci_probe() {{ {body} }}\n", w.source);
    let (src_a, src_b) = (
        variant("let acc = 1;"),
        variant("let acc = 1; let adj = 2;"),
    );
    let compile = |src: &str| {
        let unit = parse_and_check(w.name, src).expect("workload compiles");
        lower_program(&unit.program, &unit.signatures)
    };
    let mut probe = WarmProbe::new(compile(&src_a), compile(&src_b));
    let warm_report = probe.flip();
    let cold_report = bench_session().check_module(probe.current());
    let identical = format!("{warm_report:?}") == format!("{cold_report:?}");

    let before = probe.db.stats();
    let warm = measure(ANALYZE_REPS, || {
        let _ = probe.flip();
    });
    let after = probe.db.stats();
    // Every timed rep must have reused the comm and p2p module tables
    // without a single rebuild.
    let memo_live = after.comm_hits > before.comm_hits
        && after.p2p_hits > before.p2p_hits
        && after.comm_misses == before.comm_misses
        && after.p2p_misses == before.p2p_misses;
    (warm.min.as_nanos() as u64, identical, memo_live)
}

// --- flat JSON (no external deps) ----------------------------------------

/// Serialize string→integer pairs as a stable, human-diffable object.
fn to_json(map: &BTreeMap<String, u64>) -> String {
    let mut out = String::from("{\n");
    let mut first = true;
    for (k, v) in map {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!("  \"{k}\": {v}"));
    }
    out.push_str("\n}\n");
    out
}

/// Parse the subset emitted by [`to_json`]: one flat object of
/// string-keyed integers (whitespace-insensitive).
fn parse_flat_json(text: &str) -> Option<BTreeMap<String, u64>> {
    let body = text.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut map = BTreeMap::new();
    for entry in body.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry.split_once(':')?;
        let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
        let value: u64 = value.trim().parse().ok()?;
        map.insert(key.to_string(), value);
    }
    Some(map)
}
