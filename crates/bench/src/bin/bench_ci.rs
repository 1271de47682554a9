//! CI perf-regression gate.
//!
//! Measures Figure 1 on class B (the three interleaved compile
//! pipelines of [`figure1_rows`], as the `fig1` bin prints them), one
//! end-to-end detection pass over the error catalogue, cold and warm
//! HERA class-B checks, the per-phase analysis breakdown, and
//! instrumented and plain 2×2 runs of three class-A programs (their
//! shared-cell counts and SP-MZ-A's other `RunStats` counts exact);
//! writes everything to a flat JSON file and compares against a
//! checked-in baseline.
//!
//! The paper's two overhead claims are gated rows: per Figure-1
//! workload `info/fig1/<W>/{warn,code}_overhead_x1000`, and per
//! simulated program `info/sim/<row>_instr_overhead_x1000`, each
//! instrumented ÷ plain × 1000. A ratio needs no calibration: each is
//! gated absolutely at its baseline value plus one slack per family.
//!
//! Robustness, in layers:
//! * **Cross-machine**: gated wall-clock numbers are normalized by an
//!   arithmetic *calibration* spin timed in the same run, so a uniformly
//!   slower CI runner does not trip the gate — only a change in the
//!   *shape* of the cost does.
//! * **Cross-run noise**: the wall-clock gates compare two *aggregates*
//!   (the Figure-1 code series summed over the suite, detection-table
//!   wall clock) rather than individual compiles; per-workload times
//!   are recorded as `info/` for humans. A gated aggregate that lands
//!   over tolerance is re-measured up to two times and the fastest
//!   attempt kept — a real regression fails every attempt, a
//!   descheduling spike does not.
//!
//! ```text
//! bench_ci [--out FILE] [--baseline FILE] [--write-baseline FILE]
//! ```
//!
//! Exit codes: 0 = ok, 1 = regression (> `DEFAULT_TOLERANCE` %) or
//! detection failure, 3 = usage error.

use parcoach_bench::{
    detection, figure1_rows, lower_workload, measure, overhead_x1000, static_phase_breakdown,
    Fig1Row, RunOutcome, CASE_WATCHDOG,
};
use parcoach_core::{instrument_module, AnalysisSession, InstrumentMode, QueryDb, StaticReport};
use parcoach_front::lexer::lex_source;
use parcoach_front::parser::parse_source;
use parcoach_front::sema::check_program;
use parcoach_front::{parse_and_check, Diagnostics};
use parcoach_interp::{Executor, RunConfig, RunStats};
use parcoach_ir::lower::lower_program;
use parcoach_ir::{verify_module, Module};
use parcoach_server::json::{self, Value};
use parcoach_workloads::{figure1_suite, Workload, WorkloadClass};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Samples per pipeline and workload for Figure 1 (`fig1`'s default);
/// each series reports its median.
const COMPILE_REPS: usize = 15;
/// Repetitions for the cold- and warm-check latency probes.
const ANALYZE_REPS: usize = 21;
/// Repetitions for the per-phase breakdown probes (min per phase).
const PHASE_REPS: usize = 15;
/// Extra measurement attempts for a gated aggregate that lands over
/// tolerance (the fastest attempt is kept).
const GATE_RETRIES: usize = 2;
/// Repetitions per program for the simulated class-A runs (the fastest
/// is kept; every one is counted).
const SIM_RUN_REPS: usize = 9;
/// Regression tolerance on normalized ratios, percent.
const DEFAULT_TOLERANCE: f64 = 25.0;
/// How far a Figure-1 `_overhead_x1000` row may read above its baseline
/// value (x1000 units: 120 is 12 points of overhead): twice the widest
/// spread of one row over five runs, 58 (EXPERIMENTS.md E24).
const FIG1_OVERHEAD_SLACK_X1000: u64 = 120;
/// The same for the `info/sim/<row>_instr_overhead_x1000` rows, whose
/// widest five-run spread was 207: a run of a few threaded milliseconds
/// is far noisier than a compile.
const SIM_OVERHEAD_SLACK_X1000: u64 = 420;

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
    let mut write_baseline: Option<String> = None;
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
            "--write-baseline" => write_baseline = Some(take(&mut i)?),
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
                Some(parse_baseline(&text).ok_or_else(|| {
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

    // The single-CPU-baseline NOTE is printed at most once per run (it
    // repeats identically per gated key otherwise and drowns CI logs).
    let mut slack_note_printed = false;

    // --- Figure 1, class B (gated: the code total and every ratio) -------
    // `bench/fig1_total` sums the code series' medians and is gated on
    // its calibration ratio; a re-measure that reads faster replaces
    // every row, so the total and the ratios come from the same samples.
    let fig1_suite = figure1_suite(WorkloadClass::B);
    let code_total =
        |rows: &[Fig1Row]| -> u64 { rows.iter().map(|r| r.codegen.as_nanos() as u64).sum() };
    let mut fig1 = figure1_rows(&fig1_suite, COMPILE_REPS);
    let mut fig1_total = code_total(&fig1);
    gate_ok &= gate(
        "bench/fig1_total",
        &mut fig1_total,
        calibration_ns,
        baseline.as_ref(),
        &mut slack_note_printed,
        || {
            let again = figure1_rows(&fig1_suite, COMPILE_REPS);
            let total = code_total(&again);
            if total < code_total(&fig1) {
                fig1 = again;
            }
            total
        },
    );
    results.insert("bench/fig1_total".into(), fig1_total);
    for r in &fig1 {
        println!(
            "  fig1/{:<6} base {:>7.3} ms  warn {:>7.3} ms  code {:>7.3} ms",
            r.name,
            r.baseline.as_secs_f64() * 1e3,
            r.warnings.as_secs_f64() * 1e3,
            r.codegen.as_secs_f64() * 1e3,
        );
        let key = |row: &str| format!("info/fig1/{}/{row}", r.name);
        for (row, t) in [
            ("base_ns", r.baseline),
            ("warn_ns", r.warnings),
            ("code_ns", r.codegen),
        ] {
            results.insert(key(row), t.as_nanos() as u64);
        }
        for (row, x1000) in [
            ("warn_overhead_x1000", r.warn_overhead_x1000),
            ("code_overhead_x1000", r.code_overhead_x1000),
        ] {
            gate_ok &= overhead_gate(
                &key(row),
                x1000,
                baseline.as_ref(),
                FIG1_OVERHEAD_SLACK_X1000,
            );
            results.insert(key(row), x1000);
        }
    }

    // --- detection table (gated wall-clock + correctness) ----------------
    let mut detection_ok = true;
    let mut run_detection = || {
        let t0 = Instant::now();
        let rows = detection(&[]);
        let ns = t0.elapsed().as_nanos() as u64;
        for d in rows.iter().filter(|d| !d.ok) {
            detection_ok = false;
            let id = d.case.id;
            match &d.outcome {
                RunOutcome::Ran(_) => eprintln!(
                    "{id}: unexpected behavior (static {:?}, expected {:?} / {:?})",
                    d.static_codes, d.case.expect_static, d.case.expect_dynamic
                ),
                RunOutcome::Hung => eprintln!(
                    "{id}: WATCHDOG — still running after {}s; the simulator hung \
                     (deadlock-detection regression?)",
                    CASE_WATCHDOG.as_secs()
                ),
                RunOutcome::Panicked => eprintln!(
                    "{id}: case worker panicked before producing a result (see stderr backtrace)"
                ),
                RunOutcome::CompileError(e) => eprintln!("{id}: {e}"),
            }
        }
        ns
    };
    let mut detection_ns = run_detection();
    gate_ok &= gate(
        "bench/detection_table",
        &mut detection_ns,
        calibration_ns,
        baseline.as_ref(),
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
    let phase_records = phase_breakdown();
    for (key, ns) in &phase_records {
        results.insert(format!("info/{key}"), *ns);
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
    // (EXPERIMENTS.md E21, E22): verifying HERA-B walks 1 100 blocks,
    // dropping a cold check's products frees about 1 400 vectors, and
    // the whole cold check allocates about 3 000 times — bars about
    // twice the measured spans (and 1.4 times the cold check), so that
    // a per-block or per-node allocation coming back fails here
    // whatever the machine.
    const VERIFY_BOUND_NS: u64 = 100_000;
    const PRODUCTS_DROP_BOUND_NS: u64 = 100_000;
    const COLD_FULL_BOUND_NS: u64 = 1_500_000;
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
    let budget_ok = named_ns.abs_diff(cold_ns) * 20 <= cold_ns;
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
            "ok (within 5 %)"
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

    // --- class-A runs (overhead gated, counts exact) ---------------------
    // The programs of the benchmark's `sim_run` at its 2 ranks × 2
    // threads, instrumented and plain: the paper's run-time claim is the
    // ratio of the two. What a run *does* is a property of the program:
    // every row's shared register cells, and SP-MZ-A's steps, forks and
    // barrier waits, must repeat exactly over the repetitions and equal
    // the baseline's — a simulator change that adds a synchronisation, a
    // step or a locked register shows here as a count, whatever the
    // machine does to the timings.
    let mut sim_counts_ok = true;
    for SimRow {
        row,
        run_ns,
        overhead_x1000,
        stats,
    } in sim_runs()
    {
        results.insert(format!("info/sim/{row}_run_ns"), run_ns);
        let key = format!("info/sim/{row}_instr_overhead_x1000");
        results.insert(key.clone(), overhead_x1000);
        print!(
            "sim run {row}: fastest {:.3} ms, x{overhead_x1000} of plain",
            run_ns as f64 / 1e6
        );
        match stats {
            Some(stats) => print!(", every run {stats}"),
            None => {
                sim_counts_ok = false;
                print!(", RUNS FAILED OR COUNTED DIFFERENTLY");
            }
        }
        println!();
        gate_ok &= overhead_gate(
            &key,
            overhead_x1000,
            baseline.as_ref(),
            SIM_OVERHEAD_SLACK_X1000,
        );
        let Some(stats) = stats else { continue };
        let mut counts = vec![("shared_cells", stats.shared_cells)];
        if row == "sp_mz_a" {
            counts.extend([
                ("steps", stats.steps),
                ("forks", stats.forks),
                ("barrier_waits", stats.barrier_waits),
            ]);
        }
        for (name, count) in counts {
            let key = format!("info/sim/{row}_{name}");
            sim_counts_ok &= count_gate(&key, count, baseline.as_ref());
            results.insert(key, count);
        }
    }

    // --- write ------------------------------------------------------------
    let json = to_json(&results);
    std::fs::write(&out_path, &json).map_err(|e| format!("write {out_path}: {e}"))?;
    println!("wrote {out_path}");
    if let Some(p) = write_baseline {
        std::fs::write(&p, &json).map_err(|e| format!("write {p}: {e}"))?;
        println!("wrote baseline {p}");
    }
    // Without a baseline every baseline-relative gate passed, so one
    // verdict serves both modes.
    let verdicts = [
        gate_ok,
        detection_ok,
        incr_ok,
        neutral_ok,
        module_ok,
        hera_ok,
        budget_ok,
        layout_ok,
        sim_ok,
        sim_counts_ok,
    ];
    Ok(verdicts.iter().all(|&ok| ok))
}

/// One class-A program of [`sim_runs`].
struct SimRow {
    row: String,
    /// The fastest instrumented `Executor::run`.
    run_ns: u64,
    /// [`overhead_x1000`] of that run over the fastest plain one.
    overhead_x1000: u64,
    /// What every instrumented run counted — `None` when a run failed or
    /// two runs counted differently.
    stats: Option<RunStats>,
}

/// The three class-A programs of the benchmark's `sim_run` at 2 ranks ×
/// 2 threads: [`SIM_RUN_REPS`] runs each (after one warm-up) of the
/// selectively instrumented module, interleaved with as many of the
/// plain one.
fn sim_runs() -> Vec<SimRow> {
    figure1_suite(WorkloadClass::A)
        .iter()
        .filter(|w| ["EPCC", "HERA", "SP-MZ"].contains(&w.name))
        .map(|w| {
            let module = lower_workload(w);
            let report = AnalysisSession::default().check_module(&module);
            let (instrumented, _) = instrument_module(&module, &report, InstrumentMode::Selective);
            let cfg = RunConfig {
                ranks: 2,
                default_threads: 2,
                ..RunConfig::default()
            };
            let exec = Executor::new(instrumented, cfg.clone());
            let plain = Executor::new(module, cfg);
            let warm = exec.run();
            let mut stats = (warm.is_clean() && plain.run().is_clean()).then_some(warm.stats);
            let (mut fastest, mut fastest_plain) = (Duration::MAX, Duration::MAX);
            for _ in 0..SIM_RUN_REPS {
                let t0 = Instant::now();
                let run = black_box(exec.run());
                fastest = fastest.min(t0.elapsed());
                let t0 = Instant::now();
                let plain_run = black_box(plain.run());
                fastest_plain = fastest_plain.min(t0.elapsed());
                if !run.is_clean() || !plain_run.is_clean() || stats != Some(run.stats) {
                    stats = None;
                }
            }
            SimRow {
                row: format!("{}_a", w.name.to_lowercase().replace('-', "_")),
                run_ns: fastest.as_nanos() as u64,
                overhead_x1000: overhead_x1000(fastest_plain, fastest),
                stats,
            }
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
        .map(|i| parcoach_testutil::Scenario::generate(module_seed(42, i)).render())
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

/// Check one gated aggregate against the baseline, re-measuring (and
/// keeping the fastest attempt) while it reads over tolerance. Returns
/// whether the metric passes; `current` is updated to the kept attempt.
/// `slack_note_printed` suppresses repeats of the baseline-slack NOTE
/// across gated keys within one run.
fn gate(
    key: &str,
    current: &mut u64,
    calibration_ns: u64,
    baseline: Option<&BTreeMap<String, u64>>,
    slack_note_printed: &mut bool,
    mut remeasure: impl FnMut() -> u64,
) -> bool {
    let (base_ns, base_cal) = match (pinned(key, baseline), pinned("calibration_ns", baseline)) {
        (Ok(base_ns), Ok(base_cal)) => (base_ns, base_cal),
        (Err(verdict), _) | (_, Err(verdict)) => return verdict,
    };
    let base_ratio = base_ns as f64 / base_cal as f64;
    let limit = base_ratio * (1.0 + DEFAULT_TOLERANCE / 100.0);
    let mut attempts = 0;
    loop {
        let ratio = *current as f64 / calibration_ns as f64;
        let delta = (ratio / base_ratio - 1.0) * 100.0;
        if ratio <= limit {
            println!("{key:<24} base x{base_ratio:>7.3}  now x{ratio:>7.3}  ({delta:>+6.1}%)  ok");
            // A ratio far *below* baseline means the baseline was
            // recorded on differently-shaped hardware (e.g. a slower
            // 1-CPU box) and the gate is running
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

/// Gate one `_overhead_x1000` row absolutely: it passes while it reads
/// at most its baseline value plus `slack`. A row missing from the
/// baseline fails; without a baseline (`--write-baseline` mode) every
/// row passes.
fn overhead_gate(
    key: &str,
    now: u64,
    baseline: Option<&BTreeMap<String, u64>>,
    slack: u64,
) -> bool {
    let pinned = match pinned(key, baseline) {
        Ok(pinned) => pinned,
        Err(verdict) => return verdict,
    };
    let bound = pinned.saturating_add(slack);
    let ok = now <= bound;
    println!(
        "{key:<40} base x{pinned:>5}  now x{now:>5}  (bound x{bound})  {}",
        if ok { "ok" } else { "REGRESSION" }
    );
    ok
}

/// Gate one exact count: it passes only at its baseline value. A count
/// missing from the baseline fails; without a baseline
/// (`--write-baseline` mode) every count passes.
fn count_gate(key: &str, now: u64, baseline: Option<&BTreeMap<String, u64>>) -> bool {
    match pinned(key, baseline) {
        Ok(pinned) if pinned == now => true,
        Ok(pinned) => {
            println!("  {key} = {now}, baseline {pinned} — COUNT MOVED");
            false
        }
        Err(verdict) => verdict,
    }
}

/// `key`'s baseline value, or the verdict of a gate that cannot read
/// one: it passes without a baseline (`--write-baseline` mode) and fails
/// when the baseline lacks `key`.
fn pinned(key: &str, baseline: Option<&BTreeMap<String, u64>>) -> Result<u64, bool> {
    let Some(base) = baseline else {
        return Err(true);
    };
    base.get(key).copied().ok_or_else(|| {
        eprintln!("{key}: missing from baseline — regenerate it with --write-baseline");
        false
    })
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
    measure(31, || {
        spin();
    })
    .as_nanos() as u64
}

/// Per-phase static-analysis minima for the EPCC and HERA class-B
/// workloads.
fn phase_breakdown() -> Vec<(String, u64)> {
    let mut session = AnalysisSession::default();
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
    let cold = cold_check_spans(w.name, &src_a);

    let (module_a, module_b) = (compile(&src_a), compile(&src_b));
    let mut probe = WarmProbe::new(module_a, module_b);
    let warm_report = probe.flip();
    let cold_report = AnalysisSession::default().check_module(probe.current());
    let identical = format!("{warm_report:?}") == format!("{cold_report:?}");

    let warm = measure(ANALYZE_REPS, || {
        let _ = probe.flip();
    });
    // Minimum over reps, like every other latency metric here: the
    // single-core CI runners have enough scheduler noise to swing a
    // median by 25%, and the minimum is the standard low-noise
    // estimator for a deterministic computation.
    (cold, warm.as_nanos() as u64, identical)
}

/// Where one cold check spent its time, stage by stage.
struct ColdSpans {
    /// Source bytes in → report out → every product dropped.
    total_ns: u64,
    /// Lexing, source map included: the lexer records the line starts
    /// it meets and the map is built from them (timed on its own: the
    /// parser calls it internally).
    lex_ns: u64,
    /// `parse_source`, minus `lex_ns`.
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

/// The one-shot path of `parcoachc check` over `src` — lex (source map
/// included), parse, sema, lower, verify, a fresh session's
/// `check_module`, selective instrumentation, then everything dropped —
/// with a timestamp at every stage boundary.
/// Reports the fastest of `ANALYZE_REPS` reps (after one warm-up) and
/// *that* rep's boundaries, so the spans are one consistent cold check
/// and not a collage of minima.
fn cold_check_spans(name: &str, src: &str) -> ColdSpans {
    let lex_ns = measure(ANALYZE_REPS, || {
        black_box(lex_source(name, black_box(src), &mut Diagnostics::new()));
    })
    .as_nanos() as u64;

    let mut best: Option<ColdSpans> = None;
    for _ in 0..=ANALYZE_REPS {
        let t0 = Instant::now();
        let (mut program, mut diags, source_map) = parse_source(name, black_box(src));
        let t1 = Instant::now();
        let signatures = check_program(&mut program, &mut diags);
        assert!(!diags.has_errors(), "workload compiles");
        let t2 = Instant::now();
        let module = lower_program(&program, &signatures);
        let t3 = Instant::now();
        assert!(verify_module(&module).is_empty());
        let t4 = Instant::now();
        let mut session = AnalysisSession::default();
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
            session: AnalysisSession::default(),
            db: QueryDb::new(),
            probe: a.index("bench_ci_probe").unwrap(),
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

    let mut server = Server::new(ServerConfig::default());
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
    (t.as_nanos() as u64, live)
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
    let cold_report = AnalysisSession::default().check_module(probe.current());
    let identical = format!("{warm_report:?}") == format!("{cold_report:?}");

    let before = probe.db.stats();
    let warm = measure(ANALYZE_REPS, || {
        let _ = probe.flip();
    });
    let after = probe.db.stats();
    // Every timed rep must have reused the handle and p2p module tables
    // without a single rebuild.
    let memo_live = after.handle_hits > before.handle_hits
        && after.p2p_hits > before.p2p_hits
        && after.handle_misses == before.handle_misses
        && after.p2p_misses == before.p2p_misses;
    (warm.as_nanos() as u64, identical, memo_live)
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

/// Read a baseline written by [`to_json`]: one flat object of
/// string-keyed integers.
fn parse_baseline(text: &str) -> Option<BTreeMap<String, u64>> {
    let Ok(Value::Obj(fields)) = json::parse(text) else {
        return None;
    };
    fields
        .into_iter()
        .map(|(key, value)| Some((key.into_owned(), u64::try_from(value.as_i64()?).ok()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: &str = "info/fig1/EPCC/warn_overhead_x1000";

    #[test]
    fn overhead_row_over_baseline_plus_slack_fails() {
        let baseline = BTreeMap::from([(KEY.to_string(), 1250)]);
        assert!(overhead_gate(KEY, 1300, Some(&baseline), 50));
        assert!(!overhead_gate(KEY, 1301, Some(&baseline), 50));
    }

    #[test]
    fn overhead_row_missing_from_baseline_fails() {
        let baseline = BTreeMap::from([("calibration_ns".to_string(), 1)]);
        assert!(!overhead_gate(KEY, 1000, Some(&baseline), 50));
    }

    #[test]
    fn overhead_rows_pass_in_write_baseline_mode() {
        assert!(overhead_gate(KEY, u64::MAX, None, 0));
    }

    #[test]
    fn a_count_passes_only_at_its_baseline_value() {
        let key = "info/sim/hera_a_shared_cells";
        let baseline = BTreeMap::from([(key.to_string(), 72)]);
        assert!(count_gate(key, 72, Some(&baseline)));
        assert!(!count_gate(key, 71, Some(&baseline)));
        assert!(!count_gate(key, 73, Some(&baseline)));
        assert!(!count_gate(
            "info/sim/epcc_a_shared_cells",
            0,
            Some(&baseline)
        ));
        assert!(count_gate(key, 504, None));
    }
}
