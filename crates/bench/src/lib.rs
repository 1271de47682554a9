//! # parcoach-bench — harness regenerating the paper's evaluation
//!
//! The paper's evaluation is **Figure 1**: the overhead of average
//! compilation time, with two series — "Warnings" (static analysis only)
//! and "Warnings + verification code generation" (analysis +
//! instrumentation) — over BT-MZ, SP-MZ, LU-MZ, the EPCC suite and HERA.
//!
//! This crate provides the three compilation pipelines being compared
//! and the measurement helpers; the `bin/` targets print the paper-shaped
//! tables (see EXPERIMENTS.md) and the `benches/` targets give Criterion
//! confidence intervals for the same quantities.

use parcoach_core::{
    instrument_module, AnalysisSession, InstrumentMode, PhaseTimings, StaticReport,
};
use parcoach_front::parse_and_check;
use parcoach_front::CheckedUnit;
use parcoach_ir::lower::lower_program;
use parcoach_ir::Module;
use std::time::{Duration, Instant};

/// Stage 1: the plain compiler — parse, type-check, lower, verify,
/// optimize (to a fixpoint, as an `-O2`-ish middle end would) and
/// allocate registers. This is the baseline "compilation" whose time the
/// overheads are relative to; the paper's baseline is likewise a *full*
/// GCC compilation, not just a frontend (DESIGN.md §2).
pub fn compile_baseline(name: &str, src: &str) -> (CheckedUnit, Module) {
    let unit = parse_and_check(name, src).expect("workload compiles");
    let mut module = lower_program(&unit.program, &unit.signatures);
    debug_assert!(parcoach_ir::verify_module(&module).is_empty());
    parcoach_ir::opt::optimize_module(&mut module, 4);
    for f in &module.funcs {
        let _ = parcoach_ir::opt::allocate(f);
    }
    (unit, module)
}

/// Stage 2: baseline + PARCOACH static analysis (the "Warnings" series).
/// As in the GCC plugin, the analysis runs on the middle-end IR — after
/// lowering, before the back end.
pub fn compile_with_warnings(name: &str, src: &str) -> (Module, StaticReport) {
    let unit = parse_and_check(name, src).expect("workload compiles");
    let mut module = lower_program(&unit.program, &unit.signatures);
    let report = AnalysisSession::builder().build().check_module(&module);
    parcoach_ir::opt::optimize_module(&mut module, 4);
    for f in &module.funcs {
        let _ = parcoach_ir::opt::allocate(f);
    }
    (module, report)
}

/// Stage 3: baseline + analysis + instrumentation (the "Warnings +
/// verification code generation" series). The inserted checks then flow
/// through the rest of the compilation like any other code.
pub fn compile_with_codegen(name: &str, src: &str) -> (Module, StaticReport) {
    let unit = parse_and_check(name, src).expect("workload compiles");
    let module = lower_program(&unit.program, &unit.signatures);
    let report = AnalysisSession::builder().build().check_module(&module);
    let (mut instrumented, _stats) = instrument_module(&module, &report, InstrumentMode::Selective);
    parcoach_ir::opt::optimize_module(&mut instrumented, 4);
    for f in &instrumented.funcs {
        let _ = parcoach_ir::opt::allocate(f);
    }
    (instrumented, report)
}

/// Lower a workload to its analysis-input IR (parse + sema + lower,
/// no optimizer) — the module shape the analysis session sees inside
/// the compile pipelines. Used by the static-phase micro-benches.
pub fn lower_workload(w: &parcoach_workloads::Workload) -> Module {
    let unit = parse_and_check(w.name, &w.source).expect("workload compiles");
    lower_program(&unit.program, &unit.signatures)
}

/// Per-phase static-analysis breakdown over `reps` repetitions (plus
/// one warm-up): element-wise **minimum** per phase — the least
/// noise-contaminated estimate of each phase's cost — with `total`
/// likewise the fastest end-to-end run.
pub fn static_phase_breakdown(
    module: &Module,
    session: &mut AnalysisSession,
    reps: usize,
) -> PhaseTimings {
    let _ = session.check_module(module); // warm-up
    let mut best: Option<PhaseTimings> = None;
    for _ in 0..reps.max(1) {
        let _r = session.check_module(module);
        let t = *session.timings().expect("check records timings");
        best = Some(match best {
            None => t,
            Some(b) => PhaseTimings {
                contexts: b.contexts.min(t.contexts),
                facts: b.facts.min(t.facts),
                mono: b.mono.min(t.mono),
                concurrency: b.concurrency.min(t.concurrency),
                matching: b.matching.min(t.matching),
                p2p: b.p2p.min(t.p2p),
                requests: b.requests.min(t.requests),
                total: b.total.min(t.total),
            },
        });
    }
    best.unwrap_or_default()
}

/// The measurement session the CI benches share: a 1-lane deterministic
/// pool (at `jobs = 1` the per-function phase sums equal wall time).
/// This is the *one* place the bench side configures a session.
pub fn bench_session() -> AnalysisSession {
    AnalysisSession::builder()
        .jobs(1)
        .deterministic(true)
        .seed(42)
        .build()
}

/// Timing statistics over repeated runs.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median (robust against scheduler noise; used for the tables).
    pub median: Duration,
    /// Minimum observed.
    pub min: Duration,
}

/// Measure `f` over `reps` repetitions (plus one warm-up).
pub fn measure(reps: usize, mut f: impl FnMut()) -> Timing {
    f(); // warm-up
    let mut samples = Vec::with_capacity(reps);
    let mut total = Duration::ZERO;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed();
        total += dt;
        samples.push(dt);
    }
    samples.sort_unstable();
    Timing {
        mean: total / reps as u32,
        median: samples[samples.len() / 2],
        min: samples[0],
    }
}

/// Percentage overhead of `b` relative to `a`.
pub fn overhead_pct(a: Duration, b: Duration) -> f64 {
    if a.is_zero() {
        return 0.0;
    }
    (b.as_secs_f64() / a.as_secs_f64() - 1.0) * 100.0
}

/// One row of the Figure-1 table.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Source lines.
    pub lines: usize,
    /// Baseline compile time.
    pub baseline: Duration,
    /// + warnings.
    pub warnings: Duration,
    /// + warnings + codegen.
    pub codegen: Duration,
    /// Overhead percentages.
    pub warnings_pct: f64,
    /// Overhead of the full pipeline.
    pub codegen_pct: f64,
}

/// Compile a whole suite concurrently — one pool task per workload,
/// full `compile_with_codegen` pipeline each. Results come back in
/// suite order regardless of scheduling. This is the throughput path
/// (CI gate, warm-ups); the *timed* Figure-1 samples below stay
/// sequential so the series are not measured under self-inflicted load.
pub fn compile_suite_concurrent(
    workloads: &[parcoach_workloads::Workload],
) -> Vec<(&'static str, Module, StaticReport)> {
    parcoach_pool::global().par_map(workloads, |w| {
        let (m, report) = compile_with_codegen(w.name, &w.source);
        (w.name, m, report)
    })
}

/// Compute the Figure-1 rows for a suite of workloads.
///
/// Samples of the three pipelines are *interleaved* (baseline, warnings,
/// codegen, baseline, …) so slow environmental drift (frequency scaling,
/// page-cache warm-up, noisy neighbours) hits all three series equally;
/// the reported value is the per-series median.
///
/// All workloads are warmed up concurrently first (compiling the suite
/// is embarrassingly parallel); the timed samples then run one at a
/// time.
pub fn figure1_rows(workloads: &[parcoach_workloads::Workload], reps: usize) -> Vec<Fig1Row> {
    // Warm-up all code paths and fault in every source, in parallel.
    let _ = compile_suite_concurrent(workloads);
    workloads
        .iter()
        .map(|w| {
            // Warm-up the remaining code paths of this workload.
            let _ = compile_baseline(w.name, &w.source);
            let _ = compile_with_warnings(w.name, &w.source);
            let mut base = Vec::with_capacity(reps);
            let mut warn = Vec::with_capacity(reps);
            let mut code = Vec::with_capacity(reps);
            for _ in 0..reps {
                let t0 = Instant::now();
                let _ = compile_baseline(w.name, &w.source);
                base.push(t0.elapsed());
                let t0 = Instant::now();
                let _ = compile_with_warnings(w.name, &w.source);
                warn.push(t0.elapsed());
                let t0 = Instant::now();
                let _ = compile_with_codegen(w.name, &w.source);
                code.push(t0.elapsed());
            }
            let median = |v: &mut Vec<Duration>| -> Duration {
                v.sort_unstable();
                v[v.len() / 2]
            };
            let (b, wn, cd) = (median(&mut base), median(&mut warn), median(&mut code));
            Fig1Row {
                name: w.name,
                lines: w.lines(),
                baseline: b,
                warnings: wn,
                codegen: cd,
                warnings_pct: overhead_pct(b, wn),
                codegen_pct: overhead_pct(b, cd),
            }
        })
        .collect()
}

/// Render Figure-1 rows as the text table printed by `bin/fig1`.
pub fn render_fig1(rows: &[Fig1Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 1 — overhead of average compilation time (PPoPP'15, Saillard et al.)\n");
    out.push_str(&format!(
        "{:<8} {:>7} {:>12} {:>12} {:>12} {:>11} {:>11}\n",
        "bench", "lines", "baseline", "warnings", "warn+code", "warn %", "code %"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>7} {:>12} {:>12} {:>12} {:>10.2}% {:>10.2}%\n",
            r.name,
            r.lines,
            format!("{:.2?}", r.baseline),
            format!("{:.2?}", r.warnings),
            format!("{:.2?}", r.codegen),
            r.warnings_pct,
            r.codegen_pct,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcoach_workloads::{figure1_suite, WorkloadClass};

    #[test]
    fn pipelines_run_on_every_workload() {
        for w in figure1_suite(WorkloadClass::A) {
            let (_u, m) = compile_baseline(w.name, &w.source);
            assert!(m.total_blocks() > 0);
            let (_m, report) = compile_with_warnings(w.name, &w.source);
            let (_instr, report2) = compile_with_codegen(w.name, &w.source);
            assert_eq!(report.warnings.len(), report2.warnings.len());
        }
    }

    #[test]
    fn phase_breakdown_covers_the_pipeline() {
        let suite = figure1_suite(WorkloadClass::A);
        let w = suite.iter().find(|w| w.name == "EPCC").unwrap();
        let m = lower_workload(w);
        let t = static_phase_breakdown(&m, &mut bench_session(), 3);
        assert!(t.total > Duration::ZERO);
        // The per-function phases all ran on a collective-rich workload.
        assert!(t.matching > Duration::ZERO);
        assert!(t.mono > Duration::ZERO);
        assert!(t.contexts > Duration::ZERO);
    }

    #[test]
    fn overhead_math() {
        let a = Duration::from_millis(100);
        let b = Duration::from_millis(106);
        assert!((overhead_pct(a, b) - 6.0).abs() < 0.01);
        assert_eq!(overhead_pct(Duration::ZERO, b), 0.0);
    }

    #[test]
    fn ordering_holds_on_tiny_suite() {
        // Warnings+codegen must cost at least as much as warnings, which
        // costs at least as much as baseline (monotone pipeline), up to
        // noise — check with generous tolerance on the min times.
        let suite = figure1_suite(WorkloadClass::A);
        let w = &suite[0];
        let base = measure(5, || {
            let _ = compile_baseline(w.name, &w.source);
        });
        let code = measure(5, || {
            let _ = compile_with_codegen(w.name, &w.source);
        });
        // Analysis now fans out over the global pool while the test
        // harness itself runs tests concurrently, so leave wide noise
        // margins — this guards against gross inversions only.
        assert!(
            code.min.as_secs_f64() > base.min.as_secs_f64() * 0.5,
            "full pipeline should not be faster than baseline: {base:?} vs {code:?}"
        );
    }

    #[test]
    fn render_contains_all_names() {
        let suite = figure1_suite(WorkloadClass::A);
        let rows = figure1_rows(&suite, 2);
        let table = render_fig1(&rows);
        for w in &suite {
            assert!(table.contains(w.name), "{table}");
        }
    }
}
