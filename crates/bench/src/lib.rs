//! # parcoach-bench — harness regenerating the paper's evaluation
//!
//! The paper's evaluation makes two claims. **Figure 1**: the overhead
//! of average compilation time, with two series — "Warnings" (static
//! analysis only) and "Warnings + verification code generation"
//! (analysis + instrumentation) — over BT-MZ, SP-MZ, LU-MZ, the EPCC
//! suite and HERA, stays small. And the inserted checks add little run
//! time.
//!
//! This crate provides the three compilation pipelines being compared,
//! the optimizer and register allocator that give the baseline its
//! weight ([`opt`]), and [`figure1_rows`], the one measurement of
//! Figure 1: the `fig1` bin prints its table and `bench_ci` gates its
//! ratios next to the run-time overhead of the checks (see
//! EXPERIMENTS.md E1, E4 and E9). [`detection`] is the one pass over the
//! error catalogue (E3) that the `detection_table` bin, `bench_ci` and
//! the end-to-end test share.

pub mod opt;

use parcoach_core::{
    instrument_module, AnalysisSession, InstrumentMode, PhaseTimings, StaticReport,
};
use parcoach_front::parse_and_check;
use parcoach_front::CheckedUnit;
use parcoach_interp::{prepare, Executor, NoReport, RunConfig, RunReport};
use parcoach_ir::lower::lower_program;
use parcoach_ir::Module;
use parcoach_workloads::{error_catalogue, ErrorCase, Workload, WorkloadClass};
use std::process::ExitCode;
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
    opt::optimize_module(&mut module, 4);
    for f in &module.funcs {
        let _ = opt::allocate(f);
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
    opt::optimize_module(&mut module, 4);
    for f in &module.funcs {
        let _ = opt::allocate(f);
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
    opt::optimize_module(&mut instrumented, 4);
    for f in &instrumented.funcs {
        let _ = opt::allocate(f);
    }
    (instrumented, report)
}

/// Lower a workload to its analysis-input IR (parse + sema + lower,
/// no optimizer) — the module shape the analysis session sees inside
/// the compile pipelines.
pub fn lower_workload(w: &Workload) -> Module {
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

/// The fastest of `reps` runs of `f` (after one warm-up): the least
/// noise-contaminated estimate of a deterministic computation.
pub fn measure(reps: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .unwrap_or_default()
}

/// `instrumented` ÷ `plain` × 1000, rounded: the unit of every
/// `_overhead_x1000` row (1 000 is no overhead, 1 060 is +6 %).
pub fn overhead_x1000(plain: Duration, instrumented: Duration) -> u64 {
    let plain = plain.as_nanos().max(1);
    ((instrumented.as_nanos() * 1000 + plain / 2) / plain) as u64
}

/// One row of the Figure-1 table.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Source lines.
    pub lines: usize,
    /// Samples of the baseline pipeline, sorted.
    pub base: Vec<Duration>,
    /// Samples of the +warnings pipeline, sorted.
    pub warn: Vec<Duration>,
    /// Samples of the +warnings +codegen pipeline, sorted.
    pub code: Vec<Duration>,
    /// Median of `base`.
    pub baseline: Duration,
    /// Median of `warn`.
    pub warnings: Duration,
    /// Median of `code`.
    pub codegen: Duration,
    /// [`overhead_x1000`] of `warnings` over `baseline`.
    pub warn_overhead_x1000: u64,
    /// [`overhead_x1000`] of `codegen` over `baseline`.
    pub code_overhead_x1000: u64,
}

/// Compute the Figure-1 rows for a suite of workloads, `reps` ≥ 1
/// samples per pipeline.
///
/// Samples of the three pipelines are *interleaved* (baseline, warnings,
/// codegen, baseline, …) so slow environmental drift (frequency scaling,
/// page-cache warm-up, noisy neighbours) hits all three series equally;
/// the reported value is the per-series median. Each workload warms up
/// all three pipelines once before its timed samples.
pub fn figure1_rows(workloads: &[Workload], reps: usize) -> Vec<Fig1Row> {
    assert!(reps > 0, "figure1_rows needs at least one repetition");
    workloads
        .iter()
        .map(|w| {
            let _ = compile_baseline(w.name, &w.source);
            let _ = compile_with_warnings(w.name, &w.source);
            let _ = compile_with_codegen(w.name, &w.source);
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
            let (baseline, warnings, codegen) =
                (median(&mut base), median(&mut warn), median(&mut code));
            Fig1Row {
                name: w.name,
                lines: w.lines(),
                base,
                warn,
                code,
                baseline,
                warnings,
                codegen,
                warn_overhead_x1000: overhead_x1000(baseline, warnings),
                code_overhead_x1000: overhead_x1000(baseline, codegen),
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
    let pct = |x1000: u64| (x1000 as f64 - 1000.0) / 10.0;
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>7} {:>12} {:>12} {:>12} {:>10.1}% {:>10.1}%\n",
            r.name,
            r.lines,
            format!("{:.2?}", r.baseline),
            format!("{:.2?}", r.warnings),
            format!("{:.2?}", r.codegen),
            pct(r.warn_overhead_x1000),
            pct(r.code_overhead_x1000),
        ));
    }
    out
}

/// Wall-clock watchdog per catalogue case in [`detection`]. Every case
/// resolves in well under a second (the deadlocking ones via the
/// liveness census / wait-for graph, not timeouts); a case still
/// running after this long has regressed into a real hang, and fails
/// by name in seconds instead of stalling the caller.
pub const CASE_WATCHDOG: Duration = Duration::from_secs(20);

/// How one catalogue case's instrumented run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// The run finished with this report.
    Ran(RunReport),
    /// Still running after [`CASE_WATCHDOG`].
    Hung,
    /// The run panicked before producing its report.
    Panicked,
    /// The case did not compile (rendered diagnostics).
    CompileError(String),
}

/// One catalogue case's verdict (experiment E3).
#[derive(Debug)]
pub struct Detection {
    /// The case, with its expectations.
    pub case: ErrorCase,
    /// Static warning codes, sorted and deduplicated.
    pub static_codes: Vec<&'static str>,
    /// What the instrumented run did.
    pub outcome: RunOutcome,
    /// Both the static report and the run met the case's expectations.
    pub ok: bool,
}

/// The catalogue's detection matrix: every case whose id contains one of
/// `filters` (every case when there is none), compiled and instrumented,
/// run at 2 ranks × 4 threads with fast-fail timeouts under
/// [`CASE_WATCHDOG`], and judged against its expectations, in catalogue
/// order. The `detection_table` bin prints it, `bench_ci` times it and
/// the end-to-end test asserts on it.
pub fn detection(filters: &[&str]) -> Vec<Detection> {
    error_catalogue()
        .into_iter()
        .filter(|case| filters.is_empty() || filters.iter().any(|f| case.id.contains(f)))
        .map(|case| {
            let (report, module) = match prepare(case.id, &case.source, true) {
                Ok(x) => x,
                Err(e) => {
                    return Detection {
                        case,
                        static_codes: Vec::new(),
                        outcome: RunOutcome::CompileError(e),
                        ok: false,
                    }
                }
            };
            let mut static_codes: Vec<&'static str> =
                report.warnings.iter().map(|w| w.kind.code()).collect();
            static_codes.sort_unstable();
            static_codes.dedup();
            let outcome =
                match Executor::new(module, RunConfig::fast_fail(2, 4)).run_within(CASE_WATCHDOG) {
                    Ok(run) => RunOutcome::Ran(run),
                    Err(NoReport::TimedOut) => RunOutcome::Hung,
                    Err(NoReport::Panicked) => RunOutcome::Panicked,
                };
            let ok = case.expect_static.holds(&report)
                && matches!(&outcome, RunOutcome::Ran(run)
                    if case.expect_dynamic.holds(!run.is_clean(), run.detected_by_check()));
            Detection {
                case,
                static_codes,
                outcome,
                ok,
            }
        })
        .collect()
}

/// The workload class a table bin was asked for: `A`, `B` or `C`, and
/// class B (the paper's) when absent.
pub fn parse_class(arg: Option<&str>) -> Result<WorkloadClass, String> {
    match arg {
        Some("A") => Ok(WorkloadClass::A),
        None | Some("B") => Ok(WorkloadClass::B),
        Some("C") => Ok(WorkloadClass::C),
        Some(other) => Err(format!("unknown class `{other}` (expected A, B or C)")),
    }
}

/// Print `msg` and a bin's usage line to stderr and exit with 3, the
/// workspace's usage code.
pub fn usage_exit(usage: &str, msg: &str) -> ExitCode {
    eprintln!("{msg}\nusage: {usage}");
    ExitCode::from(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcoach_workloads::figure1_suite;

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
        let t = static_phase_breakdown(&m, &mut AnalysisSession::default(), 3);
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
        assert_eq!(overhead_x1000(a, b), 1060);
        assert_eq!(overhead_x1000(b, a), 943);
        assert_eq!(overhead_x1000(a, a), 1000);
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
        // The test harness runs tests concurrently, so leave wide noise
        // margins — this guards against gross inversions only.
        assert!(
            code.as_secs_f64() > base.as_secs_f64() * 0.5,
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

    #[test]
    fn overheads_come_from_the_rows_own_samples() {
        let suite = figure1_suite(WorkloadClass::A);
        for r in figure1_rows(&suite, 3) {
            let median = |v: &[Duration]| {
                let mut v = v.to_vec();
                v.sort_unstable();
                v[v.len() / 2]
            };
            assert_eq!([r.base.len(), r.warn.len(), r.code.len()], [3; 3]);
            let (b, w, c) = (median(&r.base), median(&r.warn), median(&r.code));
            assert_eq!((r.baseline, r.warnings, r.codegen), (b, w, c), "{}", r.name);
            assert_eq!(r.warn_overhead_x1000, overhead_x1000(b, w), "{}", r.name);
            assert_eq!(r.code_overhead_x1000, overhead_x1000(b, c), "{}", r.name);
        }
    }
}
