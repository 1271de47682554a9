//! The differential oracle: one generated module in, one observation
//! out — the static warning codes and the instrumented run's error
//! codes, gathered under a per-module watchdog.

use parcoach_core::{instrument_module, AnalysisSession, InstrumentMode};
use parcoach_front::parse_and_check;
use parcoach_interp::{Executor, RunConfig};
use parcoach_ir::lower::lower_program;
use parcoach_ir::Module;
use std::sync::mpsc;
use std::time::Duration;

/// Oracle knobs. The defaults match the catalogue's detection runs
/// (2 ranks × 2 threads, fast-fail timeouts) plus a per-module watchdog
/// an order of magnitude above the worst expected case.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Simulated MPI ranks.
    pub ranks: usize,
    /// Default team width for `parallel` regions.
    pub threads: usize,
    /// Hard wall-clock cap per module; a run that exceeds it is
    /// recorded as the synthetic dynamic code `hang`.
    pub watchdog: Duration,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            ranks: 2,
            threads: 2,
            watchdog: Duration::from_secs(10),
        }
    }
}

/// What the two sides said about one module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Static warning codes, sorted and deduplicated.
    pub static_codes: Vec<String>,
    /// Dynamic error codes of the instrumented run, sorted and
    /// deduplicated; the synthetic code `hang` when the watchdog fired.
    pub dyn_codes: Vec<String>,
}

/// Oracle verdict: a valid module's observation, or the compile error.
/// An invalid module is a **generator bug**, never a disagreement — the
/// campaign counts these separately and the CI gate fails on any.
#[derive(Debug, Clone)]
pub enum OracleOutcome {
    /// The module compiled; here is what both sides said.
    Valid(Observation),
    /// Parse/type/lowering/verification failure (rendered diagnostics).
    Invalid(String),
}

/// Run the full differential pipeline on one module: parse → lower →
/// verify → analyze → instrument (selective) → execute under the
/// watchdog. The module is lowered exactly once; the static and
/// instrumented phases both work from that lowering via
/// [`observe_module`].
pub fn observe(name: &str, src: &str, cfg: &OracleConfig) -> OracleOutcome {
    let unit = match parse_and_check(name, src) {
        Ok(u) => u,
        Err((diags, sm)) => return OracleOutcome::Invalid(diags.render(&sm)),
    };
    let module = lower_program(&unit.program, &unit.signatures);
    let verify = parcoach_ir::verify_module(&module);
    if !verify.is_empty() {
        return OracleOutcome::Invalid(format!("IR verification failed: {verify:?}"));
    }
    OracleOutcome::Valid(observe_module(&module, cfg))
}

/// The post-frontend half of [`observe`]: static analysis, selective
/// instrumentation and the watchdogged execution of one already-lowered
/// (and verified) module. Callers that hold a lowered module — the
/// micro-benchmarks, batched replays — skip the parse entirely.
pub fn observe_module(module: &Module, cfg: &OracleConfig) -> Observation {
    let report = AnalysisSession::builder().build().check_module(module);
    let mut static_codes: Vec<String> = report
        .warnings
        .iter()
        .map(|w| w.kind.code().to_string())
        .collect();
    static_codes.sort_unstable();
    static_codes.dedup();

    let (instrumented, _stats) = instrument_module(module, &report, InstrumentMode::Selective);
    let run_cfg = RunConfig::fast_fail(cfg.ranks, cfg.threads);
    // The executor joins its rank threads before returning, so a stuck
    // schedule would stall the campaign without this watchdog. The run
    // is dispatched to a parked cache worker instead of a fresh OS
    // thread — the steady-state campaign pays zero thread spawns — and
    // on timeout the worker is abandoned, not the thread: if the run
    // ever finishes, the worker re-parks and serves later modules.
    let (tx, rx) = mpsc::channel();
    parcoach_pool::thread_cache().spawn(move || {
        let _ = tx.send(Executor::new(instrumented, run_cfg).run());
    });
    let mut dyn_codes: Vec<String> = match rx.recv_timeout(cfg.watchdog) {
        Ok(run) => run
            .errors
            .iter()
            .map(|e| e.kind.code().to_string())
            .collect(),
        Err(_) => vec!["hang".to_string()],
    };
    dyn_codes.sort_unstable();
    dyn_codes.dedup();
    Observation {
        static_codes,
        dyn_codes,
    }
}
