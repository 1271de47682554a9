//! The differential oracle: one generated module in, one observation
//! out — the static warning codes and the instrumented run's error
//! codes, gathered under a per-module watchdog.

use parcoach_interp::{prepare, Executor, RunConfig};
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
    /// recorded as the synthetic dynamic code `hang` (as is a run that
    /// panicked).
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
/// verify → analyze → instrument (selective), then execute under the
/// watchdog.
pub fn observe(name: &str, src: &str, cfg: &OracleConfig) -> OracleOutcome {
    let (report, instrumented) = match prepare(name, src, true) {
        Ok(x) => x,
        Err(diags) => return OracleOutcome::Invalid(diags),
    };
    let mut static_codes: Vec<String> = report
        .warnings
        .iter()
        .map(|w| w.kind.code().to_string())
        .collect();
    static_codes.sort_unstable();
    static_codes.dedup();

    let run_cfg = RunConfig::fast_fail(cfg.ranks, cfg.threads);
    let mut dyn_codes: Vec<String> =
        match Executor::new(instrumented, run_cfg).run_within(cfg.watchdog) {
            Ok(run) => run
                .errors
                .iter()
                .map(|e| e.kind.code().to_string())
                .collect(),
            Err(_) => vec!["hang".to_string()],
        };
    dyn_codes.sort_unstable();
    dyn_codes.dedup();
    OracleOutcome::Valid(Observation {
        static_codes,
        dyn_codes,
    })
}
