//! # parcoach-interp — hybrid executor with dynamic verification
//!
//! Runs lowered MiniHPC modules: MPI ranks are threads over the
//! `parcoach-mpisim` world; `parallel` regions fork real teams on the
//! `parcoach-ompsim` substrate; PARCOACH instrumentation
//! (`CC` color all-reduce, monothread asserts, concurrency counters —
//! inserted by `parcoach-core`) executes in-line, "stopping program
//! execution as soon as [an error] situation is unavoidable" (paper §1)
//! with the error type and source location.
//!
//! ```
//! use parcoach_front::parse_and_check;
//! use parcoach_ir::lower::lower_program;
//! use parcoach_interp::{Executor, RunConfig};
//!
//! let unit = parse_and_check("demo.mh", r#"
//!     fn main() {
//!         MPI_Init();
//!         let sum = MPI_Allreduce(rank() + 1, SUM);
//!         print(sum);
//!         MPI_Finalize();
//!     }
//! "#).unwrap();
//! let module = lower_program(&unit.program, &unit.signatures);
//! let report = Executor::new(module, RunConfig { ranks: 3, ..Default::default() }).run();
//! assert!(report.is_clean());
//! assert!(report.output.iter().all(|l| l.contains("6"))); // 1+2+3
//! ```

pub mod error;
pub mod exec;

pub use error::{RunError, RunErrorKind, RunReport, RunStats};
pub use exec::{Executor, NoReport, RunConfig};
pub use parcoach_ompsim::MAX_THREADS;

use parcoach_core::{instrument_module, AnalysisSession, InstrumentMode, StaticReport};
use parcoach_front::parse_and_check;
use parcoach_ir::lower::lower_program;
use parcoach_ir::Module;

/// The compile half of [`check_and_run`]: parse, check, lower, verify,
/// analyze and (when `instrument`) instrument selectively. Returns the
/// static report and the module to run, or the rendered diagnostics.
pub fn prepare(name: &str, src: &str, instrument: bool) -> Result<(StaticReport, Module), String> {
    let unit = parse_and_check(name, src).map_err(|(diags, sm)| diags.render(&sm))?;
    let module = lower_program(&unit.program, &unit.signatures);
    let verify = parcoach_ir::verify_module(&module);
    if !verify.is_empty() {
        return Err(format!("IR verification failed: {verify:?}"));
    }
    let report = AnalysisSession::builder().build().check_module(&module);
    let module = if instrument {
        instrument_module(&module, &report, InstrumentMode::Selective).0
    } else {
        module
    };
    Ok((report, module))
}

/// End-to-end convenience: [`prepare`], then run.
///
/// Returns the static report alongside the run report so callers can
/// correlate "what was predicted" with "what happened".
pub fn check_and_run(
    name: &str,
    src: &str,
    cfg: RunConfig,
    instrument: bool,
) -> Result<(StaticReport, RunReport), String> {
    let (report, module) = prepare(name, src, instrument)?;
    Ok((report, Executor::new(module, cfg).run()))
}
