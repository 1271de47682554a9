//! # parcoach-core — static/dynamic validation of MPI collectives in
//! multi-threaded context
//!
//! The paper's contribution, reimplemented over the `parcoach-ir` CFG:
//!
//! 1. **Monothread contexts** (`mono`): every collective's parallelism
//!    word ([`word`], [`pw`]) must lie in `L = (S|PB*S)*` ([`lang`]).
//! 2. **Sequential order** (`concurrency`): no two collective-bearing
//!    monothreaded regions may run concurrently (`pw = w·S_j·u` vs
//!    `w·S_k·v`, `j ≠ k`), nor a region with itself across loop
//!    iterations.
//! 3. **Inter-process matching** (`matching`): PARCOACH's Algorithm 1 —
//!    iterated post-dominance frontiers of collective sites find the
//!    conditionals that can desynchronize processes.
//!
//! The phases produce a [`report::StaticReport`] with typed warnings and
//! an instrumentation plan; [`instrument`] materializes the plan as
//! in-IR dynamic checks (`CC` color all-reduce, monothread asserts,
//! concurrency counters) that `parcoach-interp` executes.
//!
//! ```
//! use parcoach_front::parse_and_check;
//! use parcoach_ir::lower::lower_program;
//! use parcoach_core::{AnalysisSession, instrument_module, InstrumentMode};
//!
//! let unit = parse_and_check("demo.mh",
//!     "fn main() { if (rank() == 0) { MPI_Barrier(); } }").unwrap();
//! let module = lower_program(&unit.program, &unit.signatures);
//! let report = AnalysisSession::builder().build().check_module(&module);
//! assert_eq!(report.warnings.len(), 1); // collective mismatch
//! let (instrumented, stats) = instrument_module(&module, &report, InstrumentMode::Selective);
//! assert!(stats.cc_collective > 0);
//! assert!(parcoach_ir::verify_module(&instrumented).is_empty());
//! ```

pub mod cancel;
pub mod comm;
pub mod concurrency;
pub mod context;
pub mod facts;
pub mod handle;
pub mod instrument;
pub mod lang;
pub mod matching;
pub mod mono;
pub mod p2p;
pub mod pipeline;
pub mod pw;
pub mod query;
pub mod report;
pub mod request;
pub mod session;
pub mod word;

pub use cancel::{CancelToken, Cancelled};
pub use comm::{CommDef, CommId};
pub use context::{compute_contexts, CallContexts};
pub use facts::{AnalysisCx, FuncFacts};
pub use handle::{compute_handles, ClassTable, ModuleHandles};
pub use instrument::{instrument_module, InstrumentMode, InstrumentStats};
pub use lang::{classify, ContextClass, MonoVerdict};
pub use pipeline::{AnalysisOptions, PhaseTimings};
pub use pw::{compute_pw, InitialContext, PwResult};
pub use query::{QueryDb, QueryStats};
pub use report::{FuncPlan, InstrumentationPlan, StaticReport, StaticWarning, WarningKind};
pub use request::{ReqDef, ReqId};
pub use session::{AnalysisSession, AnalysisSessionBuilder};
pub use word::{SKind, Token, Word, WordDag, WordNode};
