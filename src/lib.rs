//! # parcoach — facade crate
//!
//! Re-exports the public API of the PARCOACH-hybrid reproduction so that
//! examples, integration tests and downstream users need a single
//! dependency. See `README.md` for the architecture and `DESIGN.md` for
//! the paper-to-crate mapping.

pub use parcoach_core as analysis;
pub use parcoach_front as front;
pub use parcoach_interp as interp;
pub use parcoach_ir as ir;
pub use parcoach_mpisim as mpisim;
pub use parcoach_ompsim as ompsim;
pub use parcoach_workloads as workloads;
