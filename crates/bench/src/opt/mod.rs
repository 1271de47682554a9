//! Optimization and back-end passes — the "rest of the compiler" that
//! gives the Figure-1 baseline its realistic weight (see DESIGN.md §2:
//! the paper measures analysis overhead relative to a *full* GCC
//! compilation, so the reproduction needs a non-trivial compilation
//! pipeline to be overhead-comparable). Only the Figure-1 pipelines run
//! it, so it lives here and not in `parcoach-ir`: the shipped binaries
//! never compile it.

pub mod bitset;
pub mod codegen;
pub mod liveness;
pub mod passes;
pub mod usedef;

pub use codegen::allocate;
pub use passes::optimize_module;
