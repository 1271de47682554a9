//! # parcoach-ir — CFG intermediate representation
//!
//! Lowers checked MiniHPC programs to the control-flow-graph form the
//! paper's analysis operates on (§2):
//!
//! * three-address instructions over virtual registers;
//! * **every OpenMP directive in its own basic block** and **explicit
//!   nodes for implicit barriers** — the two CFG modifications the paper
//!   makes on top of the original PARCOACH;
//! * dominator / post-dominator trees, dominance frontiers and the
//!   iterated post-dominance frontier used by PARCOACH's Algorithm 1;
//! * natural-loop info for the self-concurrency check;
//! * a structural verifier and Graphviz export.
//!
//! ```
//! use parcoach_front::parse_and_check;
//! use parcoach_ir::{lower::lower_program, dom::PostDomTree};
//!
//! let unit = parse_and_check("t.mh", "fn main() { if (rank() == 0) { MPI_Barrier(); } }")
//!     .expect("valid");
//! let module = lower_program(&unit.program, &unit.signatures);
//! let main = module.main().unwrap();
//! let pdt = PostDomTree::compute(main, &main.predecessors());
//! let collectives = main.collective_blocks();
//! // The conditional on rank() shows up in the iterated PDF:
//! assert!(!pdt.iterated_frontier(main, &collectives).is_empty());
//! ```

pub mod dom;
pub mod dot;
pub mod edit;
pub mod func;
pub mod graph;
pub mod instr;
pub mod loops;
pub mod lower;
pub mod opt;
pub mod types;
pub mod verify;

pub use dom::{DomTree, PostDomTree};
pub use edit::shift_spans;
pub use func::{BasicBlock, FuncIr, Module};
pub use instr::{BlockKind, CheckOp, Directive, Instr, MpiIr, Terminator, WorkshareKind};
pub use loops::{LoopInfo, NaturalLoop};
pub use lower::lower_program;
pub use types::{BlockId, Const, Reg, RegionId, Value};
pub use verify::{verify_func, verify_module, VerifyError};
