//! IR instructions, directives and terminators.
//!
//! The IR follows the CFG shape the paper constructs in §2: ordinary
//! straight-line code lives in `Normal` blocks; every OpenMP directive
//! occupies a dedicated block ([`BlockKind::Directive`]); implicit thread
//! barriers get their own explicit nodes ([`Directive::Barrier`] with
//! `implicit = true`).

use crate::types::{BlockId, Reg, RegionId, Value};
/// An MPI operation; the IR holds `MpiOp<Value>`, the AST's type with
/// registers and constants for operands.
pub use parcoach_front::ast::MpiOp;
use parcoach_front::ast::{BinOp, CollectiveKind, Intrinsic, Type, UnOp};
use std::fmt;

/// Dynamic checks inserted by the PARCOACH instrumentation pass (§3 of the
/// paper). They are ordinary instructions so the executor runs them
/// in-line; an un-instrumented program contains none of them. A check's
/// span, beside it in [`FuncIr::instrs`](crate::FuncIr::instrs), is the
/// source location of what it guards (none for [`CheckOp::ConcExit`]).
#[derive(Debug, Clone, PartialEq)]
pub enum CheckOp {
    /// The `CC` collective-verification call placed *before* an MPI
    /// collective (including the communicator-management collectives):
    /// control all-reduce of `color` over the guarded collective's
    /// communicator; mismatch aborts.
    CollectiveCc {
        /// Color communicated ([`MpiOp::synchronizes`]).
        color: u32,
        /// Communicator of the guarded collective (None = world). The CC
        /// runs on the *same* communicator so collectives on unrelated
        /// communicators can never be compared against each other.
        comm: Option<Value>,
    },
    /// The `CC` call placed before `return` statements (color 0) so ranks
    /// that leave the function while others still expect collectives are
    /// caught. Wrapped in `single` semantics when in a parallel region.
    ReturnCc {
        /// Site id, dense across the module's return `CC`s: the
        /// `single` region a team runs it in.
        site: u32,
    },
    /// Verify the executing context is monothreaded (inserted at `S_ipw`
    /// nodes — collectives, including communicator management, whose
    /// parallelism word could not be proven in `L` statically).
    AssertMonothread {
        /// MPI name of the guarded operation (for error messages).
        what: &'static str,
        /// Site id, dense across the module's asserts: which member of a
        /// team reached it first is recorded per site.
        site: u32,
    },
    /// Concurrency counter entry for an `S_cc` node (possibly-concurrent
    /// monothreaded region containing collectives). Aborts when two
    /// regions with the same `site` are active simultaneously.
    ConcEnter {
        /// Static site id (one per region pair detected).
        site: u32,
    },
    /// Concurrency counter exit, matching [`CheckOp::ConcEnter`].
    ConcExit {
        /// Static site id.
        site: u32,
    },
    /// Point-to-point epoch census, placed before `MPI_Finalize` in
    /// functions with suspect p2p traffic: a control collective
    /// exchanging the per-communicator send/receive counters (the
    /// paper's `CC` protocol extended to point-to-point; the epoch ends
    /// at the communicator's final synchronization point, where all
    /// buffered traffic must have been received). Unbalanced totals
    /// abort with the per-communicator counts.
    P2pEpoch,
}

/// A straight-line instruction. Its source span sits beside it in
/// [`FuncIr::instrs`](crate::FuncIr::instrs) — where a division by zero
/// or a bounds error is reported, and, for an MPI operation, the line the
/// paper's warnings and run-time error messages cite. An instruction with
/// no source position of its own (a copy, an intrinsic, a print) has
/// [`Span::DUMMY`](parcoach_front::span::Span::DUMMY) there.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dest = src` (src may be a constant).
    Copy {
        /// Destination register.
        dest: Reg,
        /// Source operand.
        src: Value,
    },
    /// `dest = op src`.
    Unary {
        /// Destination.
        dest: Reg,
        /// Operator.
        op: UnOp,
        /// Operand.
        src: Value,
    },
    /// `dest = lhs op rhs`.
    Binary {
        /// Destination.
        dest: Reg,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// `dest = array(len, init)`.
    ArrayNew {
        /// Destination.
        dest: Reg,
        /// Element count.
        len: Value,
        /// Fill value.
        init: Value,
        /// Element type.
        elem: Type,
    },
    /// `dest = arr[idx]`.
    Load {
        /// Destination.
        dest: Reg,
        /// Array register.
        arr: Reg,
        /// Index operand.
        idx: Value,
    },
    /// `arr[idx] = value`.
    Store {
        /// Array register.
        arr: Reg,
        /// Index operand.
        idx: Value,
        /// Stored value.
        value: Value,
    },
    /// `dest = intrinsic(args…)` for pure intrinsics (`sqrt`, `len`, …)
    /// and runtime queries (`rank`, `thread_num`, …).
    Intrinsic {
        /// Destination.
        dest: Reg,
        /// Which intrinsic.
        intr: Intrinsic,
        /// Arguments.
        args: Vec<Value>,
    },
    /// Call a user function.
    Call {
        /// Destination (None for void functions).
        dest: Option<Reg>,
        /// The callee: an index into [`Module::funcs`](crate::Module::funcs).
        callee: usize,
        /// Arguments.
        args: Vec<Value>,
    },
    /// An MPI operation.
    Mpi {
        /// Destination (None for void ops).
        dest: Option<Reg>,
        /// The operation.
        op: MpiOp<Value>,
    },
    /// `print(args…)`.
    Print {
        /// Values to print.
        args: Vec<Value>,
    },
    /// A dynamic verification check (instrumentation only).
    Check(CheckOp),
}

impl Instr {
    /// Destination register written by this instruction, if any.
    pub fn dest(&self) -> Option<Reg> {
        match self {
            Instr::Copy { dest, .. }
            | Instr::Unary { dest, .. }
            | Instr::Binary { dest, .. }
            | Instr::ArrayNew { dest, .. }
            | Instr::Load { dest, .. }
            | Instr::Intrinsic { dest, .. } => Some(*dest),
            Instr::Call { dest, .. } | Instr::Mpi { dest, .. } => *dest,
            Instr::Store { .. } | Instr::Print { .. } | Instr::Check(_) => None,
        }
    }

    /// The collective kind if this instruction is an MPI collective.
    pub fn collective_kind(&self) -> Option<CollectiveKind> {
        match self {
            Instr::Mpi { op, .. } => op.collective_kind(),
            _ => None,
        }
    }
}

/// The OpenMP-model work-sharing flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkshareKind {
    /// `pfor` — iterations divided among the team.
    PFor,
    /// `sections` — each section given to one thread.
    Sections,
}

/// OpenMP directives. Each directive occupies its own basic block
/// ([`BlockKind::Directive`]), exactly as the paper's modified CFG does;
/// the block's span is the construct's.
#[derive(Debug, Clone, PartialEq)]
pub enum Directive {
    /// Fork a team. Runtime: threads of the new team each execute the
    /// successor subgraph; the matching [`Directive::ParallelEnd`] joins.
    ParallelBegin {
        /// Region instance id (the `i` of `P_i`).
        region: RegionId,
        /// Requested team size (None → runtime default).
        num_threads: Option<Value>,
    },
    /// Join the team forked by the matching begin.
    ParallelEnd {
        /// Matching region id.
        region: RegionId,
    },
    /// `single` entry. Runtime: writes `true` into `chosen` for exactly
    /// one thread of the team; the block's terminator branches on it.
    SingleBegin {
        /// Region instance id (the `i` of `S_i`).
        region: RegionId,
        /// Whether the trailing implicit barrier is suppressed.
        nowait: bool,
        /// Receives "this thread executes the region".
        chosen: Reg,
    },
    /// `single` exit (before the implicit barrier, if any).
    SingleEnd {
        /// Matching region id.
        region: RegionId,
    },
    /// `master` entry: `chosen = (thread_num() == 0)`. No barrier at end.
    MasterBegin {
        /// Region instance id (an `S_i` token, like single).
        region: RegionId,
        /// Receives "this thread is the master".
        chosen: Reg,
    },
    /// `master` exit.
    MasterEnd {
        /// Matching region id.
        region: RegionId,
    },
    /// `critical` entry: acquires the (global) critical lock.
    CriticalBegin {
        /// Region instance id.
        region: RegionId,
    },
    /// `critical` exit: releases the lock.
    CriticalEnd {
        /// Matching region id.
        region: RegionId,
    },
    /// Work-sharing entry (pfor / sections).
    WorkshareBegin {
        /// Region instance id.
        region: RegionId,
        /// Flavour.
        kind: WorkshareKind,
        /// Whether the trailing implicit barrier is suppressed.
        nowait: bool,
    },
    /// Work-sharing exit (before the implicit barrier, if any).
    WorkshareEnd {
        /// Matching region id.
        region: RegionId,
    },
    /// `pfor` chunk setup: assigns this thread's first iteration to `var`
    /// and its end bound to `chunk_end`, from the full range `[lo, hi)`.
    PForInit {
        /// Owning workshare region.
        region: RegionId,
        /// Loop variable register.
        var: Reg,
        /// This thread's chunk end.
        chunk_end: Reg,
        /// Full-range lower bound.
        lo: Value,
        /// Full-range upper bound.
        hi: Value,
    },
    /// `sections` dispatch for one section: `chosen = (section `index`
    /// assigned to this thread)`. Each section is its own
    /// single-threaded region (an `S_i` token, like `single`): exactly
    /// one thread executes it, and sibling sections may run concurrently.
    SectionBegin {
        /// This section's own region id (the `i` of its `S_i` token).
        region: RegionId,
        /// The owning `sections` workshare region.
        parent: RegionId,
        /// Zero-based section index.
        index: u32,
        /// Receives "this thread runs the section".
        chosen: Reg,
    },
    /// End of one section body (pops the section's `S_i`).
    SectionEnd {
        /// Matching section region id.
        region: RegionId,
    },
    /// A thread barrier. `implicit` distinguishes the barrier nodes the
    /// lowering adds at region ends from source-level `barrier;`.
    Barrier {
        /// True for barriers synthesized at region ends.
        implicit: bool,
        /// The region whose end generated it (None for explicit).
        region: Option<RegionId>,
    },
}

impl Directive {
    /// The region id this directive belongs to, if any.
    pub fn region(&self) -> Option<RegionId> {
        match self {
            Directive::ParallelBegin { region, .. }
            | Directive::ParallelEnd { region }
            | Directive::SingleBegin { region, .. }
            | Directive::SingleEnd { region }
            | Directive::MasterBegin { region, .. }
            | Directive::MasterEnd { region }
            | Directive::CriticalBegin { region, .. }
            | Directive::CriticalEnd { region }
            | Directive::WorkshareBegin { region, .. }
            | Directive::WorkshareEnd { region }
            | Directive::PForInit { region, .. }
            | Directive::SectionBegin { region, .. }
            | Directive::SectionEnd { region } => Some(*region),
            Directive::Barrier { region, .. } => *region,
        }
    }

    /// Short mnemonic for display / DOT output.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Directive::ParallelBegin { .. } => "parallel.begin",
            Directive::ParallelEnd { .. } => "parallel.end",
            Directive::SingleBegin { .. } => "single.begin",
            Directive::SingleEnd { .. } => "single.end",
            Directive::MasterBegin { .. } => "master.begin",
            Directive::MasterEnd { .. } => "master.end",
            Directive::CriticalBegin { .. } => "critical.begin",
            Directive::CriticalEnd { .. } => "critical.end",
            Directive::WorkshareBegin { .. } => "workshare.begin",
            Directive::WorkshareEnd { .. } => "workshare.end",
            Directive::PForInit { .. } => "pfor.init",
            Directive::SectionBegin { .. } => "section.begin",
            Directive::SectionEnd { .. } => "section.end",
            Directive::Barrier { implicit: true, .. } => "barrier.implicit",
            Directive::Barrier {
                implicit: false, ..
            } => "barrier",
        }
    }

    /// True for `*Begin` directives that open a region.
    pub fn opens_region(&self) -> bool {
        matches!(
            self,
            Directive::ParallelBegin { .. }
                | Directive::SingleBegin { .. }
                | Directive::MasterBegin { .. }
                | Directive::CriticalBegin { .. }
                | Directive::WorkshareBegin { .. }
                | Directive::SectionBegin { .. }
        )
    }

    /// True for `*End` directives that close a region.
    pub fn closes_region(&self) -> bool {
        matches!(
            self,
            Directive::ParallelEnd { .. }
                | Directive::SingleEnd { .. }
                | Directive::MasterEnd { .. }
                | Directive::CriticalEnd { .. }
                | Directive::WorkshareEnd { .. }
                | Directive::SectionEnd { .. }
        )
    }
}

/// What a basic block *is*: ordinary code or a directive node.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockKind {
    /// Ordinary straight-line code.
    Normal,
    /// An OpenMP directive node (paper: "OpenMP directives are put into
    /// separate basic blocks").
    Directive(Directive),
}

impl BlockKind {
    /// The directive, if this is a directive block.
    pub fn directive(&self) -> Option<&Directive> {
        match self {
            BlockKind::Normal => None,
            BlockKind::Directive(d) => Some(d),
        }
    }
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Goto(BlockId),
    /// Two-way conditional branch.
    Branch {
        /// Condition operand (bool).
        cond: Value,
        /// Target when true.
        then_bb: BlockId,
        /// Target when false.
        else_bb: BlockId,
    },
    /// Return from the function.
    Return {
        /// Returned operand, if non-void.
        value: Option<Value>,
    },
    /// Placeholder during construction; the verifier rejects it.
    Unreachable,
}

/// The successors of a terminator: at most two block ids, held inline.
/// Derefs to `[BlockId]` and iterates by value, so CFG walks ask for
/// successors without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Successors {
    ids: [BlockId; 2],
    len: u8,
}

impl std::ops::Deref for Successors {
    type Target = [BlockId];

    fn deref(&self) -> &[BlockId] {
        &self.ids[..self.len as usize]
    }
}

impl IntoIterator for Successors {
    type Item = BlockId;
    type IntoIter = std::iter::Take<std::array::IntoIter<BlockId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.into_iter().take(self.len as usize)
    }
}

impl<'a> IntoIterator for &'a Successors {
    type Item = &'a BlockId;
    type IntoIter = std::slice::Iter<'a, BlockId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Terminator {
    /// Successor block ids (empty for returns).
    pub fn successors(&self) -> Successors {
        let none = BlockId(0);
        let (ids, len) = match self {
            Terminator::Goto(t) => ([*t, none], 1),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => ([*then_bb, *else_bb], 2),
            Terminator::Return { .. } | Terminator::Unreachable => ([none, none], 0),
        };
        Successors { ids, len }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Goto(t) => write!(f, "goto {t}"),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
                ..
            } => write!(f, "br {cond} ? {then_bb} : {else_bb}"),
            Terminator::Return { value: None, .. } => write!(f, "ret"),
            Terminator::Return { value: Some(v), .. } => write!(f, "ret {v}"),
            Terminator::Unreachable => write!(f, "unreachable"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_successors() {
        assert_eq!(*Terminator::Goto(BlockId(3)).successors(), [BlockId(3)]);
        let br = Terminator::Branch {
            cond: Value::bool(true),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(*br.successors(), [BlockId(1), BlockId(2)]);
        assert!(Terminator::Return { value: None }.successors().is_empty());
    }

    #[test]
    fn directive_open_close() {
        let d = Directive::ParallelBegin {
            region: RegionId(0),
            num_threads: None,
        };
        assert!(d.opens_region());
        assert!(!d.closes_region());
        let e = Directive::ParallelEnd {
            region: RegionId(0),
        };
        assert!(e.closes_region());
        assert_eq!(e.region(), Some(RegionId(0)));
        let b = Directive::Barrier {
            implicit: false,
            region: None,
        };
        assert!(!b.opens_region() && !b.closes_region());
        assert_eq!(b.region(), None);
    }

    #[test]
    fn instr_dest() {
        let i = Instr::Copy {
            dest: Reg(1),
            src: Value::int(3),
        };
        assert_eq!(i.dest(), Some(Reg(1)));
        let p = Instr::Print { args: vec![] };
        assert_eq!(p.dest(), None);
    }

    #[test]
    fn collective_kind_extraction() {
        let i = Instr::Mpi {
            dest: None,
            op: MpiOp::Collective {
                kind: CollectiveKind::Barrier,
                value: None,
                reduce_op: None,
                root: None,
                comm: None,
            },
        };
        assert_eq!(i.collective_kind(), Some(CollectiveKind::Barrier));
        let j = Instr::Mpi {
            dest: None,
            op: MpiOp::Finalize,
        };
        assert_eq!(j.collective_kind(), None);
    }
}
