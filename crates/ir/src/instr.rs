//! IR instructions, directives and terminators.
//!
//! The IR follows the CFG shape the paper constructs in §2: ordinary
//! straight-line code lives in `Normal` blocks; every OpenMP directive
//! occupies a dedicated block ([`BlockKind::Directive`]); implicit thread
//! barriers get their own explicit nodes ([`Directive::Barrier`] with
//! `implicit = true`).

use crate::types::{BlockId, Reg, RegionId, Value};
use parcoach_front::ast::{BinOp, CollectiveKind, Intrinsic, ReduceOp, ThreadLevel, Type, UnOp};
use parcoach_front::span::Span;
use std::fmt;

/// MPI operation in IR form (operands are [`Value`]s).
#[derive(Debug, Clone, PartialEq)]
pub enum MpiIr {
    /// `MPI_Init` / `MPI_Init_thread`.
    Init {
        /// Requested thread level (None for plain `MPI_Init`).
        required: Option<ThreadLevel>,
    },
    /// `MPI_Finalize`.
    Finalize,
    /// Any collective operation.
    Collective {
        /// Which collective.
        kind: CollectiveKind,
        /// Payload operand (absent for barrier).
        value: Option<Value>,
        /// Reduction operator for reducing collectives.
        reduce_op: Option<ReduceOp>,
        /// Root operand for rooted collectives.
        root: Option<Value>,
        /// Communicator operand (None = `MPI_COMM_WORLD`).
        comm: Option<Value>,
    },
    /// Blocking (buffered) point-to-point send, checked by the static
    /// p2p matching pass.
    Send {
        /// Payload.
        value: Value,
        /// Destination rank within `comm`.
        dest: Value,
        /// Tag.
        tag: Value,
        /// Communicator operand (None = `MPI_COMM_WORLD`).
        comm: Option<Value>,
    },
    /// Blocking point-to-point receive.
    Recv {
        /// Source rank within `comm`.
        src: Value,
        /// Tag.
        tag: Value,
        /// Communicator operand (None = `MPI_COMM_WORLD`).
        comm: Option<Value>,
    },
    /// The `MPI_COMM_WORLD` handle (written to `dest`).
    CommWorld,
    /// `MPI_Comm_split(parent, color, key)` — collective over `parent`.
    CommSplit {
        /// Parent communicator operand.
        parent: Value,
        /// Partition color.
        color: Value,
        /// Ordering key.
        key: Value,
    },
    /// `MPI_Comm_dup(comm)` — collective over `comm`.
    CommDup {
        /// Duplicated communicator operand.
        comm: Value,
    },
    /// Non-blocking (buffered) send; the destination register receives
    /// a request handle that must be completed by `Wait`/`Waitall`.
    Isend {
        /// Payload.
        value: Value,
        /// Destination rank within `comm`.
        dest: Value,
        /// Tag.
        tag: Value,
        /// Communicator operand (None = `MPI_COMM_WORLD`).
        comm: Option<Value>,
    },
    /// Non-blocking receive post. `src` may be the `MPI_ANY_SOURCE`
    /// sentinel and `tag` the `MPI_ANY_TAG` sentinel
    /// (`parcoach_front::ast::{ANY_SOURCE, ANY_TAG}`).
    Irecv {
        /// Source rank within `comm` (or `ANY_SOURCE`).
        src: Value,
        /// Tag (or `ANY_TAG`).
        tag: Value,
        /// Communicator operand (None = `MPI_COMM_WORLD`).
        comm: Option<Value>,
    },
    /// `MPI_Wait(req)` — block until the request completes; the
    /// destination register (if any) receives the received value.
    Wait {
        /// Request operand.
        request: Value,
    },
    /// `MPI_Waitall(r1, …)` — complete every request, in operand order.
    Waitall {
        /// Request operands.
        requests: Vec<Value>,
    },
}

impl MpiIr {
    /// The collective kind, if this is a collective.
    pub fn collective_kind(&self) -> Option<CollectiveKind> {
        match self {
            MpiIr::Collective { kind, .. } => Some(*kind),
            _ => None,
        }
    }

    /// True for point-to-point operations: blocking send/recv, the
    /// non-blocking posts and their completions. All of them demand the
    /// MPI thread level of their context (any thread of a team calling
    /// them needs `MPI_THREAD_MULTIPLE`) without being errors there.
    pub fn is_p2p(&self) -> bool {
        matches!(
            self,
            MpiIr::Send { .. }
                | MpiIr::Recv { .. }
                | MpiIr::Isend { .. }
                | MpiIr::Irecv { .. }
                | MpiIr::Wait { .. }
                | MpiIr::Waitall { .. }
        )
    }

    /// True for the non-blocking request operations (posts and waits).
    pub fn is_request_op(&self) -> bool {
        matches!(
            self,
            MpiIr::Isend { .. } | MpiIr::Irecv { .. } | MpiIr::Wait { .. } | MpiIr::Waitall { .. }
        )
    }

    /// Communicator-management collectives (`MPI_Comm_split`,
    /// `MPI_Comm_dup`): dynamically these synchronize like collectives
    /// over their *parent* communicator, so the static phases must
    /// treat them as collective events. Returns the MPI name and the
    /// parent communicator operand.
    pub fn comm_mgmt(&self) -> Option<(&'static str, Value)> {
        match self {
            MpiIr::CommSplit { parent, .. } => Some(("MPI_Comm_split", *parent)),
            MpiIr::CommDup { comm } => Some(("MPI_Comm_dup", *comm)),
            _ => None,
        }
    }
}

/// `CC` color of `MPI_Comm_split` (data-collective colors are
/// 1..=10; 0 is the return/exit color).
pub const COLOR_COMM_SPLIT: u32 = 11;
/// `CC` color of `MPI_Comm_dup`.
pub const COLOR_COMM_DUP: u32 = 12;

/// Dynamic checks inserted by the PARCOACH instrumentation pass (§3 of the
/// paper). They are ordinary instructions so the executor runs them
/// in-line; an un-instrumented program contains none of them.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckOp {
    /// The `CC` collective-verification call placed *before* an MPI
    /// collective (including the communicator-management collectives):
    /// control all-reduce of `color` over the guarded collective's
    /// communicator; mismatch aborts.
    CollectiveCc {
        /// Color communicated (collective kind color, or
        /// [`COLOR_COMM_SPLIT`]/[`COLOR_COMM_DUP`]).
        color: u32,
        /// Communicator of the guarded collective (None = world). The CC
        /// runs on the *same* communicator so collectives on unrelated
        /// communicators can never be compared against each other.
        comm: Option<Value>,
        /// Source location of the guarded collective.
        span: Span,
    },
    /// The `CC` call placed before `return` statements (color 0) so ranks
    /// that leave the function while others still expect collectives are
    /// caught. Wrapped in `single` semantics when in a parallel region.
    ReturnCc {
        /// Source location of the return.
        span: Span,
    },
    /// Verify the executing context is monothreaded (inserted at `S_ipw`
    /// nodes — collectives, including communicator management, whose
    /// parallelism word could not be proven in `L` statically).
    AssertMonothread {
        /// MPI name of the guarded operation (for error messages).
        what: &'static str,
        /// Source location.
        span: Span,
    },
    /// Concurrency counter entry for an `S_cc` node (possibly-concurrent
    /// monothreaded region containing collectives). Aborts when two
    /// regions with the same `site` are active simultaneously.
    ConcEnter {
        /// Static site id (one per region pair detected).
        site: u32,
        /// Source location of the region.
        span: Span,
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
    P2pEpoch {
        /// Source location of the guarded finalize.
        span: Span,
    },
}

/// A straight-line instruction.
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
        /// Source span (division by zero etc. reports here).
        span: Span,
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
        /// Source span.
        span: Span,
    },
    /// `dest = arr[idx]`.
    Load {
        /// Destination.
        dest: Reg,
        /// Array register.
        arr: Reg,
        /// Index operand.
        idx: Value,
        /// Source span (bounds errors report here).
        span: Span,
    },
    /// `arr[idx] = value`.
    Store {
        /// Array register.
        arr: Reg,
        /// Index operand.
        idx: Value,
        /// Stored value.
        value: Value,
        /// Source span.
        span: Span,
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
        /// Callee name.
        func: String,
        /// Arguments.
        args: Vec<Value>,
        /// Call-site span.
        span: Span,
    },
    /// An MPI operation.
    Mpi {
        /// Destination (None for void ops).
        dest: Option<Reg>,
        /// The operation.
        op: MpiIr,
        /// Source span — the paper's warnings and run-time error messages
        /// cite this line.
        span: Span,
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

    /// Span of the instruction if it carries one.
    pub fn span(&self) -> Option<Span> {
        match self {
            Instr::Binary { span, .. }
            | Instr::ArrayNew { span, .. }
            | Instr::Load { span, .. }
            | Instr::Store { span, .. }
            | Instr::Call { span, .. }
            | Instr::Mpi { span, .. } => Some(*span),
            Instr::Check(c) => match c {
                CheckOp::CollectiveCc { span, .. }
                | CheckOp::ReturnCc { span }
                | CheckOp::AssertMonothread { span, .. }
                | CheckOp::ConcEnter { span, .. }
                | CheckOp::P2pEpoch { span } => Some(*span),
                CheckOp::ConcExit { .. } => None,
            },
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
/// ([`BlockKind::Directive`]), exactly as the paper's modified CFG does.
#[derive(Debug, Clone, PartialEq)]
pub enum Directive {
    /// Fork a team. Runtime: threads of the new team each execute the
    /// successor subgraph; the matching [`Directive::ParallelEnd`] joins.
    ParallelBegin {
        /// Region instance id (the `i` of `P_i`).
        region: RegionId,
        /// Requested team size (None → runtime default).
        num_threads: Option<Value>,
        /// Source span of the construct.
        span: Span,
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
        /// Source span.
        span: Span,
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
        /// Source span.
        span: Span,
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
        /// Source span.
        span: Span,
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
        /// Source span.
        span: Span,
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
        /// Source span (construct span for implicit barriers).
        span: Span,
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
        /// Span of the controlling condition — PARCOACH warnings point
        /// at this.
        span: Span,
    },
    /// Return from the function.
    Return {
        /// Returned operand, if non-void.
        value: Option<Value>,
        /// Span of the return site.
        span: Span,
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
            span: Span::DUMMY,
        };
        assert_eq!(*br.successors(), [BlockId(1), BlockId(2)]);
        assert!(Terminator::Return {
            value: None,
            span: Span::DUMMY
        }
        .successors()
        .is_empty());
    }

    #[test]
    fn directive_open_close() {
        let d = Directive::ParallelBegin {
            region: RegionId(0),
            num_threads: None,
            span: Span::DUMMY,
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
            span: Span::DUMMY,
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
            op: MpiIr::Collective {
                kind: CollectiveKind::Barrier,
                value: None,
                reduce_op: None,
                root: None,
                comm: None,
            },
            span: Span::DUMMY,
        };
        assert_eq!(i.collective_kind(), Some(CollectiveKind::Barrier));
        let j = Instr::Mpi {
            dest: None,
            op: MpiIr::Finalize,
            span: Span::DUMMY,
        };
        assert_eq!(j.collective_kind(), None);
    }
}
