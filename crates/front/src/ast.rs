//! Abstract syntax tree for MiniHPC.
//!
//! MiniHPC is a small imperative language whose only purpose is to express
//! the programs the paper analyses: C-like control flow, OpenMP-model
//! parallel constructs as first-class structured statements (semantically
//! identical to pragmas over structured blocks — they lower to the same
//! CFG shape), and MPI operations as builtin calls.

use crate::span::Span;
use crate::symbol::{Interner, Symbol};
use std::fmt;

/// An identifier occurrence: its interned name and where it appears.
/// The text is [`Interner::resolve`]d from the unit's interner
/// ([`Program::interner`]) where it is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ident {
    /// The interned name.
    pub sym: Symbol,
    /// Where it appears.
    pub span: Span,
}

impl Ident {
    /// Construct an identifier.
    pub fn new(sym: Symbol, span: Span) -> Self {
        Ident { sym, span }
    }
}

/// Index of an expression in its function's arena
/// ([`Function::exprs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(pub u32);

/// A run of consecutive expressions in a function's arena: an argument
/// list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprRange {
    /// Arena index of the first expression.
    pub start: u32,
    /// Number of expressions.
    pub len: u32,
}

impl ExprRange {
    /// Number of expressions.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True for an empty list.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The `i`-th expression.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn get(self, i: usize) -> ExprId {
        assert!(i < self.len(), "argument {i} of {}", self.len);
        ExprId(self.start + i as u32)
    }

    /// The expressions, in order.
    pub fn iter(self) -> impl Iterator<Item = ExprId> {
        (self.start..self.start + self.len).map(ExprId)
    }
}

/// Scalar and array types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// Boolean.
    Bool,
    /// No value (function returns only).
    Void,
    /// Growable array of `int`.
    ArrayInt,
    /// Growable array of `float`.
    ArrayFloat,
    /// An MPI communicator handle (`MPI_COMM_WORLD`, `MPI_Comm_split`,
    /// `MPI_Comm_dup` results). Opaque: no arithmetic, no comparison.
    Comm,
    /// A non-blocking MPI request handle (`MPI_Isend`/`MPI_Irecv`
    /// results, consumed by `MPI_Wait`/`MPI_Waitall`). Opaque like
    /// [`Type::Comm`].
    Request,
}

/// The `MPI_ANY_SOURCE` wildcard sentinel in lowered (integer) form.
/// Receive sources are otherwise non-negative local ranks.
pub const ANY_SOURCE: i64 = -1;
/// The `MPI_ANY_TAG` wildcard sentinel in lowered (integer) form.
/// Message tags are otherwise non-negative.
pub const ANY_TAG: i64 = -2;

impl Type {
    /// True for `int` / `float`.
    pub fn is_numeric(self) -> bool {
        matches!(self, Type::Int | Type::Float)
    }

    /// True for the array types.
    pub fn is_array(self) -> bool {
        matches!(self, Type::ArrayInt | Type::ArrayFloat)
    }

    /// Element type of an array type.
    pub fn elem(self) -> Option<Type> {
        match self {
            Type::ArrayInt => Some(Type::Int),
            Type::ArrayFloat => Some(Type::Float),
            _ => None,
        }
    }

    /// Array type with the given element type.
    pub fn array_of(elem: Type) -> Option<Type> {
        match elem {
            Type::Int => Some(Type::ArrayInt),
            Type::Float => Some(Type::ArrayFloat),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Float => write!(f, "float"),
            Type::Bool => write!(f, "bool"),
            Type::Void => write!(f, "void"),
            Type::ArrayInt => write!(f, "int[]"),
            Type::ArrayFloat => write!(f, "float[]"),
            Type::Comm => write!(f, "comm"),
            Type::Request => write!(f, "request"),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    And,
    /// `||` (short-circuit)
    Or,
}

impl BinOp {
    /// True for `+ - * / %`.
    pub fn is_arith(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
        )
    }

    /// True for comparison operators.
    pub fn is_cmp(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// True for `&&` / `||`.
    pub fn is_logic(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// Source text of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Logical negation `!`.
    Not,
}

/// Builtin intrinsic functions (not user-definable, not MPI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `rank()` — MPI rank of the calling process.
    Rank,
    /// `size()` — number of MPI processes.
    Size,
    /// `thread_num()` — id of the calling thread within its team.
    ThreadNum,
    /// `num_threads()` — size of the innermost enclosing team.
    NumThreads,
    /// `in_parallel()` — true when inside an active parallel region.
    InParallel,
    /// `sqrt(float) -> float`.
    Sqrt,
    /// `abs(T) -> T` for numeric T.
    Abs,
    /// `min(T, T) -> T` for numeric T.
    MinOf,
    /// `max(T, T) -> T` for numeric T.
    MaxOf,
    /// `int_of(float) -> int` truncation.
    IntOf,
    /// `float_of(int) -> float`.
    FloatOf,
    /// `array(len, init) -> T[]` — array filled with `init`.
    ArrayNew,
    /// `len(T[]) -> int`.
    Len,
}

impl Intrinsic {
    /// Resolve a call-position identifier to an intrinsic.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "rank" => Intrinsic::Rank,
            "size" => Intrinsic::Size,
            "thread_num" => Intrinsic::ThreadNum,
            "num_threads" => Intrinsic::NumThreads,
            "in_parallel" => Intrinsic::InParallel,
            "sqrt" => Intrinsic::Sqrt,
            "abs" => Intrinsic::Abs,
            "min" => Intrinsic::MinOf,
            "max" => Intrinsic::MaxOf,
            "int_of" => Intrinsic::IntOf,
            "float_of" => Intrinsic::FloatOf,
            "array" => Intrinsic::ArrayNew,
            "len" => Intrinsic::Len,
            _ => return None,
        })
    }

    /// Canonical source name.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Rank => "rank",
            Intrinsic::Size => "size",
            Intrinsic::ThreadNum => "thread_num",
            Intrinsic::NumThreads => "num_threads",
            Intrinsic::InParallel => "in_parallel",
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Abs => "abs",
            Intrinsic::MinOf => "min",
            Intrinsic::MaxOf => "max",
            Intrinsic::IntOf => "int_of",
            Intrinsic::FloatOf => "float_of",
            Intrinsic::ArrayNew => "array",
            Intrinsic::Len => "len",
        }
    }
}

/// MPI reduction operators (the subset the paper's benchmarks use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// `MPI_SUM`
    Sum,
    /// `MPI_PROD`
    Prod,
    /// `MPI_MIN`
    Min,
    /// `MPI_MAX`
    Max,
    /// `MPI_LAND`
    Land,
    /// `MPI_LOR`
    Lor,
}

impl ReduceOp {
    /// Resolve the bare identifier used in source (`SUM`, `PROD`, ...).
    pub fn from_name(name: &str) -> Option<ReduceOp> {
        Some(match name {
            "SUM" => ReduceOp::Sum,
            "PROD" => ReduceOp::Prod,
            "MIN" => ReduceOp::Min,
            "MAX" => ReduceOp::Max,
            "LAND" => ReduceOp::Land,
            "LOR" => ReduceOp::Lor,
            _ => return None,
        })
    }

    /// Canonical source name.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "SUM",
            ReduceOp::Prod => "PROD",
            ReduceOp::Min => "MIN",
            ReduceOp::Max => "MAX",
            ReduceOp::Land => "LAND",
            ReduceOp::Lor => "LOR",
        }
    }
}

/// The kinds of MPI *collective* operations the analysis tracks.
///
/// The numeric discriminant doubles as the "color" the dynamic `CC` check
/// communicates (paper §3 / PARCOACH Algorithm 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CollectiveKind {
    /// `MPI_Barrier()`
    Barrier,
    /// `MPI_Bcast(v, root)`
    Bcast,
    /// `MPI_Reduce(v, op, root)`
    Reduce,
    /// `MPI_Allreduce(v, op)`
    Allreduce,
    /// `MPI_Gather(v, root)`
    Gather,
    /// `MPI_Allgather(v)`
    Allgather,
    /// `MPI_Scatter(arr, root)`
    Scatter,
    /// `MPI_Alltoall(arr)`
    Alltoall,
    /// `MPI_Scan(v, op)`
    Scan,
    /// `MPI_Reduce_scatter(arr, op)`
    ReduceScatter,
}

impl CollectiveKind {
    /// All collective kinds, in color order.
    pub const ALL: [CollectiveKind; 10] = [
        CollectiveKind::Barrier,
        CollectiveKind::Bcast,
        CollectiveKind::Reduce,
        CollectiveKind::Allreduce,
        CollectiveKind::Gather,
        CollectiveKind::Allgather,
        CollectiveKind::Scatter,
        CollectiveKind::Alltoall,
        CollectiveKind::Scan,
        CollectiveKind::ReduceScatter,
    ];

    /// The MPI-style function name, e.g. `MPI_Allreduce`.
    pub fn mpi_name(self) -> &'static str {
        match self {
            CollectiveKind::Barrier => "MPI_Barrier",
            CollectiveKind::Bcast => "MPI_Bcast",
            CollectiveKind::Reduce => "MPI_Reduce",
            CollectiveKind::Allreduce => "MPI_Allreduce",
            CollectiveKind::Gather => "MPI_Gather",
            CollectiveKind::Allgather => "MPI_Allgather",
            CollectiveKind::Scatter => "MPI_Scatter",
            CollectiveKind::Alltoall => "MPI_Alltoall",
            CollectiveKind::Scan => "MPI_Scan",
            CollectiveKind::ReduceScatter => "MPI_Reduce_scatter",
        }
    }

    /// Resolve an `MPI_*` identifier to a collective kind.
    pub fn from_name(name: &str) -> Option<CollectiveKind> {
        CollectiveKind::ALL
            .iter()
            .copied()
            .find(|k| k.mpi_name() == name)
    }

    /// The dynamic-check color (stable across runs and processes).
    pub fn color(self) -> u32 {
        self as u32 + 1 // 0 is reserved for "no collective / return"
    }

    /// True when the operation needs a root argument.
    pub fn has_root(self) -> bool {
        matches!(
            self,
            CollectiveKind::Bcast
                | CollectiveKind::Reduce
                | CollectiveKind::Gather
                | CollectiveKind::Scatter
        )
    }

    /// True when the operation needs a reduction operator argument.
    pub fn has_reduce_op(self) -> bool {
        matches!(
            self,
            CollectiveKind::Reduce
                | CollectiveKind::Allreduce
                | CollectiveKind::Scan
                | CollectiveKind::ReduceScatter
        )
    }
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mpi_name())
    }
}

/// A full MPI operation as it appears in source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MpiOp {
    /// `MPI_Init()`
    Init,
    /// `MPI_Init_thread(REQUIRED)` with a requested thread level name
    /// (`SINGLE` / `FUNNELED` / `SERIALIZED` / `MULTIPLE`).
    InitThread {
        /// Requested level.
        required: ThreadLevel,
    },
    /// `MPI_Finalize()`
    Finalize,
    /// A collective operation.
    Collective(CollectiveCall),
    /// `MPI_Send(v, dest, tag[, comm])` — blocking (buffered) send,
    /// checked by the static point-to-point matching pass.
    Send {
        /// Value expression.
        value: ExprId,
        /// Destination rank (within `comm`).
        dest: ExprId,
        /// Message tag.
        tag: ExprId,
        /// Communicator (None = `MPI_COMM_WORLD`).
        comm: Option<ExprId>,
    },
    /// `MPI_Recv(src, tag[, comm])` — returns the received value.
    Recv {
        /// Source rank (within `comm`).
        src: ExprId,
        /// Message tag.
        tag: ExprId,
        /// Communicator (None = `MPI_COMM_WORLD`).
        comm: Option<ExprId>,
    },
    /// The `MPI_COMM_WORLD` handle as an expression.
    CommWorld,
    /// `MPI_Comm_split(parent, color, key)` — collective over `parent`;
    /// ranks with equal `color` form a new communicator, ordered by
    /// (`key`, parent rank).
    CommSplit {
        /// Parent communicator.
        parent: ExprId,
        /// Partition color (non-negative).
        color: ExprId,
        /// Ordering key within the new communicator.
        key: ExprId,
    },
    /// `MPI_Comm_dup(comm)` — collective over `comm`; returns a new
    /// communicator with the same members but a separate matching space.
    CommDup {
        /// Communicator to duplicate.
        comm: ExprId,
    },
    /// `MPI_Isend(v, dest, tag[, comm])` — non-blocking (buffered) send;
    /// returns a request that must be completed by `MPI_Wait[all]`.
    Isend {
        /// Value expression.
        value: ExprId,
        /// Destination rank (within `comm`).
        dest: ExprId,
        /// Message tag.
        tag: ExprId,
        /// Communicator (None = `MPI_COMM_WORLD`).
        comm: Option<ExprId>,
    },
    /// `MPI_Irecv(src, tag[, comm])` — non-blocking receive post; `src`
    /// may be `MPI_ANY_SOURCE` and `tag` may be `MPI_ANY_TAG`. Returns a
    /// request; the received value is produced by `MPI_Wait`.
    Irecv {
        /// Source rank (within `comm`) or `MPI_ANY_SOURCE`.
        src: ExprId,
        /// Message tag or `MPI_ANY_TAG`.
        tag: ExprId,
        /// Communicator (None = `MPI_COMM_WORLD`).
        comm: Option<ExprId>,
    },
    /// `MPI_Wait(req)` — block until the request completes; returns the
    /// received value for receive requests (0.0 for send requests).
    Wait {
        /// The request to complete.
        request: ExprId,
    },
    /// `MPI_Waitall(r1, r2, …)` — complete every request, in order.
    Waitall {
        /// The requests to complete.
        requests: ExprRange,
    },
    /// The `MPI_ANY_SOURCE` receive wildcard as an (int) expression.
    AnySource,
    /// The `MPI_ANY_TAG` receive wildcard as an (int) expression.
    AnyTag,
}

/// A collective call: kind + arguments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveCall {
    /// Which collective.
    pub kind: CollectiveKind,
    /// Payload value (absent for `MPI_Barrier`).
    pub value: Option<ExprId>,
    /// Reduction operator for reducing collectives.
    pub reduce_op: Option<ReduceOp>,
    /// Root rank expression for rooted collectives.
    pub root: Option<ExprId>,
    /// Communicator the collective runs on (None = `MPI_COMM_WORLD`),
    /// always the last argument when present.
    pub comm: Option<ExprId>,
}

/// MPI threading support levels (MPI-2 §12.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ThreadLevel {
    /// Only one thread will execute.
    #[default]
    Single,
    /// Only the main thread makes MPI calls.
    Funneled,
    /// Any thread may call MPI, but not concurrently.
    Serialized,
    /// No restrictions.
    Multiple,
}

impl ThreadLevel {
    /// Resolve the bare identifier used in source.
    pub fn from_name(name: &str) -> Option<ThreadLevel> {
        Some(match name {
            "SINGLE" => ThreadLevel::Single,
            "FUNNELED" => ThreadLevel::Funneled,
            "SERIALIZED" => ThreadLevel::Serialized,
            "MULTIPLE" => ThreadLevel::Multiple,
            _ => return None,
        })
    }

    /// MPI constant name.
    pub fn mpi_name(self) -> &'static str {
        match self {
            ThreadLevel::Single => "MPI_THREAD_SINGLE",
            ThreadLevel::Funneled => "MPI_THREAD_FUNNELED",
            ThreadLevel::Serialized => "MPI_THREAD_SERIALIZED",
            ThreadLevel::Multiple => "MPI_THREAD_MULTIPLE",
        }
    }
}

impl fmt::Display for ThreadLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mpi_name())
    }
}

/// Expression node. Sub-expressions are [`ExprId`]s into the arena of
/// the function the node belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// Source span.
    pub span: Span,
}

/// Expression kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Bool literal.
    Bool(bool),
    /// Variable reference.
    Var(Ident),
    /// Array indexing `a[i]`.
    Index(Ident, ExprId),
    /// Unary operation.
    Unary(UnOp, ExprId),
    /// Binary operation.
    Binary(BinOp, ExprId, ExprId),
    /// Call to a user-defined function.
    Call(Ident, ExprRange),
    /// Call to a builtin intrinsic.
    Intrinsic(Intrinsic, ExprRange),
    /// An MPI operation used as an expression.
    Mpi(MpiOp),
}

impl Expr {
    /// Construct an expression.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// Integer literal helper.
    pub fn int(v: i64, span: Span) -> Self {
        Expr::new(ExprKind::Int(v), span)
    }

    /// The direct sub-expressions, in source order.
    pub fn children(&self, mut f: impl FnMut(ExprId)) {
        fn opt(e: &Option<ExprId>, f: &mut impl FnMut(ExprId)) {
            if let Some(e) = e {
                f(*e)
            }
        }
        match &self.kind {
            ExprKind::Int(_) | ExprKind::Float(_) | ExprKind::Bool(_) | ExprKind::Var(_) => {}
            ExprKind::Index(_, e) | ExprKind::Unary(_, e) => f(*e),
            ExprKind::Binary(_, l, r) => {
                f(*l);
                f(*r);
            }
            ExprKind::Call(_, args) | ExprKind::Intrinsic(_, args) => args.iter().for_each(f),
            ExprKind::Mpi(op) => match op {
                MpiOp::Init
                | MpiOp::InitThread { .. }
                | MpiOp::Finalize
                | MpiOp::CommWorld
                | MpiOp::AnySource
                | MpiOp::AnyTag => {}
                MpiOp::Collective(c) => {
                    opt(&c.value, &mut f);
                    opt(&c.root, &mut f);
                    opt(&c.comm, &mut f);
                }
                MpiOp::Send {
                    value,
                    dest,
                    tag,
                    comm,
                }
                | MpiOp::Isend {
                    value,
                    dest,
                    tag,
                    comm,
                } => {
                    f(*value);
                    f(*dest);
                    f(*tag);
                    opt(comm, &mut f);
                }
                MpiOp::Recv { src, tag, comm } | MpiOp::Irecv { src, tag, comm } => {
                    f(*src);
                    f(*tag);
                    opt(comm, &mut f);
                }
                MpiOp::CommSplit { parent, color, key } => {
                    f(*parent);
                    f(*color);
                    f(*key);
                }
                MpiOp::CommDup { comm } => f(*comm),
                MpiOp::Wait { request } => f(*request),
                MpiOp::Waitall { requests } => requests.iter().for_each(f),
            },
        }
    }
}

/// Assignment target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LValue {
    /// Plain variable.
    Var(Ident),
    /// Array element.
    Index(Ident, ExprId),
}

impl LValue {
    /// The variable at the base of the lvalue.
    pub fn base(&self) -> &Ident {
        match self {
            LValue::Var(id) | LValue::Index(id, _) => id,
        }
    }
}

/// A `{ ... }` block of statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Span of the whole block including braces.
    pub span: Span,
}

impl Block {
    /// An empty block with a dummy span.
    pub fn empty() -> Self {
        Block {
            stmts: Vec::new(),
            span: Span::DUMMY,
        }
    }
}

/// Statement node.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// What the statement is.
    pub kind: StmtKind,
    /// Source span.
    pub span: Span,
}

impl Stmt {
    /// Construct a statement.
    pub fn new(kind: StmtKind, span: Span) -> Self {
        Stmt { kind, span }
    }
}

/// OpenMP-model parallel constructs (structured, perfectly nested — the
/// model the paper assumes in §1).
#[derive(Debug, Clone, PartialEq)]
pub enum OmpStmt {
    /// `parallel [num_threads(e)] { ... }` — fork a team; implicit barrier
    /// + join at the end.
    Parallel {
        /// Optional requested team size.
        num_threads: Option<ExprId>,
        /// Region body.
        body: Block,
    },
    /// `single [nowait] { ... }` — exactly one thread of the team executes
    /// the body; implicit barrier at the end unless `nowait`.
    Single {
        /// Suppress the trailing implicit barrier.
        nowait: bool,
        /// Region body.
        body: Block,
    },
    /// `master { ... }` — only the master thread executes; **no** implicit
    /// barrier.
    Master {
        /// Region body.
        body: Block,
    },
    /// `critical { ... }` — mutual exclusion; all threads execute, one at
    /// a time; no barrier.
    Critical {
        /// Region body.
        body: Block,
    },
    /// `pfor [nowait] (i in lo..hi) { ... }` — worksharing loop; implicit
    /// barrier at the end unless `nowait`.
    PFor {
        /// Suppress the trailing implicit barrier.
        nowait: bool,
        /// Loop variable.
        var: Ident,
        /// Inclusive lower bound.
        lo: ExprId,
        /// Exclusive upper bound.
        hi: ExprId,
        /// Loop body.
        body: Block,
    },
    /// `sections [nowait] { section { .. } section { .. } }` — each section
    /// executed by one thread; implicit barrier unless `nowait`.
    Sections {
        /// Suppress the trailing implicit barrier.
        nowait: bool,
        /// The section bodies.
        sections: Vec<Block>,
    },
}

impl OmpStmt {
    /// Short construct name for diagnostics.
    pub fn construct_name(&self) -> &'static str {
        match self {
            OmpStmt::Parallel { .. } => "parallel",
            OmpStmt::Single { .. } => "single",
            OmpStmt::Master { .. } => "master",
            OmpStmt::Critical { .. } => "critical",
            OmpStmt::PFor { .. } => "pfor",
            OmpStmt::Sections { .. } => "sections",
        }
    }
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `let x[: ty] = e;`
    Let {
        /// Variable name.
        name: Ident,
        /// Optional annotation.
        ty: Option<Type>,
        /// Initializer.
        init: ExprId,
    },
    /// `lv = e;`
    Assign {
        /// Target.
        target: LValue,
        /// Value.
        value: ExprId,
    },
    /// `if (c) { .. } [else { .. }]`
    If {
        /// Condition.
        cond: ExprId,
        /// Then branch.
        then_blk: Block,
        /// Optional else branch.
        else_blk: Option<Block>,
    },
    /// `while (c) { .. }`
    While {
        /// Condition.
        cond: ExprId,
        /// Body.
        body: Block,
    },
    /// `for (i in lo..hi) { .. }` — sequential counted loop.
    For {
        /// Loop variable.
        var: Ident,
        /// Lower bound (inclusive).
        lo: ExprId,
        /// Upper bound (exclusive).
        hi: ExprId,
        /// Body.
        body: Block,
    },
    /// `return [e];`
    Return(Option<ExprId>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// Expression statement `e;`.
    Expr(ExprId),
    /// `print(e, ...);`
    Print(ExprRange),
    /// An OpenMP construct.
    Omp(OmpStmt),
    /// `barrier;` — explicit thread barrier.
    Barrier,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Name.
    pub name: Ident,
    /// Declared type.
    pub ty: Type,
}

/// A function definition, together with the arena its expressions live
/// in: the statements name expressions by [`ExprId`], so a function and
/// its `exprs` are replaced together.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: Ident,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Return type (`Void` if omitted).
    pub ret: Type,
    /// Body.
    pub body: Block,
    /// Every expression of the body; children precede their parent.
    pub exprs: Vec<Expr>,
    /// Span of the whole definition.
    pub span: Span,
}

impl Function {
    /// The expression behind `id`.
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }

    /// Walk the expression `root` and all its sub-expressions, pre-order.
    pub fn walk_expr<'a>(&'a self, root: ExprId, f: &mut impl FnMut(&'a Expr)) {
        let e = self.expr(root);
        f(e);
        e.children(|c| self.walk_expr(c, f));
    }
}

/// A whole program: a set of functions, `main` being the entry point,
/// and the interner their identifiers were minted by.
///
/// Two programs parsed from the same text are equal: symbols are
/// assigned in first-appearance order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Functions in definition order.
    pub functions: Vec<Function>,
    /// The names behind every [`Symbol`] of `functions`.
    pub interner: Interner,
}

impl Program {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        let sym = self.interner.get(name)?;
        self.functions.iter().find(|f| f.name.sym == sym)
    }

    /// The text of an identifier of this program.
    pub fn name(&self, id: Ident) -> &str {
        self.interner.resolve(id.sym)
    }

    /// The entry point, if present.
    pub fn main(&self) -> Option<&Function> {
        self.function("main")
    }

    /// Total number of statements (recursively), a rough size metric used
    /// by the benchmark tables.
    pub fn stmt_count(&self) -> usize {
        fn count_block(b: &Block) -> usize {
            b.stmts.iter().map(count_stmt).sum()
        }
        fn count_stmt(s: &Stmt) -> usize {
            1 + match &s.kind {
                StmtKind::If {
                    then_blk, else_blk, ..
                } => count_block(then_blk) + else_blk.as_ref().map_or(0, count_block),
                StmtKind::While { body, .. } | StmtKind::For { body, .. } => count_block(body),
                StmtKind::Omp(o) => match o {
                    OmpStmt::Parallel { body, .. }
                    | OmpStmt::Single { body, .. }
                    | OmpStmt::Master { body }
                    | OmpStmt::Critical { body }
                    | OmpStmt::PFor { body, .. } => count_block(body),
                    OmpStmt::Sections { sections, .. } => sections.iter().map(count_block).sum(),
                },
                _ => 0,
            }
        }
        self.functions.iter().map(|f| count_block(&f.body)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_color_stable_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for k in CollectiveKind::ALL {
            assert!(k.color() > 0, "color 0 is reserved");
            assert!(seen.insert(k.color()), "duplicate color for {k}");
            assert_eq!(CollectiveKind::from_name(k.mpi_name()), Some(k));
        }
    }

    #[test]
    fn collective_argument_shape() {
        assert!(CollectiveKind::Bcast.has_root());
        assert!(!CollectiveKind::Bcast.has_reduce_op());
        assert!(CollectiveKind::Reduce.has_root());
        assert!(CollectiveKind::Reduce.has_reduce_op());
        assert!(!CollectiveKind::Allreduce.has_root());
        assert!(CollectiveKind::Allreduce.has_reduce_op());
        assert!(!CollectiveKind::Barrier.has_root());
        assert!(!CollectiveKind::Barrier.has_reduce_op());
    }

    #[test]
    fn thread_levels_ordered() {
        assert!(ThreadLevel::Single < ThreadLevel::Funneled);
        assert!(ThreadLevel::Funneled < ThreadLevel::Serialized);
        assert!(ThreadLevel::Serialized < ThreadLevel::Multiple);
        assert_eq!(
            ThreadLevel::from_name("SERIALIZED"),
            Some(ThreadLevel::Serialized)
        );
        assert_eq!(ThreadLevel::from_name("bogus"), None);
    }

    #[test]
    fn type_helpers() {
        assert!(Type::Int.is_numeric());
        assert!(!Type::Bool.is_numeric());
        assert_eq!(Type::ArrayInt.elem(), Some(Type::Int));
        assert_eq!(Type::array_of(Type::Float), Some(Type::ArrayFloat));
        assert_eq!(Type::array_of(Type::Bool), None);
    }

    #[test]
    fn expr_walk_visits_all() {
        let (prog, diags) = crate::parse("fn main() { let x = 1 + f(a[i], -2); }");
        assert!(!diags.has_errors());
        let f = &prog.functions[0];
        let StmtKind::Let { init, .. } = &f.body.stmts[0].kind else {
            panic!("expected let");
        };
        let mut n = 0;
        f.walk_expr(*init, &mut |_| n += 1);
        assert_eq!(n, 7);
        assert_eq!(f.exprs.len(), 7, "the arena holds exactly the nodes");
    }

    #[test]
    fn reduce_ops_roundtrip() {
        for op in [
            ReduceOp::Sum,
            ReduceOp::Prod,
            ReduceOp::Min,
            ReduceOp::Max,
            ReduceOp::Land,
            ReduceOp::Lor,
        ] {
            assert_eq!(ReduceOp::from_name(op.name()), Some(op));
        }
    }

    #[test]
    fn stmt_count_recurses() {
        // if + let = 2
        let (prog, diags) = crate::parse("fn main() { if (true) { let x = 1; } }");
        assert!(!diags.has_errors());
        assert_eq!(prog.stmt_count(), 2);
        assert!(prog.main().is_some());
        assert!(prog.function("x").is_none(), "a variable is not a function");
    }
}
