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

    /// True when the payload is an array: the scattering collectives.
    pub fn takes_array(self) -> bool {
        matches!(
            self,
            CollectiveKind::Scatter | CollectiveKind::ReduceScatter | CollectiveKind::Alltoall
        )
    }

    /// The type the collective yields for a payload of type `payload`,
    /// or `None` when the payload has the wrong type. The one typing
    /// rule of the collectives: sema checks it, lowering reads it.
    pub fn result_type(self, payload: Type) -> Option<Type> {
        match self {
            CollectiveKind::Barrier => Some(Type::Void),
            CollectiveKind::Bcast
            | CollectiveKind::Reduce
            | CollectiveKind::Allreduce
            | CollectiveKind::Scan => payload.is_numeric().then_some(payload),
            CollectiveKind::Gather | CollectiveKind::Allgather => Type::array_of(payload),
            CollectiveKind::Scatter | CollectiveKind::ReduceScatter => payload.elem(),
            CollectiveKind::Alltoall => payload.is_array().then_some(payload),
        }
    }
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mpi_name())
    }
}

/// `CC` color of `MPI_Comm_split` (data-collective colors are
/// 1..=10; 0 is the return/exit color).
pub const COLOR_COMM_SPLIT: u32 = 11;
/// `CC` color of `MPI_Comm_dup`.
pub const COLOR_COMM_DUP: u32 = 12;

/// What an MPI operand stands for. Sema reads the type it must have,
/// and names it in a message by its noun.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The payload: numeric for the point-to-point sends, typed by the
    /// collective's kind otherwise.
    Value,
    /// A send's destination rank.
    Dest,
    /// A receive's source rank (or `MPI_ANY_SOURCE`).
    Src,
    /// A message tag (or `MPI_ANY_TAG`).
    Tag,
    /// The communicator an operation runs on.
    Comm,
    /// The communicator `MPI_Comm_split` partitions.
    Parent,
    /// `MPI_Comm_split`'s partition color.
    Color,
    /// `MPI_Comm_split`'s ordering key.
    Key,
    /// A rooted collective's root rank.
    Root,
    /// A request to complete.
    Request,
}

impl Role {
    /// The type the operand must have; `None` for the payload.
    pub fn ty(self) -> Option<Type> {
        match self {
            Role::Value => None,
            Role::Dest | Role::Src | Role::Tag | Role::Color | Role::Key | Role::Root => {
                Some(Type::Int)
            }
            Role::Comm | Role::Parent => Some(Type::Comm),
            Role::Request => Some(Type::Request),
        }
    }

    /// True for the opaque handles: communicators and requests.
    pub fn is_handle(self) -> bool {
        matches!(self.ty(), Some(Type::Comm | Type::Request))
    }

    /// The operand's name in a message.
    pub fn noun(self) -> &'static str {
        match self {
            Role::Value => "value",
            Role::Dest => "destination",
            Role::Src => "source",
            Role::Tag => "tag",
            Role::Comm => "communicator",
            Role::Parent => "parent",
            Role::Color => "color",
            Role::Key => "key",
            Role::Root => "root",
            Role::Request => "request",
        }
    }
}

/// What an MPI operand is: an expression in the AST ([`ExprId`]), a
/// register or constant in the IR, or `()` for a walk that only looks.
pub trait Operand: Copy {
    /// The operand list of `MPI_Waitall`.
    type List;

    /// The operands of `list`, in order.
    fn list(list: &Self::List) -> impl Iterator<Item = Self> + '_;
}

impl Operand for ExprId {
    type List = ExprRange;

    fn list(list: &ExprRange) -> impl Iterator<Item = ExprId> + '_ {
        list.iter()
    }
}

impl Operand for () {
    type List = ();

    fn list(_: &()) -> impl Iterator<Item = ()> + '_ {
        std::iter::empty()
    }
}

/// An MPI operation, from parser to simulator: the AST holds
/// `MpiOp<ExprId>`, the IR `MpiOp<Value>`. [`MpiOp::map`] is the one walk
/// over its operands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MpiOp<O: Operand> {
    /// `MPI_Init()` / `MPI_Init_thread(LEVEL)`.
    Init {
        /// Requested thread level (None for plain `MPI_Init`).
        required: Option<ThreadLevel>,
    },
    /// `MPI_Finalize()`
    Finalize,
    /// A collective, e.g. `MPI_Reduce(v, op, root[, comm])`: the
    /// arguments come in this order, each present or not by its kind.
    Collective {
        /// Which collective.
        kind: CollectiveKind,
        /// Payload (absent for `MPI_Barrier`).
        value: Option<O>,
        /// Reduction operator for reducing collectives.
        reduce_op: Option<ReduceOp>,
        /// Root rank for rooted collectives.
        root: Option<O>,
        /// Communicator (None = `MPI_COMM_WORLD`).
        comm: Option<O>,
    },
    /// `MPI_Send(v, dest, tag[, comm])` — blocking (buffered) send,
    /// checked by the static point-to-point matching pass.
    Send {
        /// Payload.
        value: O,
        /// Destination rank within `comm`.
        dest: O,
        /// Tag.
        tag: O,
        /// Communicator (None = `MPI_COMM_WORLD`).
        comm: Option<O>,
    },
    /// `MPI_Recv(src, tag[, comm])` — returns the received value.
    Recv {
        /// Source rank within `comm`.
        src: O,
        /// Tag.
        tag: O,
        /// Communicator (None = `MPI_COMM_WORLD`).
        comm: Option<O>,
    },
    /// The `MPI_COMM_WORLD` handle.
    CommWorld,
    /// `MPI_Comm_split(parent, color, key)` — collective over `parent`;
    /// ranks with equal `color` form a new communicator, ordered by
    /// (`key`, parent rank).
    CommSplit {
        /// Parent communicator.
        parent: O,
        /// Partition color (non-negative).
        color: O,
        /// Ordering key within the new communicator.
        key: O,
    },
    /// `MPI_Comm_dup(comm)` — collective over `comm`; returns a new
    /// communicator with the same members but a separate matching space.
    CommDup {
        /// Communicator to duplicate.
        comm: O,
    },
    /// `MPI_Isend(v, dest, tag[, comm])` — non-blocking (buffered) send;
    /// returns a request that must be completed by `MPI_Wait[all]`.
    Isend {
        /// Payload.
        value: O,
        /// Destination rank within `comm`.
        dest: O,
        /// Tag.
        tag: O,
        /// Communicator (None = `MPI_COMM_WORLD`).
        comm: Option<O>,
    },
    /// `MPI_Irecv(src, tag[, comm])` — non-blocking receive post; `src`
    /// may be `MPI_ANY_SOURCE` ([`ANY_SOURCE`]) and `tag` `MPI_ANY_TAG`
    /// ([`ANY_TAG`]). Returns a request; `MPI_Wait` yields the value.
    Irecv {
        /// Source rank within `comm` (or `ANY_SOURCE`).
        src: O,
        /// Tag (or `ANY_TAG`).
        tag: O,
        /// Communicator (None = `MPI_COMM_WORLD`).
        comm: Option<O>,
    },
    /// `MPI_Wait(req)` — block until the request completes; returns the
    /// received value for receive requests (0.0 for send requests).
    Wait {
        /// The request to complete.
        request: O,
    },
    /// `MPI_Waitall(r1, r2, …)` — complete every request, in order.
    Waitall {
        /// The requests to complete.
        requests: O::List,
    },
}

impl<O: Operand> MpiOp<O> {
    /// The one walk over an operation's operands: `f` sees each with its
    /// role, in source order, and its results take their places.
    pub fn map<P: Operand>(&self, mut f: impl FnMut(Role, O) -> P) -> MpiOp<P>
    where
        P::List: FromIterator<P>,
    {
        match self {
            MpiOp::Init { required } => MpiOp::Init {
                required: *required,
            },
            MpiOp::Finalize => MpiOp::Finalize,
            MpiOp::Collective {
                kind,
                value,
                reduce_op,
                root,
                comm,
            } => MpiOp::Collective {
                kind: *kind,
                value: value.map(|v| f(Role::Value, v)),
                reduce_op: *reduce_op,
                root: root.map(|r| f(Role::Root, r)),
                comm: comm.map(|c| f(Role::Comm, c)),
            },
            MpiOp::Send {
                value,
                dest,
                tag,
                comm,
            } => MpiOp::Send {
                value: f(Role::Value, *value),
                dest: f(Role::Dest, *dest),
                tag: f(Role::Tag, *tag),
                comm: comm.map(|c| f(Role::Comm, c)),
            },
            MpiOp::Recv { src, tag, comm } => MpiOp::Recv {
                src: f(Role::Src, *src),
                tag: f(Role::Tag, *tag),
                comm: comm.map(|c| f(Role::Comm, c)),
            },
            MpiOp::CommWorld => MpiOp::CommWorld,
            MpiOp::CommSplit { parent, color, key } => MpiOp::CommSplit {
                parent: f(Role::Parent, *parent),
                color: f(Role::Color, *color),
                key: f(Role::Key, *key),
            },
            MpiOp::CommDup { comm } => MpiOp::CommDup {
                comm: f(Role::Comm, *comm),
            },
            MpiOp::Isend {
                value,
                dest,
                tag,
                comm,
            } => MpiOp::Isend {
                value: f(Role::Value, *value),
                dest: f(Role::Dest, *dest),
                tag: f(Role::Tag, *tag),
                comm: comm.map(|c| f(Role::Comm, c)),
            },
            MpiOp::Irecv { src, tag, comm } => MpiOp::Irecv {
                src: f(Role::Src, *src),
                tag: f(Role::Tag, *tag),
                comm: comm.map(|c| f(Role::Comm, c)),
            },
            MpiOp::Wait { request } => MpiOp::Wait {
                request: f(Role::Request, *request),
            },
            MpiOp::Waitall { requests } => MpiOp::Waitall {
                requests: O::list(requests).map(|r| f(Role::Request, r)).collect(),
            },
        }
    }

    /// Every operand with its role, in source order.
    pub fn operands(&self, f: impl FnMut(Role, O)) {
        let _: MpiOp<()> = self.map(f);
    }

    /// The MPI name, e.g. `MPI_Isend`.
    pub fn name(&self) -> &'static str {
        match self {
            MpiOp::Init { required: None } => "MPI_Init",
            MpiOp::Init { required: Some(_) } => "MPI_Init_thread",
            MpiOp::Finalize => "MPI_Finalize",
            MpiOp::Collective { kind, .. } => kind.mpi_name(),
            MpiOp::Send { .. } => "MPI_Send",
            MpiOp::Recv { .. } => "MPI_Recv",
            MpiOp::CommWorld => "MPI_COMM_WORLD",
            MpiOp::CommSplit { .. } => "MPI_Comm_split",
            MpiOp::CommDup { .. } => "MPI_Comm_dup",
            MpiOp::Isend { .. } => "MPI_Isend",
            MpiOp::Irecv { .. } => "MPI_Irecv",
            MpiOp::Wait { .. } => "MPI_Wait",
            MpiOp::Waitall { .. } => "MPI_Waitall",
        }
    }

    /// The collective kind, if this is a data collective.
    pub fn collective_kind(&self) -> Option<CollectiveKind> {
        match self {
            MpiOp::Collective { kind, .. } => Some(*kind),
            _ => None,
        }
    }

    /// For an operation that synchronizes like a collective — a data
    /// collective, or `MPI_Comm_split`/`MPI_Comm_dup`, which synchronize
    /// their parent's members — its `CC` color and the communicator it
    /// synchronizes (None = `MPI_COMM_WORLD`). The static phases treat
    /// all of them as collective events.
    pub fn synchronizes(&self) -> Option<(u32, Option<O>)> {
        match self {
            MpiOp::Collective { kind, comm, .. } => Some((kind.color(), *comm)),
            MpiOp::CommSplit { parent, .. } => Some((COLOR_COMM_SPLIT, Some(*parent))),
            MpiOp::CommDup { comm } => Some((COLOR_COMM_DUP, Some(*comm))),
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
            MpiOp::Send { .. }
                | MpiOp::Recv { .. }
                | MpiOp::Isend { .. }
                | MpiOp::Irecv { .. }
                | MpiOp::Wait { .. }
                | MpiOp::Waitall { .. }
        )
    }

    /// The type of the operation's result ([`Type::Void`] for none),
    /// given its payload's type; `None` when a collective's payload is
    /// missing or has the wrong type.
    pub fn result_type(&self, payload: Option<Type>) -> Option<Type> {
        Some(match self {
            MpiOp::Init { .. } | MpiOp::Finalize | MpiOp::Send { .. } | MpiOp::Waitall { .. } => {
                Type::Void
            }
            // Halo exchanges carry field values: a receive yields float
            // (integer payloads are coerced at run time), a send
            // completion 0.0.
            MpiOp::Recv { .. } | MpiOp::Wait { .. } => Type::Float,
            MpiOp::CommWorld | MpiOp::CommSplit { .. } | MpiOp::CommDup { .. } => Type::Comm,
            MpiOp::Isend { .. } | MpiOp::Irecv { .. } => Type::Request,
            MpiOp::Collective {
                kind: CollectiveKind::Barrier,
                ..
            } => Type::Void,
            MpiOp::Collective { kind, .. } => kind.result_type(payload?)?,
        })
    }
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

    /// The bare identifier used in source, as [`ThreadLevel::from_name`]
    /// reads it.
    pub fn name(self) -> &'static str {
        match self {
            ThreadLevel::Single => "SINGLE",
            ThreadLevel::Funneled => "FUNNELED",
            ThreadLevel::Serialized => "SERIALIZED",
            ThreadLevel::Multiple => "MULTIPLE",
        }
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

/// A variable's binding slot: its index among the variables its
/// function declares, in declaration order, the parameters first (slot
/// `k` is parameter `k`). Sema assigns slots; [`NO_SLOT`] before it runs.
pub type Slot = u32;

/// The slot of a node sema has not resolved, or that names nothing.
pub const NO_SLOT: Slot = u32::MAX;

/// Expression node. Sub-expressions are [`ExprId`]s into the arena of
/// the function the node belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// Source span.
    pub span: Span,
    /// The type sema gave it; [`Type::Void`] until sema runs.
    pub ty: Type,
    /// What sema resolved its name to: the variable's [`Slot`] for
    /// `Var` and `Index`, the callee's index in [`Program::functions`]
    /// for `Call`.
    pub slot: Slot,
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
    Mpi(MpiOp<ExprId>),
    /// `MPI_ANY_SOURCE`, the receive-source wildcard: an int
    /// ([`ANY_SOURCE`]).
    AnySource,
    /// `MPI_ANY_TAG`, the receive-tag wildcard: an int ([`ANY_TAG`]).
    AnyTag,
}

impl Expr {
    /// Construct an expression.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr {
            kind,
            span,
            ty: Type::Void,
            slot: NO_SLOT,
        }
    }

    /// Integer literal helper.
    pub fn int(v: i64, span: Span) -> Self {
        Expr::new(ExprKind::Int(v), span)
    }

    /// The direct sub-expressions, in source order.
    pub fn children(&self, mut f: impl FnMut(ExprId)) {
        match &self.kind {
            ExprKind::Int(_)
            | ExprKind::Float(_)
            | ExprKind::Bool(_)
            | ExprKind::Var(_)
            | ExprKind::AnySource
            | ExprKind::AnyTag => {}
            ExprKind::Index(_, e) | ExprKind::Unary(_, e) => f(*e),
            ExprKind::Binary(_, l, r) => {
                f(*l);
                f(*r);
            }
            ExprKind::Call(_, args) | ExprKind::Intrinsic(_, args) => args.iter().for_each(f),
            ExprKind::Mpi(op) => op.operands(|_, e| f(e)),
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

/// A run of consecutive statements in a function's arena
/// ([`Function::stmts`]): the body of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StmtRange {
    /// Arena index of the first statement.
    pub start: u32,
    /// Number of statements.
    pub len: u32,
}

impl StmtRange {
    /// The range's statements in `arena`, the [`Function::stmts`] of the
    /// function it belongs to.
    pub fn of(self, arena: &[Stmt]) -> &[Stmt] {
        &arena[self.start as usize..(self.start + self.len) as usize]
    }
}

/// A `{ ... }` block of statements. The statements live in the arena of
/// the function the block belongs to ([`Function::stmts`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// Where the statements are, in order.
    pub stmts: StmtRange,
    /// Span of the whole block including braces.
    pub span: Span,
}

/// Statement node.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// What the statement is.
    pub kind: StmtKind,
    /// Source span.
    pub span: Span,
    /// The [`Slot`] sema resolved the variable it declares (`let`,
    /// `for`, `pfor`) or assigns to.
    pub slot: Slot,
}

impl Stmt {
    /// Construct a statement.
    pub fn new(kind: StmtKind, span: Span) -> Self {
        let slot = NO_SLOT;
        Stmt { kind, span, slot }
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

/// A function definition, together with the arenas its statements and
/// expressions live in: blocks name statements by [`StmtRange`] and
/// statements name expressions by [`ExprId`], so a function and both of
/// its arenas are replaced together.
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
    /// Every statement of the body, each block's run consecutive; a
    /// nested block's run precedes the run of the block around it.
    pub stmts: Vec<Stmt>,
    /// Every expression of the body; children precede their parent.
    pub exprs: Vec<Expr>,
    /// Span of the whole definition.
    pub span: Span,
}

impl Function {
    /// The statements of block `b` of this function, in order.
    pub fn stmts(&self, b: &Block) -> &[Stmt] {
        b.stmts.of(&self.stmts)
    }

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

    /// Total number of statements (nested ones included), a rough size
    /// metric used by the benchmark tables: every statement sits in its
    /// function's arena exactly once.
    pub fn stmt_count(&self) -> usize {
        self.functions.iter().map(|f| f.stmts.len()).sum()
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
        let StmtKind::Let { init, .. } = &f.stmts(&f.body)[0].kind else {
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
