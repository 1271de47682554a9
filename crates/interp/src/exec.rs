//! The hybrid executor: runs lowered MiniHPC modules over the `ompsim`
//! fork/join substrate and the `mpisim` MPI world, executing PARCOACH
//! dynamic checks in-line ("Static Instrumentation for Execution-Time
//! Verification", paper §3).
//!
//! Each MPI rank is an OS thread (rank 0 the caller's) and `parallel`
//! regions fork real teams whose member 0 is the encountering thread:
//! the simulated program's threads are the only threads. Each is one
//! `SimThread`: its rank's environment, its place in the team tree, its
//! own `ThreadState` — step lease, frame pool, counters — and the check
//! records of its team, so interpretation between two synchronisations
//! shares nothing.
//! Registers follow OpenMP sharing rules. A register assigned before a
//! parallel region and written inside it becomes a shared cell at the
//! fork, so a write is seen by the team and, after the join, by the
//! encountering thread. A register the region only reads reaches each
//! member as a copy in its frame (`firstprivate`): nothing writes it
//! while the team runs, since the encountering thread is member 0 until
//! the join. Everything else is thread-private.
//!
//! Scalars are copied; arrays are reference types, so element writes are
//! visible across threads, nested parallel regions and function calls —
//! the shared-memory semantics of the C/Fortran codes the paper analyses.
//! An array is one `Arc` of atomic elements (a float element holds its
//! bits in an `AtomicU64`) and takes no lock: its length is fixed when it
//! is created, and each element is loaded and stored on its own with
//! `Relaxed` ordering. Team barriers, joins and MPI calls synchronise
//! through the simulators' locks, which order element accesses between
//! them; a simulated program that races on an element sees the race as
//! values, as its C original would. A copied array register still names
//! the one array; an MPI payload is a copy of its elements.
//!
//! A function runs from its `FuncCode`, decoded on its first call: each
//! register has a home in one of its frame's two typed banks — scalars
//! as `u64` bits, arrays as `Arc`s — each operand is a home or an
//! immediate, and each instruction one typed operation, so a step reads
//! and writes bits without asking what type they have. An MPI operation
//! builds its payload from the banks and writes its result back into
//! them; `print` formats from a type and the bits.

use crate::error::{RunError, RunErrorKind, RunReport, RunStats};
use parcoach_front::ast::{
    BinOp, CollectiveKind, Intrinsic, Operand, Role, ThreadLevel, Type, UnOp, COLOR_COMM_DUP,
    COLOR_COMM_SPLIT,
};
use parcoach_front::span::Span;
use parcoach_ir::func::{FuncIr, Locator, Module};
use parcoach_ir::instr::{BlockKind, CheckOp, Directive, Instr, MpiOp, Terminator};
use parcoach_ir::types::{BlockId, Const, Reg, RegionId, Value as IrValue};
use parcoach_mpisim::{MpiConfig, MpiError, MpiType, MpiValue, Signature, World};
use parcoach_ompsim::{
    BarrierError, ForkError, OmpConfig, OmpError, OmpSim, ThreadCtx, MAX_THREADS,
};
use parcoach_sync::{Mutex, ReentrantMutexGuard};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{
    AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering, Ordering::Relaxed,
};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Execution configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of MPI ranks.
    pub ranks: usize,
    /// Default team size for `parallel` without `num_threads`.
    pub default_threads: usize,
    /// Thread-barrier divergence timeout.
    pub barrier_timeout: Duration,
    /// MPI blocking-operation timeout.
    pub mpi_timeout: Duration,
    /// Global instruction budget (infinite-loop guard).
    pub max_steps: u64,
}

/// Maximum call depth: a deeper call is a [`RunErrorKind::StackOverflow`].
const MAX_CALL_DEPTH: usize = 128;

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            ranks: 2,
            default_threads: 4,
            barrier_timeout: Duration::from_secs(2),
            mpi_timeout: Duration::from_secs(5),
            max_steps: 200_000_000,
        }
    }
}

impl RunConfig {
    /// A configuration with short timeouts, for tests that provoke
    /// deadlocks.
    pub fn fast_fail(ranks: usize, threads: usize) -> RunConfig {
        RunConfig {
            ranks,
            default_threads: threads,
            barrier_timeout: Duration::from_millis(300),
            mpi_timeout: Duration::from_millis(600),
            ..RunConfig::default()
        }
    }
}

/// Where an operand is, decoded once per function: an immediate, or a
/// register's home in its frame's banks. A register that a `parallel`
/// region of the function shares has a cell home: a fork gives it a
/// cell the team shares, and until one has, it lives in its bank like
/// any other.
#[derive(Debug, Clone, Copy)]
enum Opd {
    /// A scalar immediate's bits.
    Imm(u64),
    /// `Frame::scalars[i]`.
    Reg(u32),
    /// `Frame::cells[i]` once a fork has made it, else `scalars[i]`.
    Cell(u32),
    /// `Frame::arrays[i]`.
    Arr(u32),
    /// `Frame::array_cells[i]` once a fork has made it, else `arrays[i]`.
    ArrCell(u32),
}

/// An operand of a decoded MPI operation: `MPI_Waitall`'s list is a
/// boxed slice.
impl Operand for Opd {
    type List = Box<[Opd]>;

    fn list(list: &Self::List) -> impl Iterator<Item = Opd> + '_ {
        list.iter().copied()
    }
}

/// An array's elements: each an `i64`'s or an `f64`'s bits, as the
/// array's static type says.
type Array = Arc<Vec<AtomicU64>>;

/// The request-register default: an invalid handle the simulator
/// rejects, so waiting on a never-posted request cannot silently alias
/// request #0.
const NULL_REQUEST: u64 = usize::MAX as u64;

/// The bits a scalar register of type `ty` holds before its first
/// assignment: zero, `0.0`, `false`, `MPI_COMM_WORLD`, or the null
/// request.
fn default_bits(ty: Type) -> u64 {
    match ty {
        Type::Request => NULL_REQUEST,
        _ => 0,
    }
}

/// A constant's bits.
fn const_bits(c: Const) -> u64 {
    match c {
        Const::Int(x) => x as u64,
        Const::Float(x) => x.to_bits(),
        Const::Bool(x) => x as u64,
    }
}

/// `len` copies of `bits` as an array, or `None` when the memory cannot
/// be had (the program asked for more than the machine has, or than an
/// address space holds).
fn filled_array(len: usize, bits: u64) -> Option<Array> {
    let mut v = Vec::new();
    v.try_reserve_exact(len).ok()?;
    v.extend((0..len).map(|_| AtomicU64::new(bits)));
    Some(Arc::new(v))
}

/// A cell a team shares a scalar register through. `Relaxed`: team
/// barriers, joins and MPI calls order the accesses, as they order array
/// elements'.
type Cell = Arc<AtomicU64>;

/// A cell a team shares an array register through: the register can be
/// assigned a new array, so the cell holds the reference under a lock.
type ArrayCell = Arc<Mutex<Option<Array>>>;

/// One activation's registers in two banks by type: each scalar (`int`,
/// `float` bits, `bool`, `comm`, `request`) as `u64` bits, each array as
/// its reference (`None` until assigned: an empty array). In a function
/// whose regions share registers, the cell vectors are as long as their
/// banks; elsewhere they are empty.
#[derive(Default)]
struct Frame {
    scalars: Vec<u64>,
    arrays: Vec<Option<Array>>,
    cells: Vec<Option<Cell>>,
    array_cells: Vec<Option<ArrayCell>>,
}

impl Frame {
    /// Lay out `code`'s registers, each at its type's default.
    fn enter(&mut self, code: &FuncCode) {
        self.scalars.extend_from_slice(&code.scalar_init);
        self.arrays.resize(code.arrays, None);
        if code.shares {
            self.cells.resize(code.scalar_init.len(), None);
            self.array_cells.resize(code.arrays, None);
        }
    }

    /// Become a team member's copy of `parent`: the private registers
    /// copied, the cells the same cells.
    fn copy_of(&mut self, parent: &Frame) {
        self.scalars.extend_from_slice(&parent.scalars);
        self.arrays.extend_from_slice(&parent.arrays);
        self.cells.extend_from_slice(&parent.cells);
        self.array_cells.extend_from_slice(&parent.array_cells);
    }

    fn clear(&mut self) {
        self.scalars.clear();
        self.arrays.clear();
        self.cells.clear();
        self.array_cells.clear();
    }

    /// The bits of scalar operand `o`.
    #[inline(always)]
    fn get(&self, o: Opd) -> u64 {
        match o {
            Opd::Imm(x) => x,
            Opd::Reg(i) => self.scalars[i as usize],
            Opd::Cell(i) => match &self.cells[i as usize] {
                Some(c) => c.load(Ordering::Relaxed),
                None => self.scalars[i as usize],
            },
            Opd::Arr(_) | Opd::ArrCell(_) => unreachable!("an array read as a scalar"),
        }
    }

    /// Set scalar register `o` to `v`.
    #[inline(always)]
    fn set(&mut self, o: Opd, v: u64) {
        match o {
            Opd::Reg(i) => self.scalars[i as usize] = v,
            Opd::Cell(i) => match &self.cells[i as usize] {
                Some(c) => c.store(v, Ordering::Relaxed),
                None => self.scalars[i as usize] = v,
            },
            Opd::Imm(_) | Opd::Arr(_) | Opd::ArrCell(_) => unreachable!("a scalar set to {o:?}"),
        }
    }

    /// Look at array register `o` in place.
    #[inline(always)]
    fn with_array_reg<R>(&self, o: Opd, f: impl FnOnce(&Option<Array>) -> R) -> R {
        match o {
            Opd::Arr(i) => f(&self.arrays[i as usize]),
            Opd::ArrCell(i) => match &self.array_cells[i as usize] {
                Some(c) => f(&c.lock()),
                None => f(&self.arrays[i as usize]),
            },
            Opd::Imm(_) | Opd::Reg(_) | Opd::Cell(_) => unreachable!("a scalar read as an array"),
        }
    }

    /// Look at array register `o`'s elements in place: an element access
    /// costs no reference-count round trip on a line the whole team
    /// writes.
    #[inline(always)]
    fn with_array<R>(&self, o: Opd, f: impl FnOnce(&[AtomicU64]) -> R) -> R {
        self.with_array_reg(o, |a| f(a.as_deref().map_or(&[], |v| v)))
    }

    /// Array register `o`'s reference.
    fn array(&self, o: Opd) -> Option<Array> {
        self.with_array_reg(o, Option::clone)
    }

    /// Set array register `o` to `a`.
    fn set_array(&mut self, o: Opd, a: Option<Array>) {
        match o {
            Opd::Arr(i) => self.arrays[i as usize] = a,
            Opd::ArrCell(i) => match &self.array_cells[i as usize] {
                Some(c) => *c.lock() = a,
                None => self.arrays[i as usize] = a,
            },
            Opd::Imm(_) | Opd::Reg(_) | Opd::Cell(_) => unreachable!("an array set to {o:?}"),
        }
    }

    /// Copy `from`'s operand `src` into this frame's register `dst`.
    fn copy_from(&mut self, dst: Opd, from: &Frame, src: Opd) {
        match dst {
            Opd::Arr(_) | Opd::ArrCell(_) => self.set_array(dst, from.array(src)),
            _ => self.set(dst, from.get(src)),
        }
    }

    /// Operand `o` as an MPI payload of type `ty`: an array is copied
    /// element by element, so a later store does not reach the message.
    fn payload(&self, o: Opd, ty: MpiType) -> MpiValue {
        match ty {
            MpiType::Int => MpiValue::Int(self.get(o) as i64),
            MpiType::Float => MpiValue::Float(f64::from_bits(self.get(o))),
            MpiType::ArrayInt => MpiValue::ArrayInt(
                self.with_array(o, |a| a.iter().map(|x| x.load(Relaxed) as i64).collect()),
            ),
            MpiType::ArrayFloat => MpiValue::ArrayFloat(self.with_array(o, |a| {
                a.iter().map(|x| f64::from_bits(x.load(Relaxed))).collect()
            })),
        }
    }

    /// Write the result `v` of an MPI operation into register `o`: an
    /// array as a fresh array, a scalar as bits, an int as a float when
    /// `float` (`MPI_Recv` and `MPI_Wait` are float-typed).
    fn complete(&mut self, o: Opd, v: MpiValue, float: bool) {
        let array = |bits: Vec<u64>| Some(Arc::new(bits.into_iter().map(AtomicU64::new).collect()));
        match v {
            MpiValue::Int(x) if float => self.set(o, (x as f64).to_bits()),
            MpiValue::Int(x) => self.set(o, x as u64),
            MpiValue::Float(x) => self.set(o, x.to_bits()),
            MpiValue::ArrayInt(a) => {
                self.set_array(o, array(a.into_iter().map(|x| x as u64).collect()))
            }
            MpiValue::ArrayFloat(a) => {
                self.set_array(o, array(a.into_iter().map(f64::to_bits).collect()))
            }
        }
    }

    /// Append operand `o`, of type `ty`, to `line` as `print` shows it:
    /// an array as a `Vec`'s `{:?}` does (`[1, 2]`, `[0.5, 2.0]`), a
    /// handle as `comm#N` or `request#N`.
    fn show(&self, line: &mut String, o: Opd, ty: Type) {
        use std::fmt::Write as _;
        let elems = |line: &mut String, a: &[AtomicU64], float: bool| {
            line.push('[');
            for (k, x) in a.iter().enumerate() {
                let (bits, sep) = (x.load(Relaxed), if k > 0 { ", " } else { "" });
                let _ = if float {
                    write!(line, "{sep}{:?}", f64::from_bits(bits))
                } else {
                    write!(line, "{sep}{}", bits as i64)
                };
            }
            line.push(']');
        };
        let _ = match ty {
            Type::ArrayInt | Type::ArrayFloat => {
                return self.with_array(o, |a| elems(line, a, ty == Type::ArrayFloat));
            }
            Type::Float => write!(line, "{}", f64::from_bits(self.get(o))),
            Type::Bool => write!(line, "{}", self.get(o) != 0),
            Type::Comm => write!(line, "comm#{}", self.get(o)),
            Type::Request if self.get(o) == NULL_REQUEST => write!(line, "request#<null>"),
            Type::Request => write!(line, "request#{}", self.get(o)),
            Type::Int | Type::Void => write!(line, "{}", self.get(o) as i64),
        };
    }

    /// Give each of `shared` a cell, unless it has one (a cell of an
    /// enclosing region stays that cell); how many cells it made.
    fn share(&mut self, shared: &[Opd]) -> u64 {
        let mut made = 0;
        for &o in shared {
            match o {
                Opd::Cell(i) => {
                    let (cell, v) = (&mut self.cells[i as usize], self.scalars[i as usize]);
                    if cell.is_none() {
                        *cell = Some(Arc::new(AtomicU64::new(v)));
                        made += 1;
                    }
                }
                Opd::ArrCell(i) => {
                    let cell = &mut self.array_cells[i as usize];
                    if cell.is_none() {
                        let a = self.arrays[i as usize].clone();
                        *cell = Some(Arc::new(Mutex::new(a)));
                        made += 1;
                    }
                }
                _ => unreachable!("a shared register has a cell home"),
            }
        }
        made
    }
}

/// One typed operation on scalar bits, chosen by decode from an IR
/// operator and its operands' type: `I` on `i64`s, `F` on `f64`s, `Eq`
/// and `Ne` on `int` or `bool` bits, `And`/`Or`/`Not` on `bool` bits.
#[derive(Clone, Copy)]
enum Alu {
    AddI,
    SubI,
    MulI,
    DivI,
    RemI,
    AddF,
    SubF,
    MulF,
    DivF,
    RemF,
    Eq,
    Ne,
    EqF,
    NeF,
    LtI,
    LeI,
    GtI,
    GeI,
    LtF,
    LeF,
    GtF,
    GeF,
    And,
    Or,
    NegI,
    NegF,
    Not,
    AbsI,
    AbsF,
    MinI,
    MinF,
    MaxI,
    MaxF,
    Sqrt,
    IntOf,
    FloatOf,
}

impl Alu {
    /// Binary operator `op` on operands of type `ty`.
    fn binary(op: BinOp, ty: Type) -> Alu {
        use Alu::*;
        let float = ty == Type::Float;
        match op {
            BinOp::Add => [AddI, AddF][float as usize],
            BinOp::Sub => [SubI, SubF][float as usize],
            BinOp::Mul => [MulI, MulF][float as usize],
            BinOp::Div => [DivI, DivF][float as usize],
            BinOp::Rem => [RemI, RemF][float as usize],
            BinOp::Eq => [Eq, EqF][float as usize],
            BinOp::Ne => [Ne, NeF][float as usize],
            BinOp::Lt => [LtI, LtF][float as usize],
            BinOp::Le => [LeI, LeF][float as usize],
            BinOp::Gt => [GtI, GtF][float as usize],
            BinOp::Ge => [GeI, GeF][float as usize],
            BinOp::And => And,
            BinOp::Or => Or,
        }
    }

    /// `self` on `a` and `b` (a unary operation ignores `b`).
    #[inline(always)]
    fn apply(self, a: u64, b: u64) -> Result<u64, RunErrorKind> {
        use Alu::*;
        let (i, j) = (a as i64, b as i64);
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        Ok(match self {
            AddI => i.wrapping_add(j) as u64,
            SubI => i.wrapping_sub(j) as u64,
            MulI => i.wrapping_mul(j) as u64,
            DivI | RemI if j == 0 => return Err(RunErrorKind::DivisionByZero),
            DivI => i.wrapping_div(j) as u64,
            RemI => i.wrapping_rem(j) as u64,
            AddF => (x + y).to_bits(),
            SubF => (x - y).to_bits(),
            MulF => (x * y).to_bits(),
            DivF => (x / y).to_bits(),
            RemF => (x % y).to_bits(),
            Eq => (a == b) as u64,
            Ne => (a != b) as u64,
            EqF => (x == y) as u64,
            NeF => (x != y) as u64,
            LtI => (i < j) as u64,
            LeI => (i <= j) as u64,
            GtI => (i > j) as u64,
            GeI => (i >= j) as u64,
            LtF => (x < y) as u64,
            LeF => (x <= y) as u64,
            GtF => (x > y) as u64,
            GeF => (x >= y) as u64,
            And => a & b,
            Or => a | b,
            NegI => i.wrapping_neg() as u64,
            NegF => (-x).to_bits(),
            Not => (a == 0) as u64,
            AbsI => i.wrapping_abs() as u64,
            AbsF => x.abs().to_bits(),
            MinI => i.min(j) as u64,
            MinF => x.min(y).to_bits(),
            MaxI => i.max(j) as u64,
            MaxF => x.max(y).to_bits(),
            Sqrt => x.sqrt().to_bits(),
            IntOf => x as i64 as u64,
            FloatOf => (i as f64).to_bits(),
        })
    }
}

/// One IR instruction, decoded.
enum Op {
    /// A scalar `dest = src`.
    Copy(Opd, Opd),
    /// An array register's `dest = src`.
    CopyArray(Opd, Opd),
    /// `dest = a op b`.
    Alu(Alu, Opd, Opd, Opd),
    ArrayNew {
        dest: Opd,
        len: Opd,
        init: Opd,
    },
    Load {
        dest: Opd,
        arr: Opd,
        idx: Opd,
    },
    Store {
        arr: Opd,
        idx: Opd,
        value: Opd,
    },
    /// `dest = len(arr)`.
    Len(Opd, Opd),
    /// `dest = ` what the running thread is (`rank()`, `thread_num()`, …).
    Query(Intrinsic, Opd),
    Call {
        dest: Option<Opd>,
        callee: usize,
        args: Box<[Opd]>,
    },
    /// An MPI operation, its result written to `dest`. (Boxed: an MPI
    /// call costs far more than the pointer, and the other ops stay
    /// small.)
    Mpi {
        dest: Option<Opd>,
        op: Box<MpiOp<Opd>>,
        /// The payload's type, for an operation that sends one.
        ty: Option<MpiType>,
    },
    /// `print` of each operand, of its type.
    Print(Box<[(Opd, Type)]>),
    /// A check, and the communicator a `CollectiveCc` runs on.
    Check(CheckOp, Opd),
}

/// A block's terminator, decoded.
enum Term {
    Goto(BlockId),
    Branch(Opd, BlockId, BlockId),
    Return(Option<Opd>),
    /// A non-void function's end without a `return`.
    MissingReturn,
}

/// A function decoded for execution, once per executor on its first
/// call, from `FuncIr::reg_types` and its instructions.
struct FuncCode {
    /// Each register's home, indexed by `Reg`.
    homes: Vec<Opd>,
    /// The scalar bank's defaults.
    scalar_init: Vec<u64>,
    /// The array bank's length.
    arrays: usize,
    /// Whether a region shares a register: the frame then has cells.
    shares: bool,
    /// One op per instruction of `FuncIr::instrs`, in its order: an
    /// instruction's position is its op's.
    ops: Vec<Op>,
    /// Each block's terminator, indexed by `BlockId`.
    terms: Vec<Term>,
    /// The plans of the function's parallel regions, indexed by
    /// `RegionId`.
    plans: Vec<Option<RegionPlan>>,
}

/// Precomputed facts about one `parallel` region.
struct RegionPlan {
    body_entry: BlockId,
    /// The implicit barrier lowering puts at the end of the body. A
    /// member that reaches it runs the checks attached to it and leaves
    /// the body: the join that follows is the one synchronisation the
    /// region's end needs.
    end_barrier: BlockId,
    end_block: BlockId,
    /// The homes of the registers assigned outside the region and
    /// written inside it: shared cells. The rest of the frame reaches the
    /// members as a copy.
    shared: Vec<Opd>,
}

impl FuncCode {
    fn decode(f: &FuncIr) -> FuncCode {
        // The regions first: the registers they share get cell homes.
        let mut regions = Vec::new();
        let mut shared = vec![false; f.reg_types.len()];
        for (bid, b) in f.iter_blocks() {
            if let Some(Directive::ParallelBegin { region, .. }) = b.directive() {
                let (plan, regs) = region_plan(f, bid, *region);
                for r in &regs {
                    shared[r.index()] = true;
                }
                regions.push((region.0 as usize, plan, regs));
            }
        }
        let (mut scalar_init, mut arrays) = (Vec::new(), 0);
        let homes: Vec<Opd> = f
            .reg_types
            .iter()
            .zip(&shared)
            .map(|(&ty, &cell)| {
                if ty.is_array() {
                    arrays += 1;
                    let i = arrays - 1;
                    [Opd::Arr(i), Opd::ArrCell(i)][cell as usize]
                } else {
                    let i = scalar_init.len() as u32;
                    scalar_init.push(default_bits(ty));
                    [Opd::Reg(i), Opd::Cell(i)][cell as usize]
                }
            })
            .collect();
        let mut plans: Vec<Option<RegionPlan>> = Vec::new();
        for (region, mut plan, regs) in regions {
            plan.shared = regs.iter().map(|r| homes[r.index()]).collect();
            if plans.len() <= region {
                plans.resize_with(region + 1, || None);
            }
            plans[region] = Some(plan);
        }
        let opd = |v: IrValue| operand(&homes, v);
        let terms = f
            .blocks
            .iter()
            .map(|b| match &b.term {
                Terminator::Goto(next) => Term::Goto(*next),
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => Term::Branch(opd(*cond), *then_bb, *else_bb),
                Terminator::Return { value: Some(v) } => Term::Return(Some(opd(*v))),
                Terminator::Return { value: None } if f.ret == Type::Void => Term::Return(None),
                Terminator::Return { value: None } | Terminator::Unreachable => Term::MissingReturn,
            })
            .collect();
        let ops = f.instrs.iter().map(|(i, _)| decode(f, &homes, i)).collect();
        FuncCode {
            shares: shared.contains(&true),
            homes,
            scalar_init,
            arrays: arrays as usize,
            ops,
            terms,
            plans,
        }
    }
}

/// Operand `v` of a function whose registers live at `homes`.
fn operand(homes: &[Opd], v: IrValue) -> Opd {
    match v {
        IrValue::Const(c) => Opd::Imm(const_bits(c)),
        IrValue::Reg(r) => homes[r.index()],
    }
}

/// Decode instruction `i` of `f`, whose registers live at `homes`.
fn decode(f: &FuncIr, homes: &[Opd], i: &Instr) -> Op {
    let opd = |v: IrValue| operand(homes, v);
    let home = |r: Reg| homes[r.index()];
    let ty = |v: IrValue| match v {
        IrValue::Const(c) => c.ty(),
        IrValue::Reg(r) => f.reg_types[r.index()],
    };
    let none = Opd::Imm(0);
    match i {
        Instr::Copy { dest, src } if f.reg_types[dest.index()].is_array() => {
            Op::CopyArray(home(*dest), opd(*src))
        }
        Instr::Copy { dest, src } => Op::Copy(home(*dest), opd(*src)),
        Instr::Unary { dest, op, src } => {
            let alu = match (op, ty(*src)) {
                (UnOp::Neg, Type::Float) => Alu::NegF,
                (UnOp::Neg, _) => Alu::NegI,
                (UnOp::Not, _) => Alu::Not,
            };
            Op::Alu(alu, home(*dest), opd(*src), none)
        }
        Instr::Binary { dest, op, lhs, rhs } => Op::Alu(
            Alu::binary(*op, ty(*lhs)),
            home(*dest),
            opd(*lhs),
            opd(*rhs),
        ),
        Instr::ArrayNew {
            dest, len, init, ..
        } => Op::ArrayNew {
            dest: home(*dest),
            len: opd(*len),
            init: opd(*init),
        },
        Instr::Load { dest, arr, idx } => Op::Load {
            dest: home(*dest),
            arr: home(*arr),
            idx: opd(*idx),
        },
        Instr::Store { arr, idx, value } => Op::Store {
            arr: home(*arr),
            idx: opd(*idx),
            value: opd(*value),
        },
        Instr::Intrinsic { dest, intr, args } => {
            let d = home(*dest);
            let arg = |k: usize| opd(args[k]);
            let float = args.first().is_some_and(|a| ty(*a) == Type::Float);
            let alu = |int, flt| [int, flt][float as usize];
            match intr {
                Intrinsic::Rank
                | Intrinsic::Size
                | Intrinsic::ThreadNum
                | Intrinsic::NumThreads
                | Intrinsic::InParallel => Op::Query(*intr, d),
                Intrinsic::Len => Op::Len(d, arg(0)),
                Intrinsic::Sqrt => Op::Alu(Alu::Sqrt, d, arg(0), none),
                Intrinsic::IntOf => Op::Alu(Alu::IntOf, d, arg(0), none),
                Intrinsic::FloatOf => Op::Alu(Alu::FloatOf, d, arg(0), none),
                Intrinsic::Abs => Op::Alu(alu(Alu::AbsI, Alu::AbsF), d, arg(0), none),
                Intrinsic::MinOf => Op::Alu(alu(Alu::MinI, Alu::MinF), d, arg(0), arg(1)),
                Intrinsic::MaxOf => Op::Alu(alu(Alu::MaxI, Alu::MaxF), d, arg(0), arg(1)),
                Intrinsic::ArrayNew => unreachable!("lowered to Instr::ArrayNew"),
            }
        }
        Instr::Call { dest, callee, args } => Op::Call {
            dest: dest.map(home),
            callee: *callee,
            args: args.iter().map(|a| opd(*a)).collect(),
        },
        Instr::Mpi { dest, op } => {
            let mut payload = None;
            let op = op.map(|role, v| {
                if role == Role::Value {
                    payload = Some(mpi_type(ty(v)));
                }
                opd(v)
            });
            Op::Mpi {
                dest: dest.map(home),
                op: Box::new(op),
                ty: payload,
            }
        }
        Instr::Print { args } => Op::Print(args.iter().map(|&a| (opd(a), ty(a))).collect()),
        Instr::Check(check) => {
            let comm = match check {
                CheckOp::CollectiveCc { comm: Some(c), .. } => opd(*c),
                _ => Opd::Imm(0),
            };
            Op::Check(check.clone(), comm)
        }
    }
}

/// The payload type of a value of type `ty`: a `bool` travels as an
/// `int`.
fn mpi_type(ty: Type) -> MpiType {
    match ty {
        Type::Int | Type::Bool => MpiType::Int,
        Type::Float => MpiType::Float,
        Type::ArrayInt => MpiType::ArrayInt,
        Type::ArrayFloat => MpiType::ArrayFloat,
        Type::Comm | Type::Request | Type::Void => panic!("{ty} is not an MPI payload"),
    }
}

/// A function as the step functions read it: its index, its IR (for
/// directives and error positions) and its code.
#[derive(Clone, Copy)]
struct Func<'e> {
    idx: usize,
    ir: &'e FuncIr,
    code: &'e FuncCode,
}

impl Func<'_> {
    fn home(&self, r: Reg) -> Opd {
        self.code.homes[r.index()]
    }

    /// The bits of scalar operand `v`.
    fn scalar(&self, frame: &Frame, v: IrValue) -> u64 {
        frame.get(operand(&self.code.homes, v))
    }
}

/// How many concurrency and monothread-assert sites the module's checks
/// name, computed once per executor. Both kinds of site id are dense
/// (the analysis numbers concurrency sites 0..n across functions, the
/// instrumentation numbers asserts), so the per-rank counters and the
/// per-team records are flat vectors indexed by site.
#[derive(Default)]
struct SiteTable {
    /// One slot per `ConcEnter`/`ConcExit` site id.
    conc_sites: usize,
    /// One slot per `AssertMonothread` site id.
    mono_sites: usize,
}

impl SiteTable {
    fn build(module: &Module) -> SiteTable {
        let mut sites = SiteTable::default();
        for (i, _) in module.funcs.iter().flat_map(|f| &f.instrs) {
            let (count, site) = match i {
                Instr::Check(CheckOp::ConcEnter { site } | CheckOp::ConcExit { site }) => {
                    (&mut sites.conc_sites, site)
                }
                Instr::Check(CheckOp::AssertMonothread { site, .. }) => {
                    (&mut sites.mono_sites, site)
                }
                _ => continue,
            };
            *count = (*count).max(*site as usize + 1);
        }
        sites
    }
}

/// Per-rank runtime environment: what the run shares, borrowed from
/// [`Executor::run`]'s frame, and what the rank's threads share.
struct RankEnv<'r> {
    world: &'r World,
    omp: OmpSim,
    rank: usize,
    /// The rank's `print` lines, in arrival order.
    output: Mutex<Vec<String>>,
    /// Steps of `RunConfig::max_steps` no thread has leased yet — one
    /// counter for all ranks, touched once per [`STEP_LEASE`] steps.
    budget: &'r AtomicU64,
    /// Concurrency counters per static site (paper's `S_cc` check):
    /// live occupancy, catching regions that truly overlap in time.
    /// Occupancy is inherently cross-thread (thread A's enter must be
    /// visible to thread B's check), so the counters cannot be
    /// thread-private — but they are dense and lock-free: one atomic
    /// per interned site.
    conc: Vec<AtomicI64>,
}

/// The check records of one team instance: created when the team is
/// forked, dropped when it has joined. Outside any team only the rank's
/// initial thread runs, so neither record is needed there.
struct TeamChecks {
    /// Per interned assert site, the first member to reach it ([`NOBODY`]
    /// until one has): a second *distinct* member reaching the same site
    /// proves the context is not monothreaded.
    mono: Vec<AtomicUsize>,
    /// Per concurrency site, (barrier epoch, executions in it). The paper
    /// resets `S_cc` at synchronization points: a suspect region running
    /// *twice between barriers* of one team is an ordering error even
    /// when the schedule happens to serialize the two executions — this
    /// keeps detection deterministic on any scheduler. The epoch is each
    /// member's own barrier count, equal across the team after every
    /// barrier; a member arriving with a newer epoch restarts the count.
    /// No member counts in an older epoch afterwards: a member reaches
    /// epoch e+1 only once the whole team has arrived at barrier e.
    conc: Vec<Mutex<(u64, u32)>>,
}

/// An assert site no member has reached yet.
const NOBODY: usize = usize::MAX;

impl TeamChecks {
    fn new(sites: &SiteTable) -> TeamChecks {
        TeamChecks {
            mono: (0..sites.mono_sites)
                .map(|_| AtomicUsize::new(NOBODY))
                .collect(),
            conc: (0..sites.conc_sites).map(|_| Mutex::new((0, 0))).collect(),
        }
    }

    /// Record member `me` at assert site `site`: is it the first member
    /// that reached it? `Relaxed`: the slot publishes nothing but itself.
    fn is_first_at(&self, site: usize, me: usize) -> bool {
        match self.mono[site].compare_exchange(NOBODY, me, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => true,
            Err(first) => first == me,
        }
    }

    /// Count one execution of concurrency site `site` in barrier epoch
    /// `epoch`; the executions of the site in that epoch so far.
    fn executed(&self, site: usize, epoch: u64) -> u32 {
        let mut seen = self.conc[site].lock();
        if seen.0 < epoch {
            *seen = (epoch, 0);
        }
        seen.1 += 1;
        seen.1
    }
}

/// Steps a thread leases from the shared budget at a time: large enough
/// that interpretation touches the shared counter once in a thousand
/// steps, small enough that what the other live threads hold unexecuted
/// when one of them finds the budget empty — at most
/// `(live threads - 1) × STEP_LEASE` steps — is noise against any
/// `max_steps` worth configuring. A lease is also never more than half
/// of what is left (rounded up): near the end of the budget, one thread
/// taking its lease leaves the others theirs.
const STEP_LEASE: u64 = 1024;

/// What one simulated thread owns while it runs. Nothing in here is
/// shared, so a step, a call and a counter cost no other thread a cache
/// line.
#[derive(Default)]
struct ThreadState {
    /// Steps leased from `RankEnv::budget` and not executed yet.
    lease: u64,
    /// Retired call frames, reused by later calls (and member frame
    /// copies) so steady-state interpretation allocates no frame
    /// vectors.
    frames: Vec<Frame>,
    /// What this thread did, plus every member it has joined. `steps`
    /// counts a lease in full when it is taken; `return_lease` takes the
    /// unexecuted rest out again.
    stats: RunStats,
}

impl ThreadState {
    /// The state of a simulated thread handed to an OS thread of its
    /// own (every rank but 0, every team member but 0).
    fn dispatched() -> ThreadState {
        ThreadState {
            stats: RunStats {
                os_threads: 1,
                ..RunStats::default()
            },
            ..ThreadState::default()
        }
    }

    /// Account one step; `StepLimit` when the run's budget is spent.
    #[inline]
    fn step(&mut self, env: &RankEnv) -> Result<(), RunErrorKind> {
        if self.lease == 0 {
            // `Relaxed`: the counter publishes nothing but itself.
            let mut got = 0;
            let _ = env
                .budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                    got = left.min(STEP_LEASE).min(left.div_ceil(2));
                    (got > 0).then(|| left - got)
                });
            if got == 0 {
                return Err(RunErrorKind::StepLimit);
            }
            self.lease = got;
            self.stats.steps += got;
        }
        self.lease -= 1;
        Ok(())
    }

    /// Hand the unexecuted rest of the lease back. Every thread does so
    /// when it leaves its region or rank body, so a thread waiting at a
    /// join holds no steps another thread could still need.
    fn return_lease(&mut self, env: &RankEnv) {
        if self.lease > 0 {
            env.budget.fetch_add(self.lease, Ordering::Relaxed);
            self.stats.steps -= self.lease;
            self.lease = 0;
        }
    }

    /// A cleared frame buffer from the pool (or a fresh one).
    fn take_frame(&mut self) -> Frame {
        self.frames.pop().unwrap_or_default()
    }

    /// Return a frame's allocations to the pool.
    fn put_frame(&mut self, mut f: Frame) {
        f.clear();
        if self.frames.len() < 64 {
            self.frames.push(f);
        }
    }
}

/// One simulated thread, as every step function takes it: its rank's
/// environment, its place in the team tree, what it owns, and the check
/// records of its innermost team (`None` outside any team).
struct SimThread<'a> {
    env: &'a RankEnv<'a>,
    ctx: &'a mut ThreadCtx,
    state: &'a mut ThreadState,
    checks: Option<&'a TeamChecks>,
}

impl SimThread<'_> {
    /// The one exit of a simulated thread, however its walk ended: hand
    /// the lease back; if the walk halted, poison the thread's team so no
    /// sibling waits for it; if it faulted, abort the MPI world too (the
    /// first reason stands) so no rank does. Its fault, if any. The
    /// caller then tells the world the thread left.
    fn leave(&mut self, halt: Option<Halt>) -> Option<RunError> {
        self.state.return_lease(self.env);
        if let (Some(_), Some(team)) = (&halt, &self.ctx.team) {
            OmpSim::poison_team(team);
        }
        let Some(Halt::Fault(e)) = halt else {
            return None;
        };
        let reason = format!("rank {}: {}", self.env.rank, e.kind);
        self.env.world.abort(MpiError::Aborted(reason));
        Some(e)
    }
}

/// Control flow of a block walk: a return, with the operand it returns,
/// or the stop block reached.
enum Flow {
    Return(Option<Opd>),
    Stopped,
}

/// Why a thread's walk ended before it returned.
enum Halt {
    /// The thread's own fault, located.
    Fault(RunError),
    /// Another thread's fault or a world verdict ended the run under this
    /// thread: its MPI call was aborted or its team barrier poisoned. A
    /// stop is not a fault: the thread unwinds and reports nothing.
    Stop,
}

/// Why a step halted its thread: a fault of the step itself, which the
/// block walk locates, or a halt already decided (a callee's, or a stop).
enum StepHalt {
    Fault(RunErrorKind),
    Halt(Halt),
}

impl From<RunErrorKind> for StepHalt {
    fn from(kind: RunErrorKind) -> StepHalt {
        StepHalt::Fault(kind)
    }
}

impl From<MpiError> for StepHalt {
    fn from(e: MpiError) -> StepHalt {
        match e {
            MpiError::Aborted(_) => StepHalt::Halt(Halt::Stop),
            e => StepHalt::Fault(RunErrorKind::Mpi(e)),
        }
    }
}

/// Why [`Executor::run_within`] returned no report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoReport {
    /// The limit passed first; the run may still be going.
    TimedOut,
    /// The run panicked before producing its report.
    Panicked,
}

/// The executor: owns the module and each function's decoded code.
pub struct Executor {
    module: Module,
    cfg: RunConfig,
    /// Indexed like `Module::funcs`; a function is decoded on its first
    /// call, so building an executor costs no decode of code that never
    /// runs.
    code: Vec<OnceLock<FuncCode>>,
    sites: SiteTable,
}

impl Executor {
    /// Build an executor (precomputes the dense check-site table).
    pub fn new(module: Module, cfg: RunConfig) -> Executor {
        let sites = SiteTable::build(&module);
        Executor {
            code: module.funcs.iter().map(|_| OnceLock::new()).collect(),
            module,
            cfg,
            sites,
        }
    }

    /// Function `idx`, decoded on first use.
    fn func(&self, idx: usize) -> Func<'_> {
        let ir = &self.module.funcs[idx];
        let code = self.code[idx].get_or_init(|| FuncCode::decode(ir));
        Func { idx, ir, code }
    }

    /// The underlying module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Run the program with `cfg.ranks` MPI ranks. Never panics on
    /// verification errors — they come back classified in the report.
    pub fn run(&self) -> RunReport {
        if self.cfg.ranks > MAX_THREADS {
            // Refused before a rank starts: each rank is a thread.
            let kind = RunErrorKind::Omp(OmpError::ForkRefused(format!(
                "{} ranks would pass the {MAX_THREADS} simulated threads a run may have alive",
                self.cfg.ranks
            )));
            return RunReport {
                errors: vec![RunError::new(kind, Locator::Block(0, BlockId(0)), 0)],
                output: Vec::new(),
                stats: RunStats::default(),
            };
        }
        let live = Arc::new(AtomicUsize::new(self.cfg.ranks));
        let world = World::new(MpiConfig {
            world_size: self.cfg.ranks,
            max_provided: ThreadLevel::Multiple,
            op_timeout: self.cfg.mpi_timeout,
        });
        let budget = AtomicU64::new(self.cfg.max_steps);
        let main = self.module.index("main");
        let no_main = || RunErrorKind::MissingReturn {
            func: "main".into(),
        };
        // Each rank returns its error, if any, and what it counted.
        let per_rank = parcoach_sync::thread_cache().run_map(self.cfg.ranks, |rank| {
            let env = RankEnv {
                world: &world,
                omp: OmpSim::sharing(
                    OmpConfig {
                        default_num_threads: self.cfg.default_threads,
                        barrier_timeout: self.cfg.barrier_timeout,
                    },
                    Arc::clone(&live),
                ),
                rank,
                output: Mutex::new(Vec::new()),
                budget: &budget,
                conc: (0..self.sites.conc_sites)
                    .map(|_| AtomicI64::new(0))
                    .collect(),
            };
            // Rank 0 runs on `run`'s caller.
            let mut state = match rank {
                0 => ThreadState::default(),
                _ => ThreadState::dispatched(),
            };
            let mut thread = SimThread {
                env: &env,
                ctx: &mut ThreadCtx::initial(),
                state: &mut state,
                checks: None,
            };
            world.thread_started(rank);
            let res = match main {
                Some(fi) => {
                    self.exec_function(&mut thread, fi, (&mut Frame::default(), &[]), None, 0)
                }
                None => Err(Halt::Fault(RunError::new(
                    no_main(),
                    Locator::Block(0, BlockId(0)),
                    rank,
                ))),
            };
            let err = thread.leave(res.err());
            world.finish_rank(rank);
            (err, state.stats, env.output.into_inner())
        });
        let mut stats = RunStats::default();
        let mut errs = Vec::new();
        let mut output = Vec::new();
        for (err, rank_stats, lines) in per_rank {
            stats.add(&rank_stats);
            errs.extend(err);
            output.extend(lines);
        }
        RunReport {
            errors: errs,
            output,
            stats,
        }
    }

    /// [`run`](Executor::run) under a wall-clock watchdog: the run goes to
    /// a parked [`parcoach_sync::thread_cache`] worker, and the caller
    /// waits at most `limit` for its report. The executor joins its rank
    /// threads before returning, so a stuck schedule would otherwise stall
    /// the caller for good. On timeout the worker is abandoned, not
    /// joined: if the run ever finishes, the worker re-parks and serves
    /// later runs.
    pub fn run_within(self, limit: Duration) -> Result<RunReport, NoReport> {
        let (tx, rx) = mpsc::channel();
        parcoach_sync::thread_cache().spawn(move || {
            let _ = tx.send(self.run());
        });
        rx.recv_timeout(limit).map_err(|e| match e {
            RecvTimeoutError::Timeout => NoReport::TimedOut,
            RecvTimeoutError::Disconnected => NoReport::Panicked,
        })
    }

    // ---- function & block execution ------------------------------------

    /// Call function `fidx` at call depth `depth` with the arguments
    /// `args`, operands of the caller's frame, and copy what it returns
    /// into the caller's `dest`.
    fn exec_function(
        &self,
        t: &mut SimThread<'_>,
        fidx: usize,
        (caller, args): (&mut Frame, &[Opd]),
        dest: Option<Opd>,
        depth: usize,
    ) -> Result<(), Halt> {
        let f = self.func(fidx);
        let mut frame = t.state.take_frame();
        frame.enter(f.code);
        for (param, &arg) in f.ir.params.iter().zip(args) {
            frame.copy_from(f.home(*param), caller, arg);
        }
        let flow = self.exec_from(t, &mut frame, f, f.ir.entry, None, depth);
        if let (Ok(Flow::Return(Some(v))), Some(d)) = (&flow, dest) {
            caller.copy_from(d, &frame, *v);
        }
        t.state.put_frame(frame);
        match flow? {
            Flow::Return(_) => Ok(()),
            Flow::Stopped => unreachable!("stop block only used inside parallel regions"),
        }
    }

    /// Walk function `f`'s blocks from `start` until it returns or
    /// reaches `stop`; a step reports what failed, the walk where.
    fn exec_from(
        &self,
        t: &mut SimThread<'_>,
        frame: &mut Frame,
        f: Func<'_>,
        start: BlockId,
        stop: Option<BlockId>,
        depth: usize,
    ) -> Result<Flow, Halt> {
        let (env, rank, fidx) = (t.env, t.env.rank, f.idx);
        let mut cur = start;
        let mut critical_guards: Vec<ReentrantMutexGuard<'_, ()>> = Vec::new();
        loop {
            let block = f.ir.block(cur);
            let ops = &f.code.ops[block.instrs.start as usize..block.instrs.end as usize];
            let fault = move |kind, at| Halt::Fault(RunError::new(kind, at, rank));
            let at = move |ii, halt| match halt {
                StepHalt::Fault(kind) => fault(kind, plain_at(f.ir, fidx, cur, ii)),
                StepHalt::Halt(h) => h,
            };
            t.state
                .step(env)
                .map_err(|kind| fault(kind, Locator::Entry(fidx, cur)))?;
            if let BlockKind::Directive(d) = &block.kind {
                // A directive block holds only the checks instrumentation
                // attached to it: they run first, with no step of their
                // own.
                for (ii, op) in ops.iter().enumerate() {
                    if let Op::Check(check, comm) = op {
                        self.exec_check(t, frame, check, *comm)
                            .map_err(|h| at(ii, h))?;
                    }
                }
                if stop == Some(cur) {
                    // The region's end barrier: nothing to wait for here,
                    // the join synchronises the team.
                    return Ok(Flow::Stopped);
                }
                match d {
                    Directive::ParallelBegin { .. } => {
                        cur = self.exec_parallel(t, frame, f, cur, depth)?;
                        continue;
                    }
                    Directive::SingleBegin { region, chosen, .. } => {
                        let mine = t.ctx.enter_single(region.0);
                        frame.set(f.home(*chosen), mine as u64);
                    }
                    Directive::MasterBegin { chosen, .. } => {
                        frame.set(f.home(*chosen), t.ctx.is_master() as u64);
                    }
                    Directive::SectionBegin {
                        parent,
                        index,
                        chosen,
                        ..
                    } => {
                        let mine = t.ctx.enter_section(parent.0, *index);
                        frame.set(f.home(*chosen), mine as u64);
                    }
                    Directive::CriticalBegin { .. } => {
                        critical_guards.push(env.omp.critical());
                    }
                    Directive::CriticalEnd { .. } => {
                        critical_guards.pop();
                    }
                    Directive::Barrier { .. } => {
                        t.state.stats.barrier_waits += t.ctx.team.is_some() as u64;
                        t.ctx
                            .barrier(env.omp.barrier_timeout())
                            .map_err(|e| match e {
                                BarrierError::Poisoned => Halt::Stop,
                                e => {
                                    fault(RunErrorKind::ThreadBarrier(e), Locator::Block(fidx, cur))
                                }
                            })?;
                    }
                    Directive::PForInit {
                        var,
                        chunk_end,
                        lo,
                        hi,
                        ..
                    } => {
                        let lo = f.scalar(frame, *lo) as i64;
                        let hi = f.scalar(frame, *hi) as i64;
                        let (s, e) = t.ctx.static_chunk(lo, hi);
                        frame.set(f.home(*var), s as u64);
                        frame.set(f.home(*chunk_end), e as u64);
                    }
                    // Pure markers at run time.
                    Directive::ParallelEnd { .. }
                    | Directive::SingleEnd { .. }
                    | Directive::MasterEnd { .. }
                    | Directive::SectionEnd { .. }
                    | Directive::WorkshareBegin { .. }
                    | Directive::WorkshareEnd { .. } => {}
                }
            } else {
                for (ii, op) in ops.iter().enumerate() {
                    self.exec_instr(t, frame, op, depth)
                        .map_err(|h| at(ii, h))?;
                }
            }

            // Terminator.
            match f.code.terms[cur.index()] {
                Term::Goto(next) => cur = next,
                Term::Branch(cond, then_bb, else_bb) => {
                    cur = if frame.get(cond) != 0 {
                        then_bb
                    } else {
                        else_bb
                    };
                }
                // Return-site CC checks were already executed as
                // instructions (they sit at the end of the block).
                Term::Return(v) => return Ok(Flow::Return(v)),
                Term::MissingReturn => {
                    let kind = RunErrorKind::MissingReturn {
                        func: f.ir.name.clone(),
                    };
                    return Err(fault(kind, Locator::Cond(fidx, cur)));
                }
            }
        }
    }

    /// `parallel`: fork a team on the region's body, go on as its member
    /// 0 and, when the team has joined, return the block the encountering
    /// thread continues at. (A function of its own so that the block
    /// walk, which recursion through calls stacks up, does not carry
    /// this one's locals in its frame.)
    fn exec_parallel(
        &self,
        t: &mut SimThread<'_>,
        frame: &mut Frame,
        f: Func<'_>,
        cur: BlockId,
        depth: usize,
    ) -> Result<BlockId, Halt> {
        let Some(Directive::ParallelBegin {
            region,
            num_threads,
        }) = f.ir.block(cur).directive()
        else {
            unreachable!("called on a parallel.begin block");
        };
        let team_size = num_threads
            .map_or(self.cfg.default_threads, |v| {
                (f.scalar(frame, v) as i64).max(1) as usize
            })
            .max(1);
        if team_size > MAX_THREADS {
            // The fork would refuse it: refuse it before its members are
            // registered one by one.
            let kind = RunErrorKind::Omp(OmpError::team_too_large(team_size));
            let at = Locator::Block(f.idx, cur);
            return Err(Halt::Fault(RunError::new(kind, at, t.env.rank)));
        }
        let plan = f.code.plans[region.0 as usize]
            .as_ref()
            .expect("every parallel region has a plan");
        // Give the registers the region writes their cells.
        t.state.stats.shared_cells += frame.share(&plan.shared);
        let parent_frame: &Frame = frame;
        let env = t.env;
        // A member that was stopped reports nothing to the fork, whose
        // error is the first *fault* in member order; the encountering
        // thread then stops too.
        let stopped = AtomicBool::new(false);
        // This thread goes on as member 0 and stays MPI-live as such;
        // members 1.. register *before* the fork: a member the scheduler
        // has not started yet must already count as live-and-unblocked,
        // or a census running in the gap could prove a "deadlock" the
        // late starter was about to break. Every member, 0 included,
        // departs when it leaves the body, so while this thread waits at
        // the join the census counts exactly the threads that can still
        // issue MPI calls for this rank.
        for _ in 1..team_size {
            env.world.thread_started(env.rank);
        }
        t.state.stats.forks += 1;
        let checks = TeamChecks::new(&self.sites);
        // Member 0 runs on this thread and carries its state on; what
        // members 1.. counted comes back through `joined`.
        let own_state = Mutex::new(Some(&mut *t.state));
        let joined = Mutex::new(RunStats::default());
        let fork_res = env.omp.fork(t.ctx, Some(team_size), &|ctx| {
            let member_0 = ctx.thread_num() == 0;
            let mut dispatched;
            let state = if member_0 {
                own_state.lock().take().expect("member 0 runs once")
            } else {
                dispatched = ThreadState::dispatched();
                &mut dispatched
            };
            let mut member = SimThread {
                env,
                ctx,
                state,
                checks: Some(&checks),
            };
            let mut member_frame = member.state.take_frame();
            member_frame.copy_of(parent_frame);
            let res = self.exec_from(
                &mut member,
                &mut member_frame,
                f,
                plan.body_entry,
                Some(plan.end_barrier),
                depth,
            );
            member.state.put_frame(member_frame);
            let halt = res.err();
            stopped.fetch_or(matches!(halt, Some(Halt::Stop)), Relaxed);
            let fault = member.leave(halt);
            if !member_0 {
                joined.lock().add(&member.state.stats);
            }
            env.world.thread_departed(env.rank);
            fault.map_or(Ok(()), Err)
        });
        t.state.stats.add(&joined.into_inner());
        env.world.thread_started(env.rank);
        match fork_res {
            Ok(()) if stopped.into_inner() => Err(Halt::Stop),
            Ok(()) => Ok(plan.end_block),
            Err(ForkError::Body(e)) => Err(Halt::Fault(e)),
            Err(ForkError::Omp(e)) => {
                // The fork was refused before any member ran: unwind
                // their liveness pre-registration.
                for _ in 0..team_size {
                    env.world.thread_departed(env.rank);
                }
                let (kind, at) = (RunErrorKind::Omp(e), Locator::Block(f.idx, cur));
                Err(Halt::Fault(RunError::new(kind, at, env.rank)))
            }
        }
    }

    /// Take one step and execute `op` in it.
    #[inline(always)]
    fn exec_instr(
        &self,
        t: &mut SimThread<'_>,
        frame: &mut Frame,
        op: &Op,
        depth: usize,
    ) -> Result<(), StepHalt> {
        t.state.step(t.env)?;
        match *op {
            Op::Copy(dest, src) => {
                let v = frame.get(src);
                frame.set(dest, v);
            }
            Op::CopyArray(dest, src) => {
                let a = frame.array(src);
                frame.set_array(dest, a);
            }
            Op::Alu(alu, dest, a, b) => {
                let v = alu.apply(frame.get(a), frame.get(b))?;
                frame.set(dest, v);
            }
            Op::ArrayNew { dest, len, init } => {
                // A negative length, or one the allocator refuses, is the
                // program's error, not the interpreter's abort.
                let n = frame.get(len) as i64;
                let a = usize::try_from(n)
                    .ok()
                    .and_then(|n| filled_array(n, frame.get(init)))
                    .ok_or(RunErrorKind::BadArrayLength(n))?;
                frame.set_array(dest, Some(a));
            }
            Op::Load { dest, arr, idx } => {
                let i = frame.get(idx) as i64;
                let v = frame.with_array(arr, |a| {
                    check_bounds(i, a.len()).map(|i| a[i].load(Ordering::Relaxed))
                })?;
                frame.set(dest, v);
            }
            Op::Store { arr, idx, value } => {
                let i = frame.get(idx) as i64;
                let v = frame.get(value);
                frame.with_array(arr, |a| {
                    check_bounds(i, a.len()).map(|i| a[i].store(v, Ordering::Relaxed))
                })?;
            }
            Op::Len(dest, arr) => {
                let n = frame.with_array(arr, <[AtomicU64]>::len);
                frame.set(dest, n as u64);
            }
            Op::Query(intr, dest) => {
                let v = match intr {
                    Intrinsic::Rank => t.env.rank as u64,
                    Intrinsic::Size => t.env.world.size() as u64,
                    Intrinsic::ThreadNum => t.ctx.thread_num() as u64,
                    Intrinsic::NumThreads => t.ctx.num_threads() as u64,
                    Intrinsic::InParallel => t.ctx.in_parallel() as u64,
                    other => unreachable!("{other:?} is no query"),
                };
                frame.set(dest, v);
            }
            Op::Call {
                dest,
                callee,
                ref args,
            } => {
                if depth >= MAX_CALL_DEPTH {
                    return Err(RunErrorKind::StackOverflow.into());
                }
                self.exec_function(t, callee, (frame, args), dest, depth + 1)
                    .map_err(StepHalt::Halt)?;
            }
            Op::Mpi { dest, ref op, ty } => {
                t.state.stats.mpi_calls += 1;
                self.exec_mpi(t, frame, dest, op, ty)?;
            }
            Op::Print(ref args) => print_line(t, frame, args),
            Op::Check(ref check, comm) => self.exec_check(t, frame, check, comm)?,
        }
        Ok(())
    }

    /// Execute `check`; a `CollectiveCc` runs on communicator `comm`.
    fn exec_check(
        &self,
        t: &mut SimThread<'_>,
        frame: &Frame,
        check: &CheckOp,
        comm: Opd,
    ) -> Result<(), StepHalt> {
        match check {
            CheckOp::CollectiveCc { color, .. } => {
                // The CC runs on the guarded collective's communicator.
                self.run_cc(t, frame.get(comm) as usize, *color)
            }
            CheckOp::ReturnCc { site } => {
                // Wrapped in `single` semantics when inside a team (paper
                // §3: "this function is wrapped into a single pragma"),
                // one region per site, numbered above the source's.
                if t.ctx.in_parallel() {
                    let synth_region = 0x8000_0000u32 | *site;
                    if !t.ctx.enter_single(synth_region) {
                        return Ok(());
                    }
                }
                self.run_cc(t, 0, 0)
            }
            CheckOp::AssertMonothread { what, site } => {
                // Deterministic: within one team encounter, two *distinct*
                // threads reaching the same collective site prove the
                // context is multithreaded, regardless of interleaving.
                // Outside any team the rank's initial thread runs alone.
                let (site, me) = (*site as usize, t.ctx.thread_num());
                if t.checks.is_some_and(|checks| !checks.is_first_at(site, me)) {
                    return Err(RunErrorKind::MonothreadViolation { what }.into());
                }
                Ok(())
            }
            CheckOp::ConcEnter { site } => {
                let overlapping =
                    t.env.conc[*site as usize].fetch_add(1, Ordering::SeqCst) + 1 >= 2;
                // Second execution of a suspect site within one barrier
                // epoch of a team: an ordering error even if the two
                // executions happen not to overlap on this particular
                // schedule. Outside any team, executions are fully
                // ordered by program order and must not count — a
                // suspect function re-called sequentially would
                // otherwise accumulate counts for the rank's lifetime.
                let reexecuted = t.checks.is_some_and(|checks| {
                    checks.executed(*site as usize, t.ctx.barriers_passed()) >= 2
                });
                if overlapping || reexecuted {
                    return Err(RunErrorKind::ConcurrentRegions { site: *site }.into());
                }
                Ok(())
            }
            CheckOp::ConcExit { site } => {
                t.env.conc[*site as usize].fetch_sub(1, Ordering::SeqCst);
                Ok(())
            }
            CheckOp::P2pEpoch => {
                let rows = t
                    .env
                    .world
                    .p2p_census(t.env.rank, t.ctx.is_initial_thread())?;
                let unbalanced: Vec<(usize, u64, u64)> = rows
                    .into_iter()
                    .filter(|(_, sent, recvd)| sent != recvd)
                    .collect();
                if unbalanced.is_empty() {
                    return Ok(());
                }
                Err(RunErrorKind::P2pImbalance { comms: unbalanced }.into())
            }
        }
    }

    /// Execute the `CC` color all-reduce (on the guarded collective's
    /// communicator) and translate a disagreement into the paper's
    /// error report (per-rank collective names).
    fn run_cc(&self, t: &SimThread<'_>, comm: usize, color: u32) -> Result<(), StepHalt> {
        let outcome =
            t.env
                .world
                .control_cc_on(t.env.rank, comm, color, t.ctx.is_initial_thread())?;
        if outcome.unanimous() {
            return Ok(());
        }
        let per_rank = outcome
            .colors
            .iter()
            .map(|&c| color_name(c).into_owned())
            .collect::<Vec<_>>();
        Err(RunErrorKind::CcMismatch { per_rank }.into())
    }

    /// Execute MPI operation `op`, whose payload (if it sends one) is of
    /// type `ty`, and write what it returns (a handle as its number) into
    /// `dest`. Out of line, as `print_line`: the step's other ops are far
    /// more frequent.
    #[inline(never)]
    fn exec_mpi(
        &self,
        t: &SimThread<'_>,
        frame: &mut Frame,
        dest: Option<Opd>,
        op: &MpiOp<Opd>,
        ty: Option<MpiType>,
    ) -> Result<(), MpiError> {
        use MpiOp::*;
        let (world, rank) = (t.env.world, t.env.rank);
        let initial = t.ctx.is_initial_thread();
        let int = |o: Opd| frame.get(o) as i64;
        let comm = |c: Option<Opd>| c.map_or(0, |c| frame.get(c) as usize);
        let payload = |o: Opd| frame.payload(o, ty.expect("a payload's type is decoded"));
        // A negative destination or root is the program's argument error.
        let rank_of = |o: Opd, what: &str| match int(o) {
            x if x < 0 => Err(MpiError::ArgError(format!("negative {what} {x}"))),
            x => Ok(x as usize),
        };
        let handle = |h: usize| MpiValue::Int(h as i64);
        // What an operation that returns nothing (and has no `dest`)
        // yields.
        let done = MpiValue::Int(0);
        let v = match *op {
            Init { required } => {
                world.init(rank, required.unwrap_or(ThreadLevel::Single));
                done
            }
            Finalize => {
                world.finalize(rank, initial)?;
                done
            }
            Send {
                value,
                dest,
                tag,
                comm: c,
            } => {
                let d = rank_of(dest, "destination")?;
                world.send_on(rank, comm(c), d, int(tag), payload(value), initial)?;
                done
            }
            Isend {
                value,
                dest,
                tag,
                comm: c,
            } => {
                let d = rank_of(dest, "destination")?;
                handle(world.isend(rank, comm(c), d, int(tag), payload(value), initial)?)
            }
            // Wildcard sentinels pass through; the world rejects other
            // negative sources and tags.
            Recv { src, tag, comm: c } => {
                world.recv_on(rank, comm(c), int(src), int(tag), initial)?
            }
            Irecv { src, tag, comm: c } => {
                handle(world.irecv(rank, comm(c), int(src), int(tag), initial)?)
            }
            Wait { request } => world.wait(rank, frame.get(request) as usize, initial)?,
            Waitall { ref requests } => {
                for &r in requests.iter() {
                    world.wait(rank, frame.get(r) as usize, initial)?;
                }
                done
            }
            CommWorld => handle(0),
            CommSplit { parent, color, key } => {
                let (c, k) = (int(color), int(key));
                handle(world.comm_split(rank, comm(Some(parent)), c, k, initial)?)
            }
            CommDup { comm: c } => handle(world.comm_dup(rank, comm(Some(c)), initial)?),
            Collective {
                kind,
                value,
                reduce_op,
                root,
                comm: c,
            } => {
                let payload = value.map(payload);
                let root = root.map(|r| rank_of(r, "root")).transpose()?;
                let sig = Signature::collective(kind.into(), reduce_op, root, ty);
                world.collective_on(rank, comm(c), sig, payload, initial)?
            }
        };
        if let Some(d) = dest {
            // `MPI_Recv` and `MPI_Wait` are float-typed in the language:
            // an int payload completes as a float.
            frame.complete(d, v, matches!(op, Recv { .. } | Wait { .. }));
        }
        Ok(())
    }
}

/// `print`: one line of `args`, each of its type, rendered in one pass
/// straight into the rank's output.
#[inline(never)]
fn print_line(t: &SimThread<'_>, frame: &Frame, args: &[(Opd, Type)]) {
    let mut line = format!("[rank {}] ", t.env.rank);
    for (k, &(a, ty)) in args.iter().enumerate() {
        if k > 0 {
            line.push(' ');
        }
        frame.show(&mut line, a, ty);
    }
    t.env.output.lock().push(line);
}

/// Where the uninstrumented module has instruction `ii` of block `b` of
/// function `f` (index `fi`): instrumentation only inserts checks, so the
/// checks before it are the difference. A check is at what it guards: the
/// next instruction, the block's terminator (a return `CC`, concurrency
/// exits) or the block (a concurrency enter, at a region's body entry).
fn plain_at(f: &FuncIr, fi: usize, b: BlockId, ii: usize) -> Locator {
    let instrs = f.instrs(b);
    match &instrs[ii].0 {
        Instr::Check(CheckOp::ConcEnter { .. }) => Locator::Block(fi, b),
        Instr::Check(CheckOp::ReturnCc { .. } | CheckOp::ConcExit { .. }) => Locator::Cond(fi, b),
        _ => {
            let checks = instrs[..ii]
                .iter()
                .filter(|(i, _)| matches!(i, Instr::Check(_)))
                .count();
            Locator::Instr(fi, b, ii - checks)
        }
    }
}

/// `i` as an index into an array of `len` elements.
fn check_bounds(i: i64, len: usize) -> Result<usize, RunErrorKind> {
    if i < 0 || i as usize >= len {
        Err(RunErrorKind::IndexOutOfBounds { index: i, len })
    } else {
        Ok(i as usize)
    }
}

/// Human name for a CC color. Every known color has a static name; only
/// the unknown-color fallback allocates.
fn color_name(color: u32) -> std::borrow::Cow<'static, str> {
    if color == 0 {
        return "<return/exit>".into();
    }
    if color == COLOR_COMM_SPLIT {
        return "MPI_Comm_split".into();
    }
    if color == COLOR_COMM_DUP {
        return "MPI_Comm_dup".into();
    }
    CollectiveKind::ALL
        .iter()
        .find(|k| k.color() == color)
        .map(|k| k.mpi_name().into())
        .unwrap_or_else(|| format!("<color {color}>").into())
}

/// Precompute the plan of one parallel region, and the registers it
/// shares (the plan's `shared` is left for their homes).
fn region_plan(f: &FuncIr, begin: BlockId, region: RegionId) -> (RegionPlan, Vec<Reg>) {
    let body_entry = match &f.block(begin).term {
        Terminator::Goto(t) => *t,
        _ => panic!("parallel.begin must have a goto terminator"),
    };
    let end_block = f
        .iter_blocks()
        .find_map(|(id, b)| match b.directive() {
            Some(Directive::ParallelEnd { region: r }) if *r == region => Some(id),
            _ => None,
        })
        .expect("matching parallel.end exists");
    let end_barrier = f
        .iter_blocks()
        .find_map(|(id, b)| match b.directive() {
            Some(Directive::Barrier {
                implicit: true,
                region: Some(r),
                ..
            }) if *r == region => Some(id),
            _ => None,
        })
        .expect("a parallel region ends in its implicit barrier");
    // Region membership: blocks reachable from body_entry without
    // crossing the end block.
    let mut in_region: HashSet<BlockId> = HashSet::new();
    let mut queue = VecDeque::from([body_entry]);
    in_region.insert(body_entry);
    while let Some(b) = queue.pop_front() {
        for s in f.successors(b) {
            if s != end_block && in_region.insert(s) {
                queue.push_back(s);
            }
        }
    }
    // Registers written inside the region vs. assigned outside it (a
    // parameter counts as assigned on entry).
    let mut written: HashSet<Reg> = HashSet::new();
    let mut assigned_outside: HashSet<Reg> = f.params.iter().copied().collect();
    for (id, b) in f.iter_blocks() {
        let defs = block_defs(b, f.instrs(id));
        if in_region.contains(&id) {
            written.extend(defs);
        } else {
            assigned_outside.extend(defs);
        }
    }
    let mut shared_regs: Vec<Reg> = written.intersection(&assigned_outside).copied().collect();
    shared_regs.sort_unstable();
    let plan = RegionPlan {
        body_entry,
        end_barrier,
        end_block,
        shared: Vec::new(),
    };
    (plan, shared_regs)
}

/// The registers block `b`, whose instructions are `instrs`, writes:
/// every instruction's destination and the registers its directive sets.
fn block_defs<'a>(
    b: &'a parcoach_ir::func::BasicBlock,
    instrs: &'a [(Instr, Span)],
) -> impl Iterator<Item = Reg> + 'a {
    let directive = match b.directive() {
        Some(
            Directive::SingleBegin { chosen, .. }
            | Directive::MasterBegin { chosen, .. }
            | Directive::SectionBegin { chosen, .. },
        ) => [Some(*chosen), None],
        Some(Directive::PForInit { var, chunk_end, .. }) => [Some(*var), Some(*chunk_end)],
        _ => [None, None],
    };
    instrs
        .iter()
        .filter_map(|(i, _)| i.dest())
        .chain(directive.into_iter().flatten())
}

#[cfg(test)]
mod tests {
    use super::RunConfig;
    use crate::check_and_run;

    /// An array register a region assigns, and which was assigned before
    /// it, is shared through a cell like a scalar one: the team and, after
    /// the join, the encountering thread see the one new array.
    #[test]
    fn a_region_shares_an_array_register_it_assigns() {
        let src = "fn main() {
            let a = array(2, 0);
            let n = 0;
            parallel num_threads(3) {
                single { a = array(3, 7); }
                n = len(a);
            }
            a[0] = n;
            print(a);
        }";
        let cfg = RunConfig {
            ranks: 1,
            ..RunConfig::default()
        };
        let (_, r) = check_and_run("t.mh", src, cfg, false).expect("valid program");
        assert!(r.is_clean(), "{:?}", r.errors);
        assert_eq!(r.output, vec!["[rank 0] [3, 7, 7]"]);
        assert_eq!(r.stats.shared_cells, 2);
    }
}
