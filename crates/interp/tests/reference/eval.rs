//! The reference evaluator: walks the generator's own tree, one node at
//! a time, with the language's rules written out where they are used.
//!
//! - Integers are `i64` and wrap (`wrapping_*`, `abs` included);
//!   `x / 0` and `x % 0` are a division-by-zero error.
//! - Operands are evaluated left to right; `&&` and `||` skip their
//!   right operand when the left one decides.
//! - An assignment to an element evaluates the right-hand side, then the
//!   index, then checks the index against the array's length.
//! - `for (k in lo..hi)` runs `k = lo, lo + 1, …` while `k < hi`.
//! - Arrays are shared by reference: assigning one, passing it or
//!   returning it names the same elements.
//! - `print` writes `[rank 0] ` and its arguments separated by spaces;
//!   an array prints as a list, `[1, 2]`.
//! - At one rank, `MPI_Allreduce`, `MPI_Reduce`, `MPI_Bcast` and
//!   `MPI_Scan` return their payload, `MPI_Gather` and `MPI_Allgather`
//!   `[v]`, and `MPI_Alltoall(a)` a new array `[a[0]]` (`a` empty: an
//!   argument error, since it is shorter than the communicator).
//! - A message a rank sends itself is received as sent: `MPI_Recv`
//!   returns it, and `MPI_Wait` on its `MPI_Irecv`; both are `float`, so
//!   an `int` payload arrives as a `float`. `MPI_Wait` on an `MPI_Isend`
//!   returns `0.0`.
//! - The first error stops the program, at the line of the statement it
//!   happened in.

use crate::gen::{Arith, Cmp, Coll, Expr, Program, Stmt, StmtKind};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// A run-time error of a generated program.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    DivisionByZero,
    IndexOutOfBounds {
        index: i64,
        len: usize,
    },
    BadArrayLength(i64),
    /// An MPI call's argument the communicator cannot take.
    MpiArg,
}

/// What a program did: its printed lines, then its first error and the
/// line of that error, if it failed.
#[derive(Debug, PartialEq)]
pub struct Outcome {
    pub lines: Vec<String>,
    pub fault: Option<(Fault, u32)>,
}

#[derive(Clone)]
enum Val {
    Int(i64),
    Float(f64),
    Bool(bool),
    Ints(Rc<RefCell<Vec<i64>>>),
    Floats(Rc<RefCell<Vec<f64>>>),
}

impl Val {
    fn int(&self) -> i64 {
        match self {
            Val::Int(x) => *x,
            _ => panic!("not an int"),
        }
    }

    fn float(&self) -> f64 {
        match self {
            Val::Float(x) => *x,
            _ => panic!("not a float"),
        }
    }

    fn bool(&self) -> bool {
        match self {
            Val::Bool(x) => *x,
            _ => panic!("not a bool"),
        }
    }

    /// A point-to-point payload, as `MPI_Recv` returns it.
    fn received(&self) -> Val {
        match self {
            Val::Int(x) => Val::Float(*x as f64),
            Val::Float(x) => Val::Float(*x),
            _ => panic!("not a numeric payload"),
        }
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Int(x) => write!(f, "{x}"),
            Val::Float(x) => write!(f, "{x}"),
            Val::Bool(x) => write!(f, "{x}"),
            Val::Ints(a) => write!(f, "{:?}", a.borrow()),
            Val::Floats(a) => write!(f, "{:?}", a.borrow()),
        }
    }
}

/// `i` as an index into an array of `len` elements.
fn bounds(i: i64, len: usize) -> Result<usize, Fault> {
    if i >= 0 && (i as u64) < len as u64 {
        Ok(i as usize)
    } else {
        Err(Fault::IndexOutOfBounds { index: i, len })
    }
}

struct Eval {
    env: HashMap<String, Val>,
    lines: Vec<String>,
}

/// Run `p` as the language defines it.
pub fn run(p: &Program) -> Outcome {
    let mut ev = Eval {
        env: HashMap::new(),
        lines: Vec::new(),
    };
    let mut fault = None;
    for (name, init, line) in &p.decls {
        match ev.expr(init) {
            Ok(v) => {
                ev.env.insert(name.clone(), v);
            }
            Err(f) => {
                fault = Some((f, *line));
                break;
            }
        }
    }
    if fault.is_none() {
        fault = ev.block(&p.body).err();
    }
    Outcome {
        lines: ev.lines,
        fault,
    }
}

impl Eval {
    fn block(&mut self, stmts: &[Stmt]) -> Result<(), (Fault, u32)> {
        stmts.iter().try_for_each(|s| self.stmt(s))
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), (Fault, u32)> {
        let at = |f| (f, s.line);
        match &s.kind {
            StmtKind::Assign(name, e) => {
                let v = self.expr(e).map_err(at)?;
                self.env.insert(name.clone(), v);
            }
            StmtKind::Store(name, idx, value) => {
                let v = self.expr(value).map_err(at)?;
                let i = self.expr(idx).map_err(at)?.int();
                match (&self.env[name], v) {
                    (Val::Ints(a), Val::Int(x)) => {
                        let mut a = a.borrow_mut();
                        let i = bounds(i, a.len()).map_err(at)?;
                        a[i] = x;
                    }
                    (Val::Floats(a), Val::Float(x)) => {
                        let mut a = a.borrow_mut();
                        let i = bounds(i, a.len()).map_err(at)?;
                        a[i] = x;
                    }
                    _ => panic!("ill-typed store"),
                }
            }
            StmtKind::Print(args) => {
                let mut text = Vec::new();
                for a in args {
                    text.push(self.expr(a).map_err(at)?.to_string());
                }
                self.lines.push(format!("[rank 0] {}", text.join(" ")));
            }
            StmtKind::If(cond, then, els) => {
                if self.expr(cond).map_err(at)?.bool() {
                    self.block(then)?;
                } else {
                    self.block(els)?;
                }
            }
            StmtKind::For(var, lo, hi, body) => {
                let mut k = *lo;
                while k < *hi {
                    self.env.insert(var.clone(), Val::Int(k));
                    self.block(body)?;
                    k += 1;
                }
            }
            StmtKind::While(_, n, body) => {
                for _ in 0..*n {
                    self.block(body)?;
                }
            }
            StmtKind::SendRecv { name, value, .. } => {
                let v = self.expr(value).map_err(at)?;
                self.env.insert(name.clone(), v.received());
            }
            StmtKind::Nonblocking {
                sent,
                received,
                value,
                ..
            } => {
                let v = self.expr(value).map_err(at)?;
                self.env.insert(sent.clone(), Val::Float(0.0));
                self.env.insert(received.clone(), v.received());
            }
        }
        Ok(())
    }

    fn expr(&mut self, e: &Expr) -> Result<Val, Fault> {
        Ok(match e {
            Expr::Int(x) => Val::Int(*x),
            Expr::Float(x) => Val::Float(*x),
            Expr::Bool(x) => Val::Bool(*x),
            Expr::Var(name) => self.env[name].clone(),
            Expr::Neg(x) => match self.expr(x)? {
                Val::Int(x) => Val::Int(x.wrapping_neg()),
                Val::Float(x) => Val::Float(-x),
                _ => panic!("ill-typed negation"),
            },
            Expr::Not(x) => Val::Bool(!self.expr(x)?.bool()),
            Expr::Arith(op, l, r) => {
                let (l, r) = (self.expr(l)?, self.expr(r)?);
                match (l, r) {
                    (Val::Int(a), Val::Int(b)) => Val::Int(match op {
                        Arith::Add => a.wrapping_add(b),
                        Arith::Sub => a.wrapping_sub(b),
                        Arith::Mul => a.wrapping_mul(b),
                        Arith::Div | Arith::Rem if b == 0 => return Err(Fault::DivisionByZero),
                        Arith::Div => a.wrapping_div(b),
                        Arith::Rem => a.wrapping_rem(b),
                    }),
                    (Val::Float(a), Val::Float(b)) => Val::Float(match op {
                        Arith::Add => a + b,
                        Arith::Sub => a - b,
                        Arith::Mul => a * b,
                        Arith::Div => a / b,
                        Arith::Rem => a % b,
                    }),
                    _ => panic!("ill-typed arithmetic"),
                }
            }
            Expr::Cmp(op, l, r) => {
                let (l, r) = (self.expr(l)?, self.expr(r)?);
                let ord = match (l, r) {
                    (Val::Int(a), Val::Int(b)) => a.partial_cmp(&b),
                    (Val::Float(a), Val::Float(b)) => a.partial_cmp(&b),
                    (Val::Bool(a), Val::Bool(b)) => a.partial_cmp(&b),
                    _ => panic!("ill-typed comparison"),
                };
                use std::cmp::Ordering::*;
                Val::Bool(match op {
                    Cmp::Eq => ord == Some(Equal),
                    Cmp::Ne => ord != Some(Equal),
                    Cmp::Lt => ord == Some(Less),
                    Cmp::Le => matches!(ord, Some(Less | Equal)),
                    Cmp::Gt => ord == Some(Greater),
                    Cmp::Ge => matches!(ord, Some(Greater | Equal)),
                })
            }
            Expr::And(l, r) => Val::Bool(self.expr(l)?.bool() && self.expr(r)?.bool()),
            Expr::Or(l, r) => Val::Bool(self.expr(l)?.bool() || self.expr(r)?.bool()),
            Expr::Load(name, idx) => {
                let i = self.expr(idx)?.int();
                match &self.env[name] {
                    Val::Ints(a) => {
                        let a = a.borrow();
                        Val::Int(a[bounds(i, a.len())?])
                    }
                    Val::Floats(a) => {
                        let a = a.borrow();
                        Val::Float(a[bounds(i, a.len())?])
                    }
                    _ => panic!("ill-typed load"),
                }
            }
            Expr::Abs(x) => match self.expr(x)? {
                Val::Int(x) => Val::Int(x.wrapping_abs()),
                Val::Float(x) => Val::Float(x.abs()),
                _ => panic!("ill-typed abs"),
            },
            Expr::Min(a, b) | Expr::Max(a, b) => {
                let min = matches!(e, Expr::Min(..));
                match (self.expr(a)?, self.expr(b)?) {
                    (Val::Int(a), Val::Int(b)) => Val::Int(if min { a.min(b) } else { a.max(b) }),
                    (Val::Float(a), Val::Float(b)) => {
                        Val::Float(if min { a.min(b) } else { a.max(b) })
                    }
                    _ => panic!("ill-typed min/max"),
                }
            }
            Expr::Sqrt(x) => Val::Float(self.expr(x)?.float().sqrt()),
            Expr::IntOf(x) => Val::Int(self.expr(x)?.float() as i64),
            Expr::FloatOf(x) => Val::Float(self.expr(x)?.int() as f64),
            Expr::Len(x) => Val::Int(match self.expr(x)? {
                Val::Ints(a) => a.borrow().len() as i64,
                Val::Floats(a) => a.borrow().len() as i64,
                _ => panic!("ill-typed len"),
            }),
            Expr::Id(_, x) => self.expr(x)?,
            Expr::NewArray(len, init) => {
                let n = self.expr(len)?.int();
                let init = self.expr(init)?;
                let n = usize::try_from(n).map_err(|_| Fault::BadArrayLength(n))?;
                match init {
                    Val::Int(x) => Val::Ints(Rc::new(RefCell::new(vec![x; n]))),
                    Val::Float(x) => Val::Floats(Rc::new(RefCell::new(vec![x; n]))),
                    _ => panic!("ill-typed array element"),
                }
            }
            Expr::Coll(coll, v) => {
                let v = self.expr(v)?;
                match (coll, v) {
                    (Coll::Allreduce(_) | Coll::Reduce(_) | Coll::Bcast | Coll::Scan(_), v) => v,
                    (Coll::Gather | Coll::Allgather, Val::Int(x)) => {
                        Val::Ints(Rc::new(RefCell::new(vec![x])))
                    }
                    (Coll::Gather | Coll::Allgather, Val::Float(x)) => {
                        Val::Floats(Rc::new(RefCell::new(vec![x])))
                    }
                    (Coll::Alltoall, Val::Ints(a)) => {
                        let first = *a.borrow().first().ok_or(Fault::MpiArg)?;
                        Val::Ints(Rc::new(RefCell::new(vec![first])))
                    }
                    (Coll::Alltoall, Val::Floats(a)) => {
                        let first = *a.borrow().first().ok_or(Fault::MpiArg)?;
                        Val::Floats(Rc::new(RefCell::new(vec![first])))
                    }
                    _ => panic!("ill-typed collective"),
                }
            }
        })
    }
}
