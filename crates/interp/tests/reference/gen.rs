//! A seeded generator of well-typed MiniHPC programs, as trees the
//! reference evaluator walks and as the source text the interpreter runs.
//!
//! `main` calls `MPI_Init` first and `MPI_Finalize` last, and declares
//! every variable at its top; statements assign, store, print, branch,
//! loop and send messages to the program's own rank. An expression has a
//! type the generator chose before it drew the expression, so every
//! program it writes passes sema.

use parcoach_testutil::Rng;

/// The five types a generated local has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    Int,
    Float,
    Bool,
    Ints,
    Floats,
}

impl Ty {
    /// The element type of an array type.
    fn elem(self) -> Ty {
        match self {
            Ty::Ints => Ty::Int,
            Ty::Floats => Ty::Float,
            other => panic!("{other:?} is not an array type"),
        }
    }

    /// The identity helper of this type.
    pub fn id_fn(self) -> &'static str {
        match self {
            Ty::Int => "id_i",
            Ty::Float => "id_f",
            Ty::Bool => "id_b",
            Ty::Ints => "id_ai",
            Ty::Floats => "id_af",
        }
    }

    fn source(self) -> &'static str {
        match self {
            Ty::Int => "int",
            Ty::Float => "float",
            Ty::Bool => "bool",
            Ty::Ints => "int[]",
            Ty::Floats => "float[]",
        }
    }
}

/// `+ - * / %`.
#[derive(Debug, Clone, Copy)]
pub enum Arith {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
}

/// `== != < <= > >=`.
#[derive(Debug, Clone, Copy)]
pub enum Cmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// A collective, as one rank sees it.
#[derive(Debug, Clone, Copy)]
pub enum Coll {
    /// `MPI_Allreduce(v, op)`.
    Allreduce(&'static str),
    /// `MPI_Reduce(v, op, 0)`.
    Reduce(&'static str),
    /// `MPI_Bcast(v, 0)`.
    Bcast,
    /// `MPI_Scan(v, op)`.
    Scan(&'static str),
    /// `MPI_Gather(v, 0)`.
    Gather,
    /// `MPI_Allgather(v)`.
    Allgather,
    /// `MPI_Alltoall(a)`.
    Alltoall,
}

/// The reduction operators a generated collective names.
const REDUCE_OPS: [&str; 4] = ["SUM", "PROD", "MIN", "MAX"];

#[derive(Debug)]
pub enum Expr {
    Int(i64),
    Float(f64),
    Bool(bool),
    Var(String),
    Neg(Box<Expr>),
    Not(Box<Expr>),
    Arith(Arith, Box<Expr>, Box<Expr>),
    Cmp(Cmp, Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    /// `name[idx]`.
    Load(String, Box<Expr>),
    Abs(Box<Expr>),
    Min(Box<Expr>, Box<Expr>),
    Max(Box<Expr>, Box<Expr>),
    Sqrt(Box<Expr>),
    IntOf(Box<Expr>),
    FloatOf(Box<Expr>),
    Len(Box<Expr>),
    /// A call of the identity helper of the given type.
    Id(Ty, Box<Expr>),
    /// `array(len, init)`.
    NewArray(Box<Expr>, Box<Expr>),
    /// A collective over its payload.
    Coll(Coll, Box<Expr>),
}

#[derive(Debug)]
pub enum StmtKind {
    /// `name = e;`
    Assign(String, Expr),
    /// `name[idx] = value;`
    Store(String, Expr, Expr),
    Print(Vec<Expr>),
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `for (var in lo..hi) { body }`.
    For(String, i64, i64, Vec<Stmt>),
    /// `counter = 0; while (counter < n) { body counter = counter + 1; }`.
    While(String, i64, Vec<Stmt>),
    /// `MPI_Send(value, 0, tag); name = MPI_Recv(0, tag);`, on one line.
    SendRecv {
        name: String,
        value: Expr,
        tag: i64,
    },
    /// `let q = MPI_Irecv(0, tag); sent = MPI_Wait(MPI_Isend(value, 0,
    /// tag)); received = MPI_Wait(q);`, on one line.
    Nonblocking {
        request: String,
        sent: String,
        received: String,
        value: Expr,
        tag: i64,
    },
}

/// A statement and the 1-based source line it starts on (where its
/// expressions are: the generator writes each on one line).
#[derive(Debug)]
pub struct Stmt {
    pub kind: StmtKind,
    pub line: u32,
}

/// A generated program: `main`'s declarations and body, and its source.
pub struct Program {
    /// `let name = init;`, in order, each on its own line.
    pub decls: Vec<(String, Expr, u32)>,
    pub body: Vec<Stmt>,
    pub source: String,
}

/// The locals every program declares, by type.
const LOCALS: [(&str, Ty); 8] = [
    ("i0", Ty::Int),
    ("i1", Ty::Int),
    ("i2", Ty::Int),
    ("f0", Ty::Float),
    ("f1", Ty::Float),
    ("b0", Ty::Bool),
    ("a0", Ty::Ints),
    ("g0", Ty::Floats),
];

/// A few integers that overflow when multiplied or negated.
const BIG: [i64; 3] = [i64::MAX, 3_037_000_500, 4_294_967_296];

/// Expression depth.
const DEPTH: u32 = 4;

struct Gen<'r> {
    rng: &'r mut Rng,
    /// Locals in scope: the declared ones, then the enclosing loops'
    /// variables (read-only).
    scope: Vec<(String, Ty)>,
    loops: u32,
    counters: u32,
    requests: u32,
}

/// Draw a program from `rng`.
pub fn program(rng: &mut Rng) -> Program {
    let mut g = Gen {
        rng,
        scope: Vec::new(),
        loops: 0,
        counters: 0,
        requests: 0,
    };
    let mut decls = Vec::new();
    for (name, ty) in LOCALS {
        let init = match ty {
            Ty::Ints | Ty::Floats => {
                let len = g.rng.range_i64(2, 6);
                Expr::NewArray(Box::new(Expr::Int(len)), Box::new(g.literal(ty.elem())))
            }
            _ => g.literal(ty),
        };
        decls.push((name.to_string(), init, 0));
        g.scope.push((name.to_string(), ty));
    }
    let n = g.rng.range_usize(4, 10);
    let mut body: Vec<Stmt> = (0..n).map(|_| g.stmt(0)).collect();
    let all = LOCALS
        .iter()
        .map(|(n, _)| Expr::Var(n.to_string()))
        .collect();
    body.push(Stmt {
        kind: StmtKind::Print(all),
        line: 0,
    });
    let counters = g.counters;
    let mut p = Program {
        decls,
        body,
        source: String::new(),
    };
    render(&mut p, counters);
    p
}

impl Gen<'_> {
    fn literal(&mut self, ty: Ty) -> Expr {
        match ty {
            Ty::Int if self.rng.below(12) == 0 => Expr::Int(*self.rng.pick(&BIG)),
            Ty::Int => Expr::Int(self.rng.range_i64(0, 10)),
            Ty::Float => Expr::Float(self.rng.range_i64(0, 40) as f64 / 4.0),
            Ty::Bool => Expr::Bool(self.rng.bool()),
            _ => panic!("no array literals"),
        }
    }

    fn var_of(&mut self, ty: Ty) -> Option<String> {
        let names: Vec<&String> = self
            .scope
            .iter()
            .filter(|(_, t)| *t == ty)
            .map(|(n, _)| n)
            .collect();
        (!names.is_empty()).then(|| self.rng.pick(&names).to_string())
    }

    fn leaf(&mut self, ty: Ty) -> Expr {
        match ty {
            Ty::Ints | Ty::Floats => Expr::Var(self.var_of(ty).expect("declared")),
            _ if self.rng.bool() => self.literal(ty),
            _ => match self.var_of(ty) {
                Some(v) => Expr::Var(v),
                None => self.literal(ty),
            },
        }
    }

    fn sub(&mut self, ty: Ty, depth: u32) -> Box<Expr> {
        Box::new(self.expr(ty, depth - 1))
    }

    /// An index: mostly inside a declared array, sometimes just past
    /// it, sometimes any integer expression.
    fn index(&mut self, depth: u32) -> Expr {
        match self.rng.below(16) {
            _ if depth == 0 => Expr::Int(self.rng.range_i64(0, 2)),
            0 => Expr::Int(self.rng.range_i64(2, 7)),
            1 => self.expr(Ty::Int, depth - 1),
            _ => Expr::Int(self.rng.range_i64(0, 2)),
        }
    }

    /// A divisor: mostly a non-zero literal, sometimes any expression.
    fn divisor(&mut self, ty: Ty, depth: u32) -> Box<Expr> {
        match ty {
            Ty::Int if self.rng.below(8) != 0 => Box::new(Expr::Int(self.rng.range_i64(1, 10))),
            _ => self.sub(ty, depth),
        }
    }

    fn expr(&mut self, ty: Ty, depth: u32) -> Expr {
        if depth == 0 || self.rng.below(4) == 0 {
            return self.leaf(ty);
        }
        let d = depth;
        match ty {
            Ty::Int | Ty::Float => {
                let arith = [Arith::Add, Arith::Sub, Arith::Mul, Arith::Div, Arith::Rem];
                match self.rng.pick_weighted(&[10, 2, 3, 2, 2, 2, 2, 2, 2]) {
                    0 => match *self.rng.pick(&arith) {
                        op @ (Arith::Div | Arith::Rem) => {
                            Expr::Arith(op, self.sub(ty, d), self.divisor(ty, d))
                        }
                        op => Expr::Arith(op, self.sub(ty, d), self.sub(ty, d)),
                    },
                    1 => Expr::Neg(self.sub(ty, d)),
                    2 => {
                        let arr = if ty == Ty::Int { Ty::Ints } else { Ty::Floats };
                        let name = self.var_of(arr).expect("declared");
                        Expr::Load(name, Box::new(self.index(d - 1)))
                    }
                    3 => Expr::Abs(self.sub(ty, d)),
                    4 if self.rng.bool() => Expr::Min(self.sub(ty, d), self.sub(ty, d)),
                    4 => Expr::Max(self.sub(ty, d), self.sub(ty, d)),
                    5 if ty == Ty::Int => Expr::IntOf(self.sub(Ty::Float, d)),
                    5 => Expr::FloatOf(self.sub(Ty::Int, d)),
                    6 if ty == Ty::Int => {
                        let arr = *self.rng.pick(&[Ty::Ints, Ty::Floats]);
                        Expr::Len(self.sub(arr, d))
                    }
                    6 => Expr::Sqrt(self.sub(Ty::Float, d)),
                    7 => Expr::Id(ty, self.sub(ty, d)),
                    _ => {
                        let op = *self.rng.pick(&REDUCE_OPS);
                        let coll = *self.rng.pick(&[
                            Coll::Allreduce(op),
                            Coll::Reduce(op),
                            Coll::Bcast,
                            Coll::Scan(op),
                        ]);
                        Expr::Coll(coll, self.sub(ty, d))
                    }
                }
            }
            Ty::Bool => match self.rng.pick_weighted(&[8, 2, 3, 3, 2]) {
                0 => {
                    let cmp = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge];
                    let operand = *self.rng.pick(&[Ty::Int, Ty::Int, Ty::Float, Ty::Bool]);
                    let op = match operand {
                        Ty::Bool => *self.rng.pick(&cmp[..2]),
                        _ => *self.rng.pick(&cmp),
                    };
                    Expr::Cmp(op, self.sub(operand, d), self.sub(operand, d))
                }
                1 => Expr::Not(self.sub(Ty::Bool, d)),
                2 => Expr::And(self.sub(Ty::Bool, d), self.sub(Ty::Bool, d)),
                3 => Expr::Or(self.sub(Ty::Bool, d), self.sub(Ty::Bool, d)),
                _ => Expr::Id(ty, self.sub(ty, d)),
            },
            Ty::Ints | Ty::Floats => match self.rng.below(5) {
                0 => self.leaf(ty),
                1 => Expr::Id(ty, self.sub(ty, d)),
                2 => {
                    let coll = *self.rng.pick(&[Coll::Gather, Coll::Allgather]);
                    Expr::Coll(coll, self.sub(ty.elem(), d))
                }
                3 => Expr::Coll(Coll::Alltoall, self.sub(ty, d)),
                _ => {
                    // Rarely a negative length: the program's error.
                    let len = match self.rng.below(16) {
                        0 => Expr::Neg(Box::new(Expr::Int(1))),
                        _ => Expr::Int(self.rng.range_i64(0, 5)),
                    };
                    Expr::NewArray(Box::new(len), self.sub(ty.elem(), d))
                }
            },
        }
    }

    /// A point-to-point payload: an `int` or a `float`.
    fn payload(&mut self) -> Expr {
        let ty = *self.rng.pick(&[Ty::Int, Ty::Float]);
        self.expr(ty, DEPTH)
    }

    /// A local `main` declared, of any type (never a loop variable).
    fn assignable(&mut self) -> (String, Ty) {
        let (name, ty) = *self.rng.pick(&LOCALS);
        (name.to_string(), ty)
    }

    fn block(&mut self, nesting: u32) -> Vec<Stmt> {
        let n = self.rng.range_usize(1, 4);
        (0..n).map(|_| self.stmt(nesting + 1)).collect()
    }

    fn stmt(&mut self, nesting: u32) -> Stmt {
        let weights = if nesting < 2 {
            [30, 15, 25, 10, 8, 7, 4, 4]
        } else {
            [30, 15, 25, 0, 0, 0, 4, 4]
        };
        let kind = match self.rng.pick_weighted(&weights) {
            0 => {
                let (name, ty) = self.assignable();
                StmtKind::Assign(name, self.expr(ty, DEPTH))
            }
            1 => {
                let arr = *self.rng.pick(&[Ty::Ints, Ty::Floats]);
                let name = self.var_of(arr).expect("declared");
                let idx = self.index(DEPTH);
                StmtKind::Store(name, idx, self.expr(arr.elem(), DEPTH))
            }
            2 => {
                let n = self.rng.range_usize(1, 4);
                let all = [Ty::Int, Ty::Float, Ty::Bool, Ty::Ints, Ty::Floats];
                let args = (0..n)
                    .map(|_| {
                        let ty = *self.rng.pick(&all);
                        self.expr(ty, DEPTH)
                    })
                    .collect();
                StmtKind::Print(args)
            }
            3 => {
                let cond = self.expr(Ty::Bool, DEPTH);
                let then = self.block(nesting);
                let els = if self.rng.bool() {
                    self.block(nesting)
                } else {
                    Vec::new()
                };
                StmtKind::If(cond, then, els)
            }
            4 => {
                let var = format!("k{}", self.loops);
                self.loops += 1;
                let lo = self.rng.range_i64(0, 3);
                let hi = self.rng.range_i64(0, 5);
                self.scope.push((var.clone(), Ty::Int));
                let body = self.block(nesting);
                self.scope.pop();
                StmtKind::For(var, lo, hi, body)
            }
            5 => {
                let counter = format!("w{}", self.counters);
                self.counters += 1;
                let n = self.rng.range_i64(0, 4);
                StmtKind::While(counter, n, self.block(nesting))
            }
            6 => StmtKind::SendRecv {
                name: self.var_of(Ty::Float).expect("declared"),
                value: self.payload(),
                tag: self.rng.range_i64(0, 4),
            },
            _ => {
                let request = format!("q{}", self.requests);
                self.requests += 1;
                StmtKind::Nonblocking {
                    request,
                    sent: self.var_of(Ty::Float).expect("declared"),
                    received: self.var_of(Ty::Float).expect("declared"),
                    value: self.payload(),
                    tag: self.rng.range_i64(0, 4),
                }
            }
        };
        Stmt { kind, line: 0 }
    }
}

/// Write `p` as source, setting every line number on the way.
fn render(p: &mut Program, counters: u32) {
    let mut out: Vec<String> = Vec::new();
    for ty in [Ty::Int, Ty::Float, Ty::Bool, Ty::Ints, Ty::Floats] {
        let t = ty.source();
        out.push(format!("fn {}(x: {t}) -> {t} {{ return x; }}", ty.id_fn()));
    }
    out.push("fn main() {".into());
    out.push("    MPI_Init();".into());
    for (name, init, line) in &mut p.decls {
        out.push(format!("    let {name} = {};", expr_source(init)));
        *line = out.len() as u32;
    }
    for c in 0..counters {
        out.push(format!("    let w{c} = 0;"));
    }
    for s in &mut p.body {
        render_stmt(s, 1, &mut out);
    }
    out.push("    MPI_Finalize();".into());
    out.push("}".into());
    p.source = out.join("\n") + "\n";
}

fn render_stmt(s: &mut Stmt, indent: usize, out: &mut Vec<String>) {
    let pad = "    ".repeat(indent);
    let block = |stmts: &mut Vec<Stmt>, out: &mut Vec<String>| {
        for s in stmts {
            render_stmt(s, indent + 1, out);
        }
    };
    match &mut s.kind {
        StmtKind::Assign(name, e) => {
            out.push(format!("{pad}{name} = {};", expr_source(e)));
            s.line = out.len() as u32;
        }
        StmtKind::Store(name, idx, value) => {
            let (i, v) = (expr_source(idx), expr_source(value));
            out.push(format!("{pad}{name}[{i}] = {v};"));
            s.line = out.len() as u32;
        }
        StmtKind::Print(args) => {
            let args: Vec<String> = args.iter().map(expr_source).collect();
            out.push(format!("{pad}print({});", args.join(", ")));
            s.line = out.len() as u32;
        }
        StmtKind::If(cond, then, els) => {
            out.push(format!("{pad}if ({}) {{", expr_source(cond)));
            s.line = out.len() as u32;
            block(then, out);
            if els.is_empty() {
                out.push(format!("{pad}}}"));
            } else {
                out.push(format!("{pad}}} else {{"));
                block(els, out);
                out.push(format!("{pad}}}"));
            }
        }
        StmtKind::For(var, lo, hi, body) => {
            out.push(format!("{pad}for ({var} in {lo}..{hi}) {{"));
            s.line = out.len() as u32;
            block(body, out);
            out.push(format!("{pad}}}"));
        }
        StmtKind::While(counter, n, body) => {
            out.push(format!("{pad}{counter} = 0;"));
            s.line = out.len() as u32;
            out.push(format!("{pad}while ({counter} < {n}) {{"));
            block(body, out);
            out.push(format!("{pad}    {counter} = {counter} + 1;"));
            out.push(format!("{pad}}}"));
        }
        StmtKind::SendRecv { name, value, tag } => {
            let v = expr_source(value);
            out.push(format!(
                "{pad}MPI_Send({v}, 0, {tag}); {name} = MPI_Recv(0, {tag});"
            ));
            s.line = out.len() as u32;
        }
        StmtKind::Nonblocking {
            request,
            sent,
            received,
            value,
            tag,
        } => {
            let v = expr_source(value);
            out.push(format!(
                "{pad}let {request} = MPI_Irecv(0, {tag}); \
                 {sent} = MPI_Wait(MPI_Isend({v}, 0, {tag})); \
                 {received} = MPI_Wait({request});"
            ));
            s.line = out.len() as u32;
        }
    }
}

/// Fully parenthesized source of `e`.
pub fn expr_source(e: &Expr) -> String {
    let s = expr_source;
    match e {
        Expr::Int(x) => x.to_string(),
        // `{:?}` keeps the decimal point: `2.0`, `0.25`.
        Expr::Float(x) => format!("{x:?}"),
        Expr::Bool(b) => b.to_string(),
        Expr::Var(name) => name.clone(),
        Expr::Neg(x) => format!("(-{})", s(x)),
        Expr::Not(x) => format!("(!{})", s(x)),
        Expr::Arith(op, l, r) => {
            let op = match op {
                Arith::Add => "+",
                Arith::Sub => "-",
                Arith::Mul => "*",
                Arith::Div => "/",
                Arith::Rem => "%",
            };
            format!("({} {op} {})", s(l), s(r))
        }
        Expr::Cmp(op, l, r) => {
            let op = match op {
                Cmp::Eq => "==",
                Cmp::Ne => "!=",
                Cmp::Lt => "<",
                Cmp::Le => "<=",
                Cmp::Gt => ">",
                Cmp::Ge => ">=",
            };
            format!("({} {op} {})", s(l), s(r))
        }
        Expr::And(l, r) => format!("({} && {})", s(l), s(r)),
        Expr::Or(l, r) => format!("({} || {})", s(l), s(r)),
        Expr::Load(name, idx) => format!("{name}[{}]", s(idx)),
        Expr::Abs(x) => format!("abs({})", s(x)),
        Expr::Min(a, b) => format!("min({}, {})", s(a), s(b)),
        Expr::Max(a, b) => format!("max({}, {})", s(a), s(b)),
        Expr::Sqrt(x) => format!("sqrt({})", s(x)),
        Expr::IntOf(x) => format!("int_of({})", s(x)),
        Expr::FloatOf(x) => format!("float_of({})", s(x)),
        Expr::Len(x) => format!("len({})", s(x)),
        Expr::Id(ty, x) => format!("{}({})", ty.id_fn(), s(x)),
        Expr::NewArray(len, init) => format!("array({}, {})", s(len), s(init)),
        Expr::Coll(coll, v) => match coll {
            Coll::Allreduce(op) => format!("MPI_Allreduce({}, {op})", s(v)),
            Coll::Reduce(op) => format!("MPI_Reduce({}, {op}, 0)", s(v)),
            Coll::Bcast => format!("MPI_Bcast({}, 0)", s(v)),
            Coll::Scan(op) => format!("MPI_Scan({}, {op})", s(v)),
            Coll::Gather => format!("MPI_Gather({}, 0)", s(v)),
            Coll::Allgather => format!("MPI_Allgather({})", s(v)),
            Coll::Alltoall => format!("MPI_Alltoall({})", s(v)),
        },
    }
}
