//! AST → source pretty-printer.
//!
//! Used by the workload generators (which build ASTs programmatically and
//! emit source for the compile-time benchmarks) and by round-trip tests:
//! `parse(pretty(ast))` must equal `ast` modulo spans.

use crate::ast::*;
use crate::symbol::Interner;
use std::fmt::Write;

/// Render a whole program as MiniHPC source.
pub fn pretty_program(prog: &Program) -> String {
    let mut p = Printer {
        out: String::new(),
        indent: 0,
        interner: &prog.interner,
        exprs: &[],
    };
    for (i, f) in prog.functions.iter().enumerate() {
        if i > 0 {
            p.out.push('\n');
        }
        p.function(f);
    }
    p.out
}

struct Printer<'a> {
    out: String,
    indent: usize,
    interner: &'a Interner,
    /// The arena of the function being printed.
    exprs: &'a [Expr],
}

impl<'a> Printer<'a> {
    /// The identifier's text.
    fn name(&self, id: Ident) -> &'a str {
        self.interner.resolve(id.sym)
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn open(&mut self, header: &str) {
        self.line(&format!("{header} {{"));
        self.indent += 1;
    }

    fn close(&mut self) {
        self.indent -= 1;
        self.line("}");
    }

    fn function(&mut self, f: &'a Function) {
        self.exprs = &f.exprs;
        let params = f
            .params
            .iter()
            .map(|p| format!("{}: {}", self.name(p.name), p.ty))
            .collect::<Vec<_>>()
            .join(", ");
        let ret = if f.ret == Type::Void {
            String::new()
        } else {
            format!(" -> {}", f.ret)
        };
        self.open(&format!("fn {}({params}){ret}", self.name(f.name)));
        self.block_body(&f.body);
        self.close();
    }

    fn block_body(&mut self, b: &Block) {
        for s in &b.stmts {
            self.stmt(s);
        }
    }

    fn nested(&mut self, header: &str, b: &Block) {
        self.open(header);
        self.block_body(b);
        self.close();
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Let { name, ty, init } => {
                let ty = ty.map(|t| format!(": {t}")).unwrap_or_default();
                let init = self.expr_str(*init);
                self.line(&format!("let {}{ty} = {init};", self.name(*name)));
            }
            StmtKind::Assign { target, value } => {
                let value = self.expr_str(*value);
                match *target {
                    LValue::Var(id) => self.line(&format!("{} = {value};", self.name(id))),
                    LValue::Index(id, idx) => {
                        let idx = self.expr_str(idx);
                        self.line(&format!("{}[{idx}] = {value};", self.name(id)));
                    }
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let cond = self.expr_str(*cond);
                self.open(&format!("if ({cond})"));
                self.block_body(then_blk);
                match else_blk {
                    None => self.close(),
                    Some(e) => {
                        self.indent -= 1;
                        self.line("} else {");
                        self.indent += 1;
                        self.block_body(e);
                        self.close();
                    }
                }
            }
            StmtKind::While { cond, body } => {
                let cond = self.expr_str(*cond);
                self.nested(&format!("while ({cond})"), body);
            }
            StmtKind::For { var, lo, hi, body } => {
                let lo = self.expr_str(*lo);
                let hi = self.expr_str(*hi);
                self.nested(&format!("for ({} in {lo}..{hi})", self.name(*var)), body);
            }
            StmtKind::Return(None) => self.line("return;"),
            StmtKind::Return(Some(e)) => {
                let e = self.expr_str(*e);
                self.line(&format!("return {e};"));
            }
            StmtKind::Break => self.line("break;"),
            StmtKind::Continue => self.line("continue;"),
            StmtKind::Expr(e) => {
                let e = self.expr_str(*e);
                self.line(&format!("{e};"));
            }
            StmtKind::Print(args) => {
                let args = args
                    .iter()
                    .map(|a| self.expr_str(a))
                    .collect::<Vec<_>>()
                    .join(", ");
                self.line(&format!("print({args});"));
            }
            StmtKind::Barrier => self.line("barrier;"),
            StmtKind::Omp(omp) => self.omp(omp),
        }
    }

    fn omp(&mut self, omp: &OmpStmt) {
        match omp {
            OmpStmt::Parallel { num_threads, body } => {
                let clause = match num_threads {
                    Some(e) => format!(" num_threads({})", self.expr_str(*e)),
                    None => String::new(),
                };
                self.nested(&format!("parallel{clause}"), body);
            }
            OmpStmt::Single { nowait, body } => {
                let clause = if *nowait { " nowait" } else { "" };
                self.nested(&format!("single{clause}"), body);
            }
            OmpStmt::Master { body } => self.nested("master", body),
            OmpStmt::Critical { body } => self.nested("critical", body),
            OmpStmt::PFor {
                nowait,
                var,
                lo,
                hi,
                body,
            } => {
                let clause = if *nowait { " nowait" } else { "" };
                let lo = self.expr_str(*lo);
                let hi = self.expr_str(*hi);
                let var = self.name(*var);
                self.nested(&format!("pfor{clause} ({var} in {lo}..{hi})"), body);
            }
            OmpStmt::Sections { nowait, sections } => {
                let clause = if *nowait { " nowait" } else { "" };
                self.open(&format!("sections{clause}"));
                for sec in sections {
                    self.nested("section", sec);
                }
                self.close();
            }
        }
    }

    fn expr_str(&mut self, e: ExprId) -> String {
        let out = std::mem::take(&mut self.out);
        self.expr(e);
        std::mem::replace(&mut self.out, out)
    }

    fn expr(&mut self, e: ExprId) {
        match &self.exprs[e.0 as usize].kind {
            ExprKind::Int(v) => {
                let _ = write!(self.out, "{v}");
            }
            ExprKind::Float(v) => {
                // Ensure the literal re-lexes as a float.
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    let _ = write!(self.out, "{v:.1}");
                } else {
                    let _ = write!(self.out, "{v}");
                }
            }
            ExprKind::Bool(v) => {
                let _ = write!(self.out, "{v}");
            }
            ExprKind::Var(id) => self.out.push_str(self.name(*id)),
            ExprKind::Index(id, idx) => {
                let _ = write!(self.out, "{}[", self.name(*id));
                self.expr(*idx);
                self.out.push(']');
            }
            ExprKind::Unary(op, inner) => {
                self.out.push(match op {
                    UnOp::Neg => '-',
                    UnOp::Not => '!',
                });
                self.out.push('(');
                self.expr(*inner);
                self.out.push(')');
            }
            ExprKind::Binary(op, l, r) => {
                self.out.push('(');
                self.expr(*l);
                let _ = write!(self.out, " {} ", op.symbol());
                self.expr(*r);
                self.out.push(')');
            }
            ExprKind::Call(name, args) => {
                let _ = write!(self.out, "{}(", self.name(*name));
                self.args(*args);
                self.out.push(')');
            }
            ExprKind::Intrinsic(intr, args) => {
                let _ = write!(self.out, "{}(", intr.name());
                self.args(*args);
                self.out.push(')');
            }
            ExprKind::Mpi(op) => self.mpi(op),
        }
    }

    fn args(&mut self, args: ExprRange) {
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.expr(a);
        }
    }

    fn mpi(&mut self, op: &MpiOp) {
        match *op {
            MpiOp::Init => self.out.push_str("MPI_Init()"),
            MpiOp::InitThread { required } => {
                let name = match required {
                    ThreadLevel::Single => "SINGLE",
                    ThreadLevel::Funneled => "FUNNELED",
                    ThreadLevel::Serialized => "SERIALIZED",
                    ThreadLevel::Multiple => "MULTIPLE",
                };
                let _ = write!(self.out, "MPI_Init_thread({name})");
            }
            MpiOp::Finalize => self.out.push_str("MPI_Finalize()"),
            MpiOp::Send {
                value,
                dest,
                tag,
                comm,
            } => {
                self.out.push_str("MPI_Send(");
                self.expr(value);
                self.out.push_str(", ");
                self.expr(dest);
                self.out.push_str(", ");
                self.expr(tag);
                if let Some(cm) = comm {
                    self.out.push_str(", ");
                    self.expr(cm);
                }
                self.out.push(')');
            }
            MpiOp::Recv { src, tag, comm } => {
                self.out.push_str("MPI_Recv(");
                self.expr(src);
                self.out.push_str(", ");
                self.expr(tag);
                if let Some(cm) = comm {
                    self.out.push_str(", ");
                    self.expr(cm);
                }
                self.out.push(')');
            }
            MpiOp::CommWorld => self.out.push_str("MPI_COMM_WORLD"),
            MpiOp::CommSplit { parent, color, key } => {
                self.out.push_str("MPI_Comm_split(");
                self.expr(parent);
                self.out.push_str(", ");
                self.expr(color);
                self.out.push_str(", ");
                self.expr(key);
                self.out.push(')');
            }
            MpiOp::CommDup { comm } => {
                self.out.push_str("MPI_Comm_dup(");
                self.expr(comm);
                self.out.push(')');
            }
            MpiOp::Isend {
                value,
                dest,
                tag,
                comm,
            } => {
                self.out.push_str("MPI_Isend(");
                self.expr(value);
                self.out.push_str(", ");
                self.expr(dest);
                self.out.push_str(", ");
                self.expr(tag);
                if let Some(cm) = comm {
                    self.out.push_str(", ");
                    self.expr(cm);
                }
                self.out.push(')');
            }
            MpiOp::Irecv { src, tag, comm } => {
                self.out.push_str("MPI_Irecv(");
                self.expr(src);
                self.out.push_str(", ");
                self.expr(tag);
                if let Some(cm) = comm {
                    self.out.push_str(", ");
                    self.expr(cm);
                }
                self.out.push(')');
            }
            MpiOp::Wait { request } => {
                self.out.push_str("MPI_Wait(");
                self.expr(request);
                self.out.push(')');
            }
            MpiOp::Waitall { requests } => {
                self.out.push_str("MPI_Waitall(");
                self.args(requests);
                self.out.push(')');
            }
            MpiOp::AnySource => self.out.push_str("MPI_ANY_SOURCE"),
            MpiOp::AnyTag => self.out.push_str("MPI_ANY_TAG"),
            MpiOp::Collective(c) => {
                let _ = write!(self.out, "{}(", c.kind.mpi_name());
                let mut first = true;
                if let Some(v) = c.value {
                    self.expr(v);
                    first = false;
                }
                if let Some(op) = c.reduce_op {
                    if !first {
                        self.out.push_str(", ");
                    }
                    self.out.push_str(op.name());
                    first = false;
                }
                if let Some(root) = c.root {
                    if !first {
                        self.out.push_str(", ");
                    }
                    self.expr(root);
                    first = false;
                }
                if let Some(cm) = c.comm {
                    if !first {
                        self.out.push_str(", ");
                    }
                    self.expr(cm);
                }
                self.out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    /// Strip spans by comparing the *second* round trip: pretty(parse(x))
    /// is a fixpoint.
    fn roundtrip(src: &str) {
        let (p1, d1) = parse_program(src);
        assert!(!d1.has_errors(), "{d1:?}");
        let printed = pretty_program(&p1);
        let (p2, d2) = parse_program(&printed);
        assert!(!d2.has_errors(), "re-parse failed on:\n{printed}\n{d2:?}");
        let printed2 = pretty_program(&p2);
        assert_eq!(printed, printed2, "pretty-print is not a fixpoint");
        // Structural comparison (spans differ, so compare printed forms).
        assert_eq!(p1.functions.len(), p2.functions.len());
        assert_eq!(p1.stmt_count(), p2.stmt_count());
    }

    #[test]
    fn roundtrip_basic() {
        roundtrip("fn main() { let x = 1 + 2 * 3; print(x); }");
    }

    #[test]
    fn roundtrip_control_flow() {
        roundtrip(
            "fn f(a: int) -> int { if (a > 0) { return a; } else { return -(a); } }
             fn main() { for (i in 0..10) { while (i < 5) { break; } } let z = f(3); }",
        );
    }

    #[test]
    fn roundtrip_omp_mpi() {
        roundtrip(
            "fn main() {
                MPI_Init_thread(MULTIPLE);
                parallel num_threads(4) {
                    single nowait { MPI_Barrier(); }
                    master { let x = MPI_Allreduce(1, SUM); }
                    critical { }
                    barrier;
                    pfor nowait (i in 0..8) { let y = i; }
                    sections { section { } section { let s = MPI_Bcast(1, 0); } }
                }
                MPI_Finalize();
            }",
        );
    }

    #[test]
    fn roundtrip_arrays_and_floats() {
        roundtrip(
            "fn main() {
                let a = array(10, 0.0);
                a[3] = sqrt(2.0) + 1.0e3;
                let g = MPI_Gather(a[3], 0);
                let s = MPI_Scatter(g, 0);
                print(len(g), s);
            }",
        );
    }

    #[test]
    fn float_literals_relex_as_floats() {
        // `{}` of the f64 2.0 is "2", which would re-lex as an int.
        let (p, _) = parse_program("fn main() { let x = 2.0; let y = 2.0e0; }");
        let printed = pretty_program(&p);
        for var in ["x", "y"] {
            assert!(printed.contains(&format!("let {var} = 2.0;")), "{printed}");
        }
    }

    #[test]
    fn roundtrip_nonblocking_and_wildcards() {
        roundtrip(
            "fn main() {
                MPI_Init();
                let peer = size() - 1 - rank();
                let r = MPI_Irecv(MPI_ANY_SOURCE, MPI_ANY_TAG);
                let s = MPI_Isend(1.5, peer, 4);
                let c = MPI_Comm_dup(MPI_COMM_WORLD);
                let t = MPI_Irecv(peer, 7, c);
                let v = MPI_Wait(r);
                MPI_Waitall(s, t);
                MPI_Finalize();
            }",
        );
    }

    #[test]
    fn roundtrip_else_if() {
        roundtrip(
            "fn main() {
                let r = rank();
                if (r == 0) { MPI_Barrier(); } else if (r == 1) { } else { print(r); }
            }",
        );
    }
}
