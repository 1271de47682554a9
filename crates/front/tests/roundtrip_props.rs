//! Property tests: pretty-printing is a parser fixpoint for arbitrary
//! generated programs (parse ∘ pretty = id up to spans), and the
//! interner is a bijection between the names it was given and dense
//! ids in first-appearance order.
//!
//! Programs are generated from a per-case `parcoach_testutil::Rng` seed;
//! failures print the seed and the generated source.

use parcoach_front::ast::{Block, ExprId, ExprKind, Function, LValue, OmpStmt, Program, StmtKind};
use parcoach_front::pretty::pretty_program;
use parcoach_front::{parse_and_check, parser::parse_program, Interner, Symbol};
use parcoach_testutil::{case_budget, Rng};

/// Base budget; `PARCOACH_PROP_BUDGET` (CI's extended matrix) scales it.
const CASES: u64 = 128;

/// Integer-typed expressions only, so the generated programs type-check.
fn random_expr(rng: &mut Rng, depth: u32) -> String {
    let leaf = |rng: &mut Rng| match rng.below(4) {
        0 => rng.range_i64(0, 1000).to_string(),
        1 => "x".to_string(),
        2 => "rank()".to_string(),
        _ => "size()".to_string(),
    };
    if depth == 0 {
        return leaf(rng);
    }
    // Same 3:1:1:1:1 weighting as the old prop_oneof.
    match rng.pick_weighted(&[3, 1, 1, 1, 1]) {
        0 => leaf(rng),
        1 => {
            let a = random_expr(rng, depth - 1);
            let b = random_expr(rng, depth - 1);
            format!("({a} + {b})")
        }
        2 => {
            let a = random_expr(rng, depth - 1);
            let b = random_expr(rng, depth - 1);
            format!("({a} * {b})")
        }
        3 => {
            let a = random_expr(rng, depth - 1);
            format!("-({a})")
        }
        _ => {
            let a = random_expr(rng, depth - 1);
            if rng.bool() {
                format!("min({a}, 7)")
            } else {
                format!("max({a}, 7)")
            }
        }
    }
}

/// Statements over an `int` variable x (type-correct subset so
/// parse_and_check accepts them).
fn random_stmt(rng: &mut Rng) -> String {
    match rng.below(7) {
        0 => format!("x = {};", random_expr(rng, 2)),
        1 => format!(
            "if (x < {}) {{ x = x + 1; }} else {{ x = x - 1; }}",
            random_expr(rng, 2)
        ),
        2 => format!("for (i in 0..3) {{ x = x + {} % 5; }}", random_expr(rng, 2)),
        3 => "parallel num_threads(2) { single { x = x + 1; } }".to_string(),
        4 => "parallel { master { x = x * 2; } barrier; }".to_string(),
        5 => "MPI_Barrier();".to_string(),
        _ => "let g = MPI_Allgather(x); x = len(g);".to_string(),
    }
}

fn random_program(rng: &mut Rng) -> String {
    let n = rng.below(8);
    let stmts: Vec<String> = (0..n).map(|_| random_stmt(rng)).collect();
    format!("fn main() {{ let x = 1; {} print(x); }}", stmts.join(" "))
}

/// The program "up to spans", read through the arenas: every name
/// resolved by the program's own interner and every [`ExprId`] replaced
/// by the tree behind it, so two programs with different interners (or
/// arena layouts) compare by what they mean.
fn shape(prog: &Program) -> String {
    let mut out = String::new();
    for f in &prog.functions {
        out += &format!("fn {}(", prog.name(f.name));
        for p in &f.params {
            out += &format!("{}: {},", prog.name(p.name), p.ty);
        }
        out += &format!(") -> {} ", f.ret);
        block_shape(prog, f, &f.body, &mut out);
    }
    out
}

fn block_shape(prog: &Program, f: &Function, b: &Block, out: &mut String) {
    out.push('{');
    for s in f.stmts(b) {
        let e = |id: &ExprId| expr_shape(prog, f, *id);
        match &s.kind {
            StmtKind::Let { name, ty, init } => {
                *out += &format!("let {} {ty:?} {};", prog.name(*name), e(init))
            }
            StmtKind::Assign { target, value } => match target {
                LValue::Var(id) => *out += &format!("{} = {};", prog.name(*id), e(value)),
                LValue::Index(id, i) => {
                    *out += &format!("{}[{}] = {};", prog.name(*id), e(i), e(value))
                }
            },
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                *out += &format!("if {} ", e(cond));
                block_shape(prog, f, then_blk, out);
                if let Some(b) = else_blk {
                    out.push_str(" else ");
                    block_shape(prog, f, b, out);
                }
            }
            StmtKind::While { cond, body } => {
                *out += &format!("while {} ", e(cond));
                block_shape(prog, f, body, out);
            }
            StmtKind::For { var, lo, hi, body } => {
                *out += &format!("for {} {}..{} ", prog.name(*var), e(lo), e(hi));
                block_shape(prog, f, body, out);
            }
            StmtKind::Return(v) => *out += &format!("return {:?};", v.as_ref().map(e)),
            StmtKind::Break => out.push_str("break;"),
            StmtKind::Continue => out.push_str("continue;"),
            StmtKind::Expr(x) => *out += &format!("{};", e(x)),
            StmtKind::Print(args) => {
                let args: Vec<String> = args.iter().map(|a| e(&a)).collect();
                *out += &format!("print{args:?};")
            }
            StmtKind::Barrier => out.push_str("barrier;"),
            StmtKind::Omp(omp) => {
                out.push_str(omp.construct_name());
                match omp {
                    OmpStmt::Parallel { num_threads, body } => {
                        *out += &format!(" {:?} ", num_threads.as_ref().map(e));
                        block_shape(prog, f, body, out);
                    }
                    OmpStmt::Single { nowait, body } => {
                        *out += &format!(" {nowait} ");
                        block_shape(prog, f, body, out);
                    }
                    OmpStmt::Master { body } | OmpStmt::Critical { body } => {
                        block_shape(prog, f, body, out)
                    }
                    OmpStmt::PFor {
                        nowait,
                        var,
                        lo,
                        hi,
                        body,
                    } => {
                        *out += &format!(" {nowait} {} {}..{} ", prog.name(*var), e(lo), e(hi));
                        block_shape(prog, f, body, out);
                    }
                    OmpStmt::Sections { nowait, sections } => {
                        *out += &format!(" {nowait} ");
                        for sec in sections {
                            block_shape(prog, f, sec, out);
                        }
                    }
                }
            }
        }
    }
    out.push('}');
}

/// `text` with the number after every `ExprId(` and `start: ` (of an
/// `ExprRange`) blanked: where a child sits in the arena is layout.
fn erase_ids(text: &str) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = ["ExprId(", "start: "]
        .iter()
        .filter_map(|m| rest.find(m).map(|i| i + m.len()))
        .min()
    {
        out.push_str(&rest[..at]);
        out.push('_');
        rest = rest[at..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out + rest
}

fn expr_shape(prog: &Program, f: &Function, id: ExprId) -> String {
    let e = f.expr(id);
    let head = match &e.kind {
        ExprKind::Var(v) | ExprKind::Index(v, _) => format!("var {}", prog.name(*v)),
        ExprKind::Call(callee, _) => format!("call {}", prog.name(*callee)),
        ExprKind::Unary(op, _) => format!("{op:?}"),
        ExprKind::Binary(op, ..) => format!("{op:?}"),
        ExprKind::Intrinsic(intr, _) => format!("{intr:?}"),
        // Literals and MPI operations: `{:?}` without the arena indices.
        other => erase_ids(&format!("{other:?}")),
    };
    let mut children = Vec::new();
    e.children(|c| children.push(expr_shape(prog, f, c)));
    format!("({head} {children:?})")
}

#[test]
fn interner_is_a_bijection_onto_dense_first_appearance_ids() {
    for seed in 0..case_budget(CASES) {
        let mut rng = Rng::new(seed);
        // Few distinct names, many occurrences, the empty name included.
        let names: Vec<String> = (0..200)
            .map(|_| "n".repeat(rng.below(4)) + &rng.below(12).to_string()[..rng.below(2)])
            .collect();
        let mut interner = Interner::new();
        let mut first_seen: Vec<&str> = Vec::new();
        for n in &names {
            let known = first_seen.iter().position(|k| k == n);
            assert_eq!(interner.get(n).map(Symbol::index), known, "seed {seed}");
            let sym = interner.intern(n);
            // Equal text, equal symbol; a new text, the next dense id.
            assert_eq!(
                sym.index(),
                known.unwrap_or(first_seen.len()),
                "seed {seed}"
            );
            if known.is_none() {
                first_seen.push(n);
            }
            assert_eq!(interner.resolve(sym), n, "seed {seed}");
        }
        assert_eq!(interner.len(), first_seen.len());
        for (i, n) in first_seen.iter().enumerate() {
            assert_eq!(interner.resolve(Symbol(i as u32)), *n);
            assert_eq!(interner.intern(n), Symbol(i as u32));
        }
    }
}

#[test]
fn pretty_is_parser_fixpoint() {
    for seed in 0..case_budget(CASES) {
        let src = random_program(&mut Rng::new(seed));
        // 1. The generated program must check.
        let unit = parse_and_check("gen.mh", &src)
            .unwrap_or_else(|(d, sm)| panic!("seed {seed}: {}", d.render(&sm)));
        // 2. pretty → parse → pretty must be stable.
        let p1 = pretty_program(&unit.program);
        let (prog2, diags) = parse_program(&p1);
        assert!(!diags.has_errors(), "seed {seed}: re-parse failed:\n{p1}");
        let p2 = pretty_program(&prog2);
        assert_eq!(&p1, &p2, "seed {seed}: pretty-print not a fixpoint");
        // 3. Structure is preserved: the two programs — different
        // interners, different spans — are the same up to spans.
        assert_eq!(shape(&unit.program), shape(&prog2), "seed {seed}:\n{p1}");
    }
}
