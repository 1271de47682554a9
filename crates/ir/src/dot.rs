//! Graphviz DOT export of function CFGs.
//!
//! Directive nodes are drawn as boxes (parallel constructs double-framed,
//! barriers filled) so that the paper's "modified CFG" is visually
//! inspectable: `parcoachc dump prog.mh --dot | dot -Tsvg`.

use crate::func::{FuncIr, Module};
use crate::instr::{BlockKind, Directive, Instr};
use std::fmt::Write;

/// Render the CFG of `f`, a function of `m`, as a DOT digraph.
pub fn func_to_dot(f: &FuncIr, m: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", f.name);
    let _ = writeln!(out, "  node [fontname=\"monospace\", fontsize=10];");
    let _ = writeln!(out, "  label=\"fn {}\";", f.name);
    for (id, b) in f.iter_blocks() {
        let (shape, label) = match &b.kind {
            BlockKind::Normal => {
                let mut body = String::new();
                let instrs = f.instrs(id);
                for (i, _) in instrs.iter().take(6) {
                    let line = summarize_instr(i, m);
                    body.push_str(&line);
                    body.push_str("\\l");
                }
                if instrs.len() > 6 {
                    body.push_str(&format!("… (+{})\\l", instrs.len() - 6));
                }
                ("box", format!("{id}\\n{body}"))
            }
            BlockKind::Directive(d) => {
                let extra = match d {
                    Directive::Barrier { implicit, .. } => {
                        if *implicit {
                            " (implicit)".to_string()
                        } else {
                            String::new()
                        }
                    }
                    _ => d.region().map(|r| format!(" {r}")).unwrap_or_default(),
                };
                ("octagon", format!("{id}\\n{}{extra}", d.mnemonic()))
            }
        };
        let style = match &b.kind {
            BlockKind::Directive(Directive::Barrier { .. }) => ", style=filled, fillcolor=gray85",
            BlockKind::Directive(Directive::ParallelBegin { .. })
            | BlockKind::Directive(Directive::ParallelEnd { .. }) => ", peripheries=2",
            _ => "",
        };
        let _ = writeln!(
            out,
            "  n{} [shape={shape}, label=\"{label}\"{style}];",
            id.0
        );
    }
    for (id, b) in f.iter_blocks() {
        let succs = b.term.successors();
        match succs.len() {
            2 => {
                let _ = writeln!(out, "  n{} -> n{} [label=\"T\"];", id.0, succs[0].0);
                let _ = writeln!(out, "  n{} -> n{} [label=\"F\"];", id.0, succs[1].0);
            }
            _ => {
                for s in succs {
                    let _ = writeln!(out, "  n{} -> n{};", id.0, s.0);
                }
            }
        }
    }
    out.push_str("}\n");
    out
}

fn summarize_instr(i: &Instr, m: &Module) -> String {
    match i {
        Instr::Copy { dest, src } => format!("{dest} = {src}"),
        Instr::Unary { dest, op, src } => format!("{dest} = {op:?} {src}"),
        Instr::Binary {
            dest, op, lhs, rhs, ..
        } => {
            format!("{dest} = {lhs} {} {rhs}", op.symbol())
        }
        Instr::ArrayNew { dest, len, .. } => format!("{dest} = array[{len}]"),
        Instr::Load { dest, arr, idx, .. } => format!("{dest} = {arr}[{idx}]"),
        Instr::Store {
            arr, idx, value, ..
        } => format!("{arr}[{idx}] = {value}"),
        Instr::Intrinsic { dest, intr, .. } => format!("{dest} = {}()", intr.name()),
        Instr::Call {
            dest: Some(d),
            callee,
            ..
        } => format!("{d} = call {}", m.funcs[*callee].name),
        Instr::Call { callee, .. } => format!("call {}", m.funcs[*callee].name),
        Instr::Mpi { op, .. } => op.name().into(),
        Instr::Print { .. } => "print".into(),
        Instr::Check(c) => format!("CHECK {c:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use parcoach_front::parse_and_check;

    #[test]
    fn dot_contains_all_blocks_and_edges() {
        let unit = parse_and_check(
            "t.mh",
            "fn main() { parallel { single { MPI_Barrier(); } } }",
        )
        .unwrap();
        let m = lower_program(&unit.program, &unit.signatures);
        let f = m.main().unwrap();
        let dot = func_to_dot(f, &m);
        assert!(dot.starts_with("digraph"));
        for id in f.block_ids() {
            assert!(dot.contains(&format!("n{} [", id.0)), "missing node {id}");
        }
        assert!(dot.contains("parallel.begin"));
        assert!(dot.contains("MPI_Barrier"));
        assert!(dot.contains("barrier.implicit"));
        assert!(dot.ends_with("}\n"));
    }

    /// A node names its MPI operation as the source spells it.
    #[test]
    fn mpi_nodes_carry_the_operation_name() {
        let unit = parse_and_check(
            "t.mh",
            "fn main() { MPI_Init_thread(MULTIPLE); MPI_Waitall(MPI_Irecv(0, 1)); }",
        )
        .unwrap();
        let m = lower_program(&unit.program, &unit.signatures);
        let dot = func_to_dot(m.main().unwrap(), &m);
        assert!(
            dot.contains(r#"label="bb0\nMPI_Init_thread\lMPI_Irecv\lMPI_Waitall\l""#),
            "{dot}"
        );
    }

    #[test]
    fn branch_edges_labelled() {
        let unit =
            parse_and_check("t.mh", "fn main() { if (rank() == 0) { MPI_Barrier(); } }").unwrap();
        let m = lower_program(&unit.program, &unit.signatures);
        let dot = func_to_dot(m.main().unwrap(), &m);
        assert!(dot.contains("label=\"T\""));
        assert!(dot.contains("label=\"F\""));
    }
}
