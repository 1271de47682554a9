//! Global liveness analysis (backward dataflow on bitsets).
//!
//! Used by dead-code elimination and by the linear-scan register
//! allocator in `codegen`.

use crate::opt::bitset::BitSet;
use crate::opt::usedef::{directive_defs, directive_uses, instr_uses, term_uses};
use parcoach_ir::graph::reverse_post_order;
use parcoach_ir::FuncIr;

/// Per-block live-in / live-out sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Registers live at block entry.
    pub live_in: Vec<BitSet>,
    /// Registers live at block exit.
    pub live_out: Vec<BitSet>,
}

/// Compute liveness for `f`.
///
/// Conservative about parallel regions: a register shared into a region
/// is used there, which the per-block use sets already capture; no extra
/// handling is needed because region bodies are ordinary blocks of the
/// same CFG.
pub fn liveness(f: &FuncIr) -> Liveness {
    let nb = f.block_count();
    let nr = f.reg_types.len();
    // Per-block gen (upward-exposed uses) and kill (defs) sets.
    let mut gen: Vec<BitSet> = Vec::with_capacity(nb);
    let mut kill: Vec<BitSet> = Vec::with_capacity(nb);
    for (id, b) in f.iter_blocks() {
        let mut g = BitSet::new(nr);
        let mut k = BitSet::new(nr);
        for r in directive_uses(b) {
            if !k.contains(r.index()) {
                g.insert(r.index());
            }
        }
        for r in directive_defs(b) {
            k.insert(r.index());
        }
        for (i, _) in f.instrs(id) {
            for u in instr_uses(i) {
                if !k.contains(u.index()) {
                    g.insert(u.index());
                }
            }
            if let Some(d) = i.dest() {
                k.insert(d.index());
            }
        }
        for u in term_uses(&b.term) {
            if !k.contains(u.index()) {
                g.insert(u.index());
            }
        }
        gen.push(g);
        kill.push(k);
    }

    let mut live_in: Vec<BitSet> = (0..nb).map(|_| BitSet::new(nr)).collect();
    let mut live_out: Vec<BitSet> = (0..nb).map(|_| BitSet::new(nr)).collect();
    // Iterate in post-order (good order for backward problems).
    let mut order = reverse_post_order(f);
    order.reverse();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            let bi = b.index();
            // live_out = ∪ live_in(succ)
            let succs = f.successors(b);
            let mut out = BitSet::new(nr);
            for s in succs {
                out.union_with(&live_in[s.index()]);
            }
            // live_in = gen ∪ (out − kill)
            let mut inn = out.clone();
            inn.subtract(&kill[bi]);
            inn.union_with(&gen[bi]);
            if inn != live_in[bi] {
                live_in[bi] = inn;
                changed = true;
            }
            if out != live_out[bi] {
                live_out[bi] = out;
                changed = true;
            }
        }
    }
    Liveness { live_in, live_out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcoach_front::parse_and_check;
    use parcoach_ir::lower::lower_program;

    fn func(src: &str) -> FuncIr {
        let unit = parse_and_check("t.mh", src).expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        m.main().unwrap().clone()
    }

    /// The register the `n`-th `let` of `f`'s entry block binds: each
    /// `let` lowers to one copy into its variable's register, after the
    /// instructions computing the initializer.
    fn let_reg(f: &FuncIr, n: usize) -> usize {
        f.instrs(f.entry)
            .iter()
            .filter_map(|(i, _)| match i {
                parcoach_ir::Instr::Copy { dest, .. } => Some(dest.index()),
                _ => None,
            })
            .nth(n)
            .expect("a `let` of the entry block")
    }

    #[test]
    fn loop_variable_live_around_backedge() {
        let f = func("fn main() { let i = 0; while (i < 10) { i = i + 1; } print(i); }");
        let lv = liveness(&f);
        // The register holding `i` must be live-in at the loop head.
        let i_reg = let_reg(&f, 0);
        // Some block must have it live-in (the loop head).
        assert!(
            lv.live_in.iter().any(|s| s.contains(i_reg)),
            "loop variable must be live somewhere"
        );
    }

    #[test]
    fn dead_value_not_live_anywhere() {
        let f = func("fn main() { let dead = 42; let used = 1; print(used); }");
        let lv = liveness(&f);
        let dead_reg = let_reg(&f, 0);
        assert!(
            lv.live_in.iter().all(|s| !s.contains(dead_reg)),
            "dead value must never be live-in"
        );
    }

    #[test]
    fn value_live_across_intervening_loop() {
        // `c` is defined in the entry block and used only after the
        // loop: it must be live-in across every loop block.
        let f = func(
            "fn main() {
                let c = rank() == 0;
                let d = 0;
                while (d < 3) { d = d + 1; }
                if (c) { print(1); }
            }",
        );
        let lv = liveness(&f);
        let c_reg = let_reg(&f, 0);
        let live_in_count = lv.live_in.iter().filter(|s| s.contains(c_reg)).count();
        assert!(
            live_in_count >= 2,
            "c must be live-in across the loop, found {live_in_count} blocks"
        );
    }
}
