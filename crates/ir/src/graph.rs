//! Small graph utilities over the CFG: the predecessor table,
//! reachability, traversal orders, and a reverse-graph view used by the
//! post-dominance machinery.

use crate::func::FuncIr;
use crate::types::BlockId;

/// Predecessor lists of every block in one compressed-sparse-row table:
/// `preds[b.index()]` is a slice of `edges`. Built once per function
/// ([`FuncIr::predecessors`]) and shared by the dominator tree, the
/// post-dominator tree and loop detection.
#[derive(Debug, Clone, PartialEq)]
pub struct Preds {
    /// `offsets[b]..offsets[b + 1]` delimits block `b`'s row.
    offsets: Vec<u32>,
    /// All predecessor ids, rows back to back; within a row in block
    /// order of the predecessor (and successor order for a double edge).
    edges: Vec<BlockId>,
}

impl Preds {
    /// The predecessor table of `f`. Terminator targets must be in
    /// range (the verifier checks that first).
    pub(crate) fn build(f: &FuncIr) -> Preds {
        let n = f.block_count();
        let mut offsets = vec![0u32; n + 1];
        for b in &f.blocks {
            for s in b.term.successors() {
                offsets[s.index() + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut edges = vec![BlockId(0); offsets[n] as usize];
        let mut fill = offsets.clone();
        for (id, b) in f.iter_blocks() {
            for s in b.term.successors() {
                edges[fill[s.index()] as usize] = id;
                fill[s.index()] += 1;
            }
        }
        Preds { offsets, edges }
    }
}

impl std::ops::Index<usize> for Preds {
    type Output = [BlockId];

    fn index(&self, block: usize) -> &[BlockId] {
        &self.edges[self.offsets[block] as usize..self.offsets[block + 1] as usize]
    }
}

/// Blocks reachable from the entry, as a dense bool table.
pub fn reachable(f: &FuncIr) -> Vec<bool> {
    let mut seen = vec![false; f.block_count()];
    let mut stack = vec![f.entry];
    seen[f.entry.index()] = true;
    while let Some(b) = stack.pop() {
        for s in f.successors(b) {
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    seen
}

/// Reverse post-order of the reachable blocks (classic iterative DFS).
///
/// RPO is the canonical iteration order for forward dataflow problems —
/// the parallelism-word propagation in `parcoach-core` converges in one
/// pass over structured CFGs when visited in RPO.
pub fn reverse_post_order(f: &FuncIr) -> Vec<BlockId> {
    let n = f.block_count();
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
    let mut post = Vec::with_capacity(n);
    // Iterative DFS keeping an explicit successor cursor per frame.
    let mut stack: Vec<(BlockId, usize)> = Vec::new();
    state[f.entry.index()] = 1;
    stack.push((f.entry, 0));
    while let Some((b, cursor)) = stack.last_mut() {
        if let Some(&s) = f.successors(*b).get(*cursor) {
            *cursor += 1;
            if state[s.index()] == 0 {
                state[s.index()] = 1;
                stack.push((s, 0));
            }
        } else {
            state[b.index()] = 2;
            post.push(*b);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// Post-order of reachable blocks (reverse of [`reverse_post_order`]).
pub fn post_order(f: &FuncIr) -> Vec<BlockId> {
    let mut rpo = reverse_post_order(f);
    rpo.reverse();
    rpo
}

/// A reverse view of the CFG with a *virtual exit node*.
///
/// Post-dominance is dominance on the reverse CFG. Real functions may
/// have several `Return` blocks, and blocks on infinite loops may not
/// reach any return at all; the virtual exit is a fresh node that every
/// return block (and, to keep the analysis total, every reachable
/// terminal cycle) points to.
///
/// The view stores only the edges into the virtual exit: a block's
/// reverse successors are its row of the function's [`Preds`] table,
/// its reverse predecessors its terminator's successors.
#[derive(Debug)]
pub struct ReverseCfg<'a> {
    preds: &'a Preds,
    /// Blocks with an edge to the virtual exit, in the order they were
    /// attached: the returns in block order, then one representative of
    /// each terminal cycle.
    exit_preds: Vec<BlockId>,
    /// Membership of `exit_preds`, by block.
    to_exit: Vec<bool>,
    /// Index of the virtual exit node (== original block count).
    pub virtual_exit: usize,
}

impl<'a> ReverseCfg<'a> {
    /// Build the reverse view of `f` over its predecessor table.
    pub fn build(f: &FuncIr, preds: &'a Preds) -> ReverseCfg<'a> {
        let n = f.block_count();
        let mut rcfg = ReverseCfg {
            preds,
            exit_preds: Vec::new(),
            to_exit: vec![false; n],
            virtual_exit: n,
        };
        let mut reaches_exit = vec![false; n];
        let mut work: Vec<BlockId> = Vec::new();
        // Return (or Unreachable) → edge to the virtual exit.
        for (id, b) in f.iter_blocks() {
            if b.term.successors().is_empty() {
                rcfg.attach(id, &mut reaches_exit, &mut work);
            }
        }
        // Terminal cycles (infinite loops) never reach the exit; attach
        // the lowest-numbered block of each to the exit so every
        // reachable node participates in post-dominance.
        let reach = reachable(f);
        for v in f.block_ids() {
            if reach[v.index()] && !reaches_exit[v.index()] {
                rcfg.attach(v, &mut reaches_exit, &mut work);
            }
        }
        rcfg
    }

    /// Add the edge `v → virtual exit` and mark everything that reaches
    /// `v` as reaching the exit.
    fn attach(&mut self, v: BlockId, reaches_exit: &mut [bool], work: &mut Vec<BlockId>) {
        self.exit_preds.push(v);
        self.to_exit[v.index()] = true;
        reaches_exit[v.index()] = true;
        work.push(v);
        while let Some(b) = work.pop() {
            for &p in &self.preds[b.index()] {
                if !reaches_exit[p.index()] {
                    reaches_exit[p.index()] = true;
                    work.push(p);
                }
            }
        }
    }

    /// Successors of node `v` in the reverse graph (original
    /// predecessors; the blocks attached to it for the virtual exit).
    pub fn succs(&self, v: usize) -> &[BlockId] {
        if v == self.virtual_exit {
            &self.exit_preds
        } else {
            &self.preds[v]
        }
    }

    /// Does block `v` have an edge to the virtual exit?
    pub fn exits(&self, v: BlockId) -> bool {
        self.to_exit[v.index()]
    }
}

/// Test helper: build a function from an adjacency list; blocks with no
/// successors return, one successor goto, two successors branch. Exposed
/// crate-wide for the dom/loops unit tests and to downstream dev-tests.
pub fn func_from_edges(n: usize, edges: &[(u32, u32)]) -> FuncIr {
    use crate::func::BasicBlock;
    use crate::instr::Terminator;
    use crate::types::Value;
    use parcoach_front::ast::Type;
    use parcoach_front::span::Span;

    let mut blocks: Vec<BasicBlock> = (0..n).map(|_| BasicBlock::new()).collect();
    for (i, block) in blocks.iter_mut().enumerate() {
        let succs: Vec<u32> = edges
            .iter()
            .filter(|(a, _)| *a == i as u32)
            .map(|(_, b)| *b)
            .collect();
        block.term = match succs.len() {
            0 => Terminator::Return {
                value: None,
                span: Span::DUMMY,
            },
            1 => Terminator::Goto(BlockId(succs[0])),
            2 => Terminator::Branch {
                cond: Value::bool(true),
                then_bb: BlockId(succs[0]),
                else_bb: BlockId(succs[1]),
                span: Span::DUMMY,
            },
            k => panic!("block {i} has {k} successors; max 2"),
        };
    }
    FuncIr {
        name: "g".into(),
        params: vec![],
        ret: Type::Void,
        reg_types: vec![],
        reg_names: vec![],
        blocks,
        entry: BlockId(0),
        region_count: 0,
        span: Span::DUMMY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachability() {
        // 0 → 1 → 2, 3 unreachable
        let f = func_from_edges(4, &[(0, 1), (1, 2)]);
        let r = reachable(&f);
        assert_eq!(r, vec![true, true, true, false]);
    }

    #[test]
    fn rpo_starts_at_entry_and_respects_order() {
        // Diamond: 0 → {1,2} → 3
        let f = func_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let rpo = reverse_post_order(&f);
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(*rpo.last().unwrap(), BlockId(3));
        assert_eq!(rpo.len(), 4);
        // 3 must come after both 1 and 2.
        let pos = |b: u32| rpo.iter().position(|x| x.0 == b).unwrap();
        assert!(pos(3) > pos(1) && pos(3) > pos(2));
    }

    #[test]
    fn rpo_skips_unreachable() {
        let f = func_from_edges(3, &[(0, 1)]);
        let rpo = reverse_post_order(&f);
        assert_eq!(rpo.len(), 2);
    }

    #[test]
    fn rpo_handles_loops() {
        // 0 → 1 → 2 → 1, 2 → 3
        let f = func_from_edges(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let rpo = reverse_post_order(&f);
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], BlockId(0));
    }

    #[test]
    fn reverse_cfg_virtual_exit() {
        // Two exits: 0 → {1,2}; both return.
        let f = func_from_edges(3, &[(0, 1), (0, 2)]);
        let preds = f.predecessors();
        let r = ReverseCfg::build(&f, &preds);
        assert_eq!(r.virtual_exit, 3);
        // Virtual exit's reverse-successors are the returns.
        assert_eq!(r.succs(r.virtual_exit), [BlockId(1), BlockId(2)]);
    }

    #[test]
    fn reverse_cfg_infinite_loop_connected() {
        // 0 → 1 → 2 → 1 (no exit from the loop)
        let f = func_from_edges(3, &[(0, 1), (1, 2), (2, 1)]);
        let preds = f.predecessors();
        let r = ReverseCfg::build(&f, &preds);
        // Some loop node must be wired to the virtual exit so the whole
        // graph participates in post-dominance.
        assert!(
            !r.succs(r.virtual_exit).is_empty(),
            "virtual exit must have at least one incoming node"
        );
    }
}
