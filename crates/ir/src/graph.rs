//! Small graph utilities over the CFG: the predecessor table,
//! reachability, traversal orders, a reverse-graph view used by the
//! post-dominance machinery, and the scratch space the CFG algorithms
//! share.

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
        // Fill each row from its start, advancing the start as the fill
        // cursor; afterwards `offsets[b]` is where row `b + 1` starts,
        // so one shift restores the table.
        let mut edges = vec![BlockId(0); offsets[n] as usize];
        for (id, b) in f.iter_blocks() {
            for s in b.term.successors() {
                edges[offsets[s.index()] as usize] = id;
                offsets[s.index()] += 1;
            }
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
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

/// Position of an unreachable block in an [`Order`].
pub const UNREACHED: u32 = u32::MAX;

/// The reverse post-order of a function's reachable blocks, and each
/// block's position in it — a view, into a [`CfgOrder`] or into a table
/// of many functions' orders.
///
/// RPO is the canonical iteration order for forward dataflow problems —
/// the parallelism-word propagation in `parcoach-core` converges in one
/// pass over structured CFGs when visited in RPO — and what tells a loop
/// back edge from a forward join.
#[derive(Debug, Clone, Copy)]
pub struct Order<'a> {
    /// The reachable blocks, entry first.
    pub rpo: &'a [BlockId],
    /// Per block, its index in `rpo`; [`UNREACHED`] when it has none.
    pub pos: &'a [u32],
}

impl Order<'_> {
    /// Is `b` reachable from the entry?
    pub fn reaches(&self, b: BlockId) -> bool {
        self.pos[b.index()] != UNREACHED
    }
}

/// One function's [`Order`], owned.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CfgOrder {
    rpo: Vec<BlockId>,
    pos: Vec<u32>,
}

impl CfgOrder {
    /// The order of `f`.
    pub fn of(f: &FuncIr) -> CfgOrder {
        let mut o = CfgOrder::default();
        order_into(f, &mut o.rpo, &mut o.pos, &mut Vec::new());
        o
    }

    /// The order as a view.
    pub fn view(&self) -> Order<'_> {
        Order {
            rpo: &self.rpo,
            pos: &self.pos,
        }
    }
}

/// Append `f`'s reverse post-order to `rpo` and one position per block
/// to `pos` (the view is then the two tails); `stack` is scratch. The
/// classic iterative DFS, with an explicit successor cursor per frame.
pub fn order_into(
    f: &FuncIr,
    rpo: &mut Vec<BlockId>,
    pos: &mut Vec<u32>,
    stack: &mut Vec<(BlockId, u32)>,
) {
    const SEEN: u32 = UNREACHED - 1;
    let (r0, p0) = (rpo.len(), pos.len());
    pos.resize(p0 + f.block_count(), UNREACHED);
    let state = &mut pos[p0..];
    stack.clear();
    state[f.entry.index()] = SEEN;
    stack.push((f.entry, 0));
    // Post-order first, reversed in place below.
    while let Some((b, cursor)) = stack.last_mut() {
        if let Some(&s) = f.successors(*b).get(*cursor as usize) {
            *cursor += 1;
            if state[s.index()] == UNREACHED {
                state[s.index()] = SEEN;
                stack.push((s, 0));
            }
        } else {
            rpo.push(*b);
            stack.pop();
        }
    }
    let order = &mut rpo[r0..];
    order.reverse();
    for (i, b) in order.iter().enumerate() {
        state[b.index()] = i as u32;
    }
}

/// Reverse post-order of the reachable blocks (see [`Order`]).
pub fn reverse_post_order(f: &FuncIr) -> Vec<BlockId> {
    CfgOrder::of(f).rpo
}

/// Vectors the CFG algorithms ([`crate::dom`], [`crate::loops`]) need
/// only while they run. A caller computing them for many functions
/// passes one scratch to all, so the temporaries are allocated once.
#[derive(Debug, Default)]
pub struct CfgScratch {
    /// Per-node marks: DFS states, positions, visit stamps.
    pub(crate) marks: Vec<u32>,
    /// Per-block flags.
    pub(crate) flags: Vec<u8>,
    /// Node lists: orders, attachment lists.
    pub(crate) nodes: Vec<u32>,
    /// Depth-first frames `(node, successor cursor)`.
    pub(crate) frames: Vec<(u32, u32)>,
    /// Worklists.
    pub(crate) work: Vec<BlockId>,
    /// The blocks attached to a virtual exit.
    pub(crate) exits: Vec<BlockId>,
    /// Back edges `(header, tail)`.
    pub(crate) edges: Vec<(BlockId, BlockId)>,
}

/// [`ReverseCfg`] flag: the block has an edge to the virtual exit.
const TO_EXIT: u8 = 1;
/// [`ReverseCfg`] flag: the block reaches the virtual exit.
const REACHES_EXIT: u8 = 2;

/// A reverse view of the CFG with a *virtual exit node*.
///
/// Post-dominance is dominance on the reverse CFG. Real functions may
/// have several `Return` blocks, and blocks on infinite loops may not
/// reach any return at all; the virtual exit is a fresh node that every
/// return block (and, to keep the analysis total, every reachable
/// terminal cycle) points to.
///
/// The view stores only the edges into the virtual exit, in buffers of
/// the caller's [`CfgScratch`]: a block's reverse successors are its
/// row of the function's [`Preds`] table, its reverse predecessors its
/// terminator's successors.
#[derive(Debug)]
pub(crate) struct ReverseCfg<'a> {
    preds: &'a Preds,
    /// Blocks with an edge to the virtual exit, in the order they were
    /// attached: the returns in block order, then one representative of
    /// each terminal cycle.
    exit_preds: &'a [BlockId],
    /// Per block, [`TO_EXIT`] and [`REACHES_EXIT`].
    flags: &'a [u8],
    /// Index of the virtual exit node (== original block count).
    pub(crate) virtual_exit: usize,
}

impl<'a> ReverseCfg<'a> {
    /// Build the reverse view of `f`, whose predecessor table is `preds`
    /// and whose order is `order`, into the buffers `exit_preds` and
    /// `flags`; `work` is scratch.
    pub(crate) fn build(
        f: &FuncIr,
        preds: &'a Preds,
        order: Order<'_>,
        exit_preds: &'a mut Vec<BlockId>,
        flags: &'a mut Vec<u8>,
        work: &mut Vec<BlockId>,
    ) -> ReverseCfg<'a> {
        let n = f.block_count();
        exit_preds.clear();
        flags.clear();
        flags.resize(n, 0);
        // Add the edge `v → virtual exit` and mark everything that
        // reaches `v` as reaching the exit.
        let mut attach = |v: BlockId, flags: &mut [u8]| {
            exit_preds.push(v);
            flags[v.index()] |= TO_EXIT | REACHES_EXIT;
            work.push(v);
            while let Some(b) = work.pop() {
                for &p in &preds[b.index()] {
                    if flags[p.index()] & REACHES_EXIT == 0 {
                        flags[p.index()] |= REACHES_EXIT;
                        work.push(p);
                    }
                }
            }
        };
        // Return (or Unreachable) → edge to the virtual exit.
        for (id, b) in f.iter_blocks() {
            if b.term.successors().is_empty() {
                attach(id, flags);
            }
        }
        // Terminal cycles (infinite loops) never reach the exit; attach
        // the lowest-numbered block of each to the exit so every
        // reachable node participates in post-dominance.
        for v in f.block_ids() {
            if order.reaches(v) && flags[v.index()] & REACHES_EXIT == 0 {
                attach(v, flags);
            }
        }
        ReverseCfg {
            preds,
            exit_preds,
            flags,
            virtual_exit: n,
        }
    }

    /// Successors of node `v` in the reverse graph (original
    /// predecessors; the blocks attached to it for the virtual exit).
    pub(crate) fn succs(&self, v: usize) -> &[BlockId] {
        if v == self.virtual_exit {
            self.exit_preds
        } else {
            &self.preds[v]
        }
    }

    /// Does block `v` have an edge to the virtual exit?
    pub(crate) fn exits(&self, v: BlockId) -> bool {
        self.flags[v.index()] & TO_EXIT != 0
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
            0 => Terminator::Return { value: None },
            1 => Terminator::Goto(BlockId(succs[0])),
            2 => Terminator::Branch {
                cond: Value::bool(true),
                then_bb: BlockId(succs[0]),
                else_bb: BlockId(succs[1]),
            },
            k => panic!("block {i} has {k} successors; max 2"),
        };
    }
    FuncIr {
        name: "g".into(),
        params: vec![],
        ret: Type::Void,
        reg_types: vec![],
        blocks,
        instrs: vec![],
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
    fn order_positions_index_the_rpo() {
        // 0 → 1 → 2 → 1, 2 → 3; block 4 unreachable.
        let f = func_from_edges(5, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let o = CfgOrder::of(&f);
        let v = o.view();
        for (i, b) in v.rpo.iter().enumerate() {
            assert_eq!(v.pos[b.index()], i as u32);
        }
        assert!(!v.reaches(BlockId(4)) && v.reaches(BlockId(3)));
        // Appending a second function leaves the first one's tails alone.
        let (mut rpo, mut pos) = (v.rpo.to_vec(), v.pos.to_vec());
        let g = func_from_edges(2, &[(0, 1)]);
        order_into(&g, &mut rpo, &mut pos, &mut Vec::new());
        assert_eq!(&rpo[v.rpo.len()..], [BlockId(0), BlockId(1)]);
        assert_eq!(&pos[v.pos.len()..], [0, 1]);
        assert_eq!(&rpo[..v.rpo.len()], v.rpo);
    }

    #[test]
    fn predecessor_rows() {
        // Diamond plus a self loop: 0 → {1,2} → 3 → 3.
        let f = func_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 3)]);
        let preds = f.predecessors();
        assert!(preds[0].is_empty());
        assert_eq!(preds[1], [BlockId(0)]);
        assert_eq!(preds[2], [BlockId(0)]);
        assert_eq!(preds[3], [BlockId(1), BlockId(2), BlockId(3)]);
    }

    #[test]
    fn rpo_handles_loops() {
        // 0 → 1 → 2 → 1, 2 → 3
        let f = func_from_edges(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let rpo = reverse_post_order(&f);
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], BlockId(0));
    }

    /// The reverse view of `f` over its own table and order.
    fn reverse_view<'a>(
        f: &FuncIr,
        preds: &'a Preds,
        exits: &'a mut Vec<BlockId>,
        flags: &'a mut Vec<u8>,
    ) -> ReverseCfg<'a> {
        ReverseCfg::build(
            f,
            preds,
            CfgOrder::of(f).view(),
            exits,
            flags,
            &mut Vec::new(),
        )
    }

    #[test]
    fn reverse_cfg_virtual_exit() {
        // Two exits: 0 → {1,2}; both return.
        let f = func_from_edges(3, &[(0, 1), (0, 2)]);
        let preds = f.predecessors();
        let (mut exits, mut flags) = (Vec::new(), Vec::new());
        let r = reverse_view(&f, &preds, &mut exits, &mut flags);
        assert_eq!(r.virtual_exit, 3);
        // Virtual exit's reverse-successors are the returns.
        assert_eq!(r.succs(r.virtual_exit), [BlockId(1), BlockId(2)]);
        assert!(r.exits(BlockId(1)) && !r.exits(BlockId(0)));
    }

    #[test]
    fn reverse_cfg_infinite_loop_connected() {
        // 0 → 1 → 2 → 1 (no exit from the loop)
        let f = func_from_edges(3, &[(0, 1), (1, 2), (2, 1)]);
        let preds = f.predecessors();
        let (mut exits, mut flags) = (Vec::new(), Vec::new());
        let r = reverse_view(&f, &preds, &mut exits, &mut flags);
        // Some loop node must be wired to the virtual exit so the whole
        // graph participates in post-dominance.
        assert!(
            !r.succs(r.virtual_exit).is_empty(),
            "virtual exit must have at least one incoming node"
        );
    }
}
