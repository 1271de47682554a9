//! Natural-loop detection.
//!
//! Used by the concurrency analysis: a `single`/`section` region whose
//! begin block lies on a CFG cycle with no barrier on the cycle can run
//! concurrently *with itself* across iterations (the paper's set `S_cc`
//! covers such regions via the dynamic concurrency counter).

use crate::dom::DomTree;
use crate::func::FuncIr;
use crate::graph::{CfgScratch, Preds};
use crate::types::BlockId;

/// One natural loop: the header plus every block of its body, a view
/// into its [`LoopInfo`].
#[derive(Debug, Clone, Copy)]
pub struct NaturalLoop<'a> {
    /// The loop header (target of the back edge).
    pub header: BlockId,
    /// All blocks in the loop, including the header. Sorted.
    pub blocks: &'a [BlockId],
}

impl NaturalLoop<'_> {
    /// Is `b` inside this loop?
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.binary_search(&b).is_ok()
    }
}

/// Loop forest of a function (loops discovered from back edges; loops
/// sharing a header are merged, as usual), in one table: loop `i` is
/// `headers[i]` with the blocks `blocks[ends[i - 1]..ends[i]]`. A
/// function without loops allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct LoopInfo {
    /// Header per loop, ascending.
    headers: Vec<BlockId>,
    /// Where each loop's run of `blocks` ends.
    ends: Vec<u32>,
    /// Every loop's blocks, sorted within a loop.
    blocks: Vec<BlockId>,
}

impl LoopInfo {
    /// Find back edges (`tail → header` where `header` dominates `tail`)
    /// and collect natural loops. `preds` is `f`'s predecessor table.
    pub fn compute(f: &FuncIr, dom: &DomTree, preds: &Preds, scratch: &mut CfgScratch) -> LoopInfo {
        let back_edges = &mut scratch.edges; // (header, tail)
        back_edges.clear();
        for (id, b) in f.iter_blocks() {
            for s in b.term.successors() {
                if dom.dominates(s, id) {
                    back_edges.push((s, id));
                }
            }
        }
        let mut info = LoopInfo::default();
        if back_edges.is_empty() {
            return info;
        }
        back_edges.sort_unstable();
        let in_loop = &mut scratch.flags;
        in_loop.clear();
        in_loop.resize(f.block_count(), 0);
        let stack = &mut scratch.work;
        for edges in back_edges.chunk_by(|a, b| a.0 == b.0) {
            // Standard natural-loop body collection: walk predecessors
            // backwards from each tail until the header.
            let header = edges[0].0;
            let start = info.blocks.len();
            info.blocks.push(header);
            in_loop[header.index()] = 1;
            stack.clear();
            stack.extend(edges.iter().map(|&(_, tail)| tail));
            while let Some(b) = stack.pop() {
                if in_loop[b.index()] == 0 {
                    in_loop[b.index()] = 1;
                    info.blocks.push(b);
                    stack.extend_from_slice(&preds[b.index()]);
                }
            }
            let body = &mut info.blocks[start..];
            for b in body.iter() {
                in_loop[b.index()] = 0;
            }
            body.sort_unstable();
            info.headers.push(header);
            info.ends.push(info.blocks.len() as u32);
        }
        info
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// True when the function has no loop.
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// Loop `i`, by ascending header.
    pub fn get(&self, i: usize) -> NaturalLoop<'_> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        NaturalLoop {
            header: self.headers[i],
            blocks: &self.blocks[start..self.ends[i] as usize],
        }
    }

    /// Every loop, by ascending header.
    pub fn iter(&self) -> impl Iterator<Item = NaturalLoop<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// All loops containing block `b`, innermost-sized first (smallest
    /// body first).
    pub fn loops_containing(&self, b: BlockId) -> Vec<NaturalLoop<'_>> {
        let mut ls: Vec<NaturalLoop<'_>> = self.iter().filter(|l| l.contains(b)).collect();
        ls.sort_by_key(|l| l.blocks.len());
        ls
    }

    /// True if `b` lies on any cycle.
    pub fn in_any_loop(&self, b: BlockId) -> bool {
        self.iter().any(|l| l.contains(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{func_from_edges, CfgOrder};

    fn loops(f: &FuncIr) -> LoopInfo {
        let preds = f.predecessors();
        let dom = DomTree::compute(f, &preds, CfgOrder::of(f).view());
        LoopInfo::compute(f, &dom, &preds, &mut CfgScratch::default())
    }

    #[test]
    fn simple_while_loop() {
        // 0 → 1(head) → {2(body), 3}; 2 → 1
        let f = func_from_edges(4, &[(0, 1), (1, 2), (1, 3), (2, 1)]);
        let li = loops(&f);
        assert_eq!(li.len(), 1);
        let l = li.get(0);
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.blocks, [BlockId(1), BlockId(2)]);
        assert!(li.in_any_loop(BlockId(2)));
        assert!(!li.in_any_loop(BlockId(3)));
    }

    #[test]
    fn nested_loops() {
        // outer: 1..4, inner: 2..3
        // 0→1, 1→2, 2→3, 3→2 (inner back), 3→4, 4→1 (outer back), 4→5...
        // max 2 succ per node: 3 → {2,4}, 4 → {1,5}
        let f = func_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 2), (3, 4), (4, 1), (4, 5)]);
        let li = loops(&f);
        assert_eq!(li.len(), 2);
        let inner = li
            .iter()
            .find(|l| l.header == BlockId(2))
            .expect("inner loop");
        let outer = li
            .iter()
            .find(|l| l.header == BlockId(1))
            .expect("outer loop");
        assert!(inner.blocks.len() < outer.blocks.len());
        assert!(outer.contains(BlockId(3)));
        let containing = li.loops_containing(BlockId(3));
        assert_eq!(containing.len(), 2);
        assert_eq!(containing[0].header, BlockId(2)); // innermost first
    }

    #[test]
    fn no_loops_in_dag() {
        let f = func_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let li = loops(&f);
        assert!(li.is_empty());
    }

    #[test]
    fn self_loop() {
        // 1 → 1
        let f = func_from_edges(3, &[(0, 1), (1, 1), (1, 2)]);
        let li = loops(&f);
        assert_eq!(li.len(), 1);
        assert_eq!(li.get(0).blocks, [BlockId(1)]);
    }
}
