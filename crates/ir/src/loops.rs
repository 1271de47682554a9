//! Natural-loop detection.
//!
//! Used by the concurrency analysis: a `single`/`section` region whose
//! begin block lies on a CFG cycle with no barrier on the cycle can run
//! concurrently *with itself* across iterations (the paper's set `S_cc`
//! covers such regions via the dynamic concurrency counter).

use crate::dom::DomTree;
use crate::func::FuncIr;
use crate::graph::Preds;
use crate::types::BlockId;

/// One natural loop: the header plus every block of its body.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// The loop header (target of the back edge).
    pub header: BlockId,
    /// All blocks in the loop, including the header. Sorted.
    pub blocks: Vec<BlockId>,
}

impl NaturalLoop {
    /// Is `b` inside this loop?
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.binary_search(&b).is_ok()
    }
}

/// Loop forest of a function (loops discovered from back edges; loops
/// sharing a header are merged, as usual).
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// All loops found.
    pub loops: Vec<NaturalLoop>,
}

impl LoopInfo {
    /// Find back edges (`tail → header` where `header` dominates `tail`)
    /// and collect natural loops. `preds` is `f`'s predecessor table.
    pub fn compute(f: &FuncIr, dom: &DomTree, preds: &Preds) -> LoopInfo {
        let mut back_edges: Vec<(BlockId, BlockId)> = Vec::new(); // (header, tail)
        for (id, b) in f.iter_blocks() {
            for s in b.term.successors() {
                if dom.dominates(s, id) {
                    back_edges.push((s, id));
                }
            }
        }
        back_edges.sort_unstable();
        let mut loops = Vec::new();
        let mut in_loop = vec![false; f.block_count()];
        let mut stack: Vec<BlockId> = Vec::new();
        for edges in back_edges.chunk_by(|a, b| a.0 == b.0) {
            // Standard natural-loop body collection: walk predecessors
            // backwards from each tail until the header.
            let header = edges[0].0;
            let mut blocks = vec![header];
            in_loop[header.index()] = true;
            stack.extend(edges.iter().map(|&(_, tail)| tail));
            while let Some(b) = stack.pop() {
                if !in_loop[b.index()] {
                    in_loop[b.index()] = true;
                    blocks.push(b);
                    stack.extend_from_slice(&preds[b.index()]);
                }
            }
            for b in &blocks {
                in_loop[b.index()] = false;
            }
            blocks.sort_unstable();
            loops.push(NaturalLoop { header, blocks });
        }
        LoopInfo { loops }
    }

    /// All loops containing block `b`, innermost-sized first (smallest
    /// body first).
    pub fn loops_containing(&self, b: BlockId) -> Vec<&NaturalLoop> {
        let mut ls: Vec<&NaturalLoop> = self.loops.iter().filter(|l| l.contains(b)).collect();
        ls.sort_by_key(|l| l.blocks.len());
        ls
    }

    /// True if `b` lies on any cycle.
    pub fn in_any_loop(&self, b: BlockId) -> bool {
        self.loops.iter().any(|l| l.contains(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::func_from_edges;

    #[test]
    fn simple_while_loop() {
        // 0 → 1(head) → {2(body), 3}; 2 → 1
        let f = func_from_edges(4, &[(0, 1), (1, 2), (1, 3), (2, 1)]);
        let dom = DomTree::compute(&f, &f.predecessors());
        let li = LoopInfo::compute(&f, &dom, &f.predecessors());
        assert_eq!(li.loops.len(), 1);
        let l = &li.loops[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.blocks, vec![BlockId(1), BlockId(2)]);
        assert!(li.in_any_loop(BlockId(2)));
        assert!(!li.in_any_loop(BlockId(3)));
    }

    #[test]
    fn nested_loops() {
        // outer: 1..4, inner: 2..3
        // 0→1, 1→2, 2→3, 3→2 (inner back), 3→4, 4→1 (outer back), 4→5...
        // max 2 succ per node: 3 → {2,4}, 4 → {1,5}
        let f = func_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 2), (3, 4), (4, 1), (4, 5)]);
        let dom = DomTree::compute(&f, &f.predecessors());
        let li = LoopInfo::compute(&f, &dom, &f.predecessors());
        assert_eq!(li.loops.len(), 2);
        let inner = li
            .loops
            .iter()
            .find(|l| l.header == BlockId(2))
            .expect("inner loop");
        let outer = li
            .loops
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
        let dom = DomTree::compute(&f, &f.predecessors());
        let li = LoopInfo::compute(&f, &dom, &f.predecessors());
        assert!(li.loops.is_empty());
    }

    #[test]
    fn self_loop() {
        // 1 → 1
        let f = func_from_edges(3, &[(0, 1), (1, 1), (1, 2)]);
        let dom = DomTree::compute(&f, &f.predecessors());
        let li = LoopInfo::compute(&f, &dom, &f.predecessors());
        assert_eq!(li.loops.len(), 1);
        assert_eq!(li.loops[0].blocks, vec![BlockId(1)]);
    }
}
