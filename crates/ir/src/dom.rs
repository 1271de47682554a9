//! Dominators, post-dominators, frontiers and the *iterated
//! post-dominance frontier* — the engine behind PARCOACH's Algorithm 1.
//!
//! The dominator trees use the Cooper–Harvey–Kennedy iterative algorithm
//! ("A Simple, Fast Dominance Algorithm"), which is near-linear on real
//! CFGs and trivially correct. Post-dominance runs the same algorithm on
//! the reverse CFG with a virtual exit (see [`crate::graph::ReverseCfg`]).
//!
//! For a set `S` of blocks calling some collective `c`, `PDF+(S)`
//! (iterated post-dominance frontier) is exactly the set of conditional
//! nodes from which some path executes a different number of `c`s than
//! another — the nodes PARCOACH reports and instruments.

use crate::func::FuncIr;
use crate::graph::{reachable, reverse_post_order, Preds, ReverseCfg};
use crate::types::BlockId;

/// Dominator tree over the forward CFG.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator per block (`None` for entry / unreachable).
    idom: Vec<Option<BlockId>>,
    /// RPO position per block (used internally, exposed for tests).
    rpo_pos: Vec<usize>,
}

impl DomTree {
    /// Compute the dominator tree of `f`, whose predecessor table is
    /// `preds` ([`FuncIr::predecessors`]).
    pub fn compute(f: &FuncIr, preds: &Preds) -> DomTree {
        let n = f.block_count();
        let rpo = reverse_post_order(f);
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = i;
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[f.entry.index()] = Some(f.entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                // First processed predecessor.
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_pos, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        // Entry's idom is conventionally itself during computation; store
        // None for the public API.
        idom[f.entry.index()] = None;
        DomTree { idom, rpo_pos }
    }

    /// Immediate dominator of `b` (`None` for the entry block and
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom.get(b.index()).copied().flatten()
    }

    /// Does `a` dominate `b`? (reflexive)
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(d) => cur = d,
                None => return false,
            }
        }
    }

    /// RPO position of a block (usize::MAX when unreachable).
    pub fn rpo_position(&self, b: BlockId) -> usize {
        self.rpo_pos[b.index()]
    }

    /// Dominance frontier of every block.
    ///
    /// `DF(b)` = blocks `j` with a predecessor dominated by `b` (or equal
    /// to `b`) where `b` itself does not strictly dominate `j`.
    pub fn dominance_frontier(&self, f: &FuncIr, preds: &Preds) -> Vec<Vec<BlockId>> {
        let n = f.block_count();
        let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for b in f.block_ids() {
            if preds[b.index()].len() >= 2 {
                for &p in &preds[b.index()] {
                    if self.idom(p).is_none() && p != f.entry {
                        continue; // unreachable predecessor
                    }
                    let mut runner = p;
                    let stop = match self.idom(b) {
                        Some(d) => d,
                        None => continue,
                    };
                    while runner != stop {
                        if !df[runner.index()].contains(&b) {
                            df[runner.index()].push(b);
                        }
                        match self.idom(runner) {
                            Some(d) => runner = d,
                            None => break,
                        }
                    }
                }
            }
        }
        df
    }
}

/// CHK intersect: walk the two candidates up the (partial) idom tree
/// until they meet, comparing RPO positions.
fn intersect(
    idom: &[Option<BlockId>],
    rpo_pos: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_pos[a.index()] > rpo_pos[b.index()] {
            a = idom[a.index()].expect("processed predecessor has idom");
        }
        while rpo_pos[b.index()] > rpo_pos[a.index()] {
            b = idom[b.index()].expect("processed predecessor has idom");
        }
    }
    a
}

/// Post-dominator tree (dominance on the reverse CFG with virtual exit).
#[derive(Debug, Clone)]
pub struct PostDomTree {
    /// Immediate post-dominator per block, where the index space includes
    /// the virtual exit (`n`). `None` for the virtual exit itself and for
    /// unreachable blocks.
    ipdom: Vec<Option<usize>>,
    virtual_exit: usize,
}

impl PostDomTree {
    /// Compute the post-dominator tree of `f`, whose predecessor table
    /// is `preds` ([`FuncIr::predecessors`]).
    pub fn compute(f: &FuncIr, preds: &Preds) -> PostDomTree {
        let rcfg = ReverseCfg::build(f, preds);
        let n = rcfg.virtual_exit + 1;
        // RPO on the reverse graph starting at the virtual exit.
        let mut state = vec![0u8; n];
        let mut post: Vec<usize> = Vec::with_capacity(n);
        let mut stack: Vec<(usize, usize)> = Vec::new();
        state[rcfg.virtual_exit] = 1;
        stack.push((rcfg.virtual_exit, 0));
        while let Some(&mut (v, ref mut cursor)) = stack.last_mut() {
            if let Some(s) = rcfg.succs(v).get(*cursor) {
                let s = s.index();
                *cursor += 1;
                if state[s] == 0 {
                    state[s] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[v] = 2;
                post.push(v);
                stack.pop();
            }
        }
        post.reverse();
        let rpo = post;
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b] = i;
        }
        let mut ipdom: Vec<Option<usize>> = vec![None; n];
        ipdom[rcfg.virtual_exit] = Some(rcfg.virtual_exit);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                // `b`'s predecessors in the reverse graph: its successors,
                // and the virtual exit where it is attached to it.
                let block = BlockId(b as u32);
                let mut new_idom: Option<usize> = None;
                let to_exit = rcfg.exits(block).then_some(rcfg.virtual_exit);
                for p in f.successors(block).iter().map(|s| s.index()).chain(to_exit) {
                    if ipdom[p].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect_usize(&ipdom, &rpo_pos, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if ipdom[b] != Some(ni) {
                        ipdom[b] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        ipdom[rcfg.virtual_exit] = None;
        PostDomTree {
            ipdom,
            virtual_exit: rcfg.virtual_exit,
        }
    }

    /// Immediate post-dominator of `b`; `None` when `b`'s post-dominator
    /// is the virtual exit (i.e. nothing in the function post-dominates
    /// it) or `b` is unreachable.
    pub fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        match self.ipdom.get(b.index()).copied().flatten() {
            Some(x) if x != self.virtual_exit => Some(BlockId(x as u32)),
            _ => None,
        }
    }

    /// Does `a` post-dominate `b`? (reflexive)
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b.index();
        loop {
            if cur == a.index() {
                return true;
            }
            match self.ipdom.get(cur).copied().flatten() {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }

    /// Post-dominance frontier of every block.
    ///
    /// `PDF(b)` contains the *branch* blocks `j` (≥2 successors) such
    /// that `b` post-dominates a successor of `j` but not `j` itself.
    /// These are precisely the conditionals that decide whether control
    /// flows through `b`.
    pub fn frontier(&self, f: &FuncIr) -> Vec<Vec<BlockId>> {
        let n = f.block_count();
        let mut pdf: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        let reach = reachable(f);
        // In the reverse graph, join nodes are original branch nodes.
        for (id, b) in f.iter_blocks() {
            if !reach[id.index()] {
                continue;
            }
            let succs = b.term.successors();
            if succs.len() < 2 {
                continue;
            }
            let stop = self.ipdom.get(id.index()).copied().flatten();
            for s in succs {
                // Walk up the post-dominator tree from each successor to
                // (but excluding) ipdom(branch); everything on the way has
                // the branch in its PDF.
                let mut runner = s.index();
                loop {
                    if Some(runner) == stop || runner == self.virtual_exit {
                        break;
                    }
                    if runner < n && !pdf[runner].contains(&id) {
                        pdf[runner].push(id);
                    }
                    match self.ipdom.get(runner).copied().flatten() {
                        Some(d) if d != runner => runner = d,
                        _ => break,
                    }
                }
            }
        }
        pdf
    }

    /// Iterated post-dominance frontier of a set of blocks: the fixpoint
    /// `PDF+(S) = PDF(S ∪ PDF+(S))`. This is the divergence-point set of
    /// PARCOACH's Algorithm 1.
    ///
    /// Recomputes the per-block frontiers on every call; when many sets
    /// are queried against one function, compute [`PostDomTree::frontier`]
    /// once and use an [`IpdfEngine`] instead.
    pub fn iterated_frontier(&self, f: &FuncIr, set: &[BlockId]) -> Vec<BlockId> {
        iterated_frontier_from(&self.frontier(f), set)
    }
}

/// The `PDF+` worklist fixpoint over precomputed per-block frontiers.
/// The result is sorted ascending.
pub fn iterated_frontier_from(pdf: &[Vec<BlockId>], set: &[BlockId]) -> Vec<BlockId> {
    let n = pdf.len();
    let mut in_result = vec![false; n];
    let mut queued = vec![false; n];
    let mut work: Vec<BlockId> = Vec::new();
    for &b in set {
        if !queued[b.index()] {
            queued[b.index()] = true;
            work.push(b);
        }
    }
    while let Some(b) = work.pop() {
        for &d in &pdf[b.index()] {
            if !in_result[d.index()] {
                in_result[d.index()] = true;
                if !queued[d.index()] {
                    queued[d.index()] = true;
                    work.push(d);
                }
            }
        }
    }
    let mut out: Vec<BlockId> = (0..n as u32)
        .map(BlockId)
        .filter(|b| in_result[b.index()])
        .collect();
    out.sort_unstable();
    out
}

/// Memoizing iterated-PDF engine: per-block post-dominance frontiers are
/// computed once (by the caller, via [`PostDomTree::frontier`]) and the
/// `PDF+` of each queried *block set* is cached, keyed by the normalized
/// (sorted, deduplicated) set. Two collective events issued from the
/// same blocks share one fixpoint computation.
pub struct IpdfEngine<'a> {
    pdf: &'a [Vec<BlockId>],
    cache: std::collections::HashMap<Vec<BlockId>, Vec<BlockId>>,
    hits: u64,
    misses: u64,
}

impl<'a> IpdfEngine<'a> {
    /// Build an engine over precomputed per-block frontiers.
    pub fn new(pdf: &'a [Vec<BlockId>]) -> IpdfEngine<'a> {
        IpdfEngine {
            pdf,
            cache: std::collections::HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// `PDF+(set)`, served from the cache when the (normalized) set was
    /// queried before. Identical to [`PostDomTree::iterated_frontier`].
    pub fn iterated(&mut self, set: &[BlockId]) -> Vec<BlockId> {
        let mut key: Vec<BlockId> = set.to_vec();
        key.sort_unstable();
        key.dedup();
        if let Some(cached) = self.cache.get(&key) {
            self.hits += 1;
            return cached.clone();
        }
        let out = iterated_frontier_from(self.pdf, &key);
        self.misses += 1;
        self.cache.insert(key, out.clone());
        out
    }

    /// `(cache hits, cache misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

fn intersect_usize(idom: &[Option<usize>], rpo_pos: &[usize], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while rpo_pos[a] > rpo_pos[b] {
            a = idom[a].expect("processed predecessor has idom");
        }
        while rpo_pos[b] > rpo_pos[a] {
            b = idom[b].expect("processed predecessor has idom");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::func_from_edges;

    /// Naive O(n²) dominator computation for cross-checking.
    fn naive_dominators(f: &FuncIr) -> Vec<Vec<bool>> {
        let n = f.block_count();
        let reach = reachable(f);
        let mut dom = vec![vec![true; n]; n];
        for (i, d) in dom.iter_mut().enumerate() {
            if !reach[i] {
                d.fill(false);
            }
        }
        dom[f.entry.index()].fill(false);
        dom[f.entry.index()][f.entry.index()] = true;
        let preds = f.predecessors();
        let mut changed = true;
        while changed {
            changed = false;
            for b in f.block_ids() {
                if b == f.entry || !reach[b.index()] {
                    continue;
                }
                let mut new: Vec<bool> = vec![true; n];
                let mut any_pred = false;
                for &p in &preds[b.index()] {
                    if !reach[p.index()] {
                        continue;
                    }
                    any_pred = true;
                    for i in 0..n {
                        new[i] = new[i] && dom[p.index()][i];
                    }
                }
                if !any_pred {
                    new.fill(false);
                }
                new[b.index()] = true;
                if new != dom[b.index()] {
                    dom[b.index()] = new;
                    changed = true;
                }
            }
        }
        dom
    }

    #[test]
    fn diamond_dominators() {
        // 0 → {1,2} → 3
        let f = func_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let dt = DomTree::compute(&f, &f.predecessors());
        assert_eq!(dt.idom(BlockId(0)), None);
        assert_eq!(dt.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dt.idom(BlockId(2)), Some(BlockId(0)));
        assert_eq!(dt.idom(BlockId(3)), Some(BlockId(0)));
        assert!(dt.dominates(BlockId(0), BlockId(3)));
        assert!(!dt.dominates(BlockId(1), BlockId(3)));
        assert!(dt.dominates(BlockId(3), BlockId(3)));
    }

    #[test]
    fn loop_dominators() {
        // 0 → 1 → 2 → 1, 2 → 3
        let f = func_from_edges(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let dt = DomTree::compute(&f, &f.predecessors());
        assert_eq!(dt.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dt.idom(BlockId(2)), Some(BlockId(1)));
        assert_eq!(dt.idom(BlockId(3)), Some(BlockId(2)));
    }

    #[test]
    fn matches_naive_on_irreducible_graph() {
        // Irreducible: 0 → {1,2}, 1 → 2, 2 → 1, 1 → 3, 2 → 3 ... build
        // with ≤2 successors per node:
        // 0→1, 0→2, 1→2... need 1→{2,3}, 2→{1,3}.
        let f = func_from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]);
        let dt = DomTree::compute(&f, &f.predecessors());
        let naive = naive_dominators(&f);
        for a in f.block_ids() {
            for b in f.block_ids() {
                assert_eq!(
                    dt.dominates(a, b),
                    naive[b.index()][a.index()],
                    "dominates({a},{b}) mismatch"
                );
            }
        }
    }

    #[test]
    fn postdom_diamond() {
        let f = func_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let pdt = PostDomTree::compute(&f, &f.predecessors());
        assert_eq!(pdt.ipdom(BlockId(0)), Some(BlockId(3)));
        assert_eq!(pdt.ipdom(BlockId(1)), Some(BlockId(3)));
        assert_eq!(pdt.ipdom(BlockId(2)), Some(BlockId(3)));
        assert_eq!(pdt.ipdom(BlockId(3)), None); // exit
        assert!(pdt.post_dominates(BlockId(3), BlockId(0)));
        assert!(!pdt.post_dominates(BlockId(1), BlockId(0)));
    }

    #[test]
    fn postdom_multiple_exits() {
        // 0 → {1,2}; both return: neither post-dominates 0.
        let f = func_from_edges(3, &[(0, 1), (0, 2)]);
        let pdt = PostDomTree::compute(&f, &f.predecessors());
        assert_eq!(pdt.ipdom(BlockId(0)), None);
        assert!(!pdt.post_dominates(BlockId(1), BlockId(0)));
    }

    #[test]
    fn pdf_of_branch_arm() {
        // 0 → {1,2} → 3; PDF(1) = {0}, PDF(2) = {0}, PDF(3) = {}.
        let f = func_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let pdt = PostDomTree::compute(&f, &f.predecessors());
        let pdf = pdt.frontier(&f);
        assert_eq!(pdf[1], vec![BlockId(0)]);
        assert_eq!(pdf[2], vec![BlockId(0)]);
        assert!(pdf[3].is_empty());
        assert!(pdf[0].is_empty());
    }

    #[test]
    fn iterated_pdf_nested_conditionals() {
        // 0 → {1, 5}; 1 → {2, 3}; 2 → 4; 3 → 4; 4 → 5
        // A block set {2} should iterate: PDF(2)={1}, PDF(1)={0} ⇒ {0,1}.
        let f = func_from_edges(6, &[(0, 1), (0, 5), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]);
        let pdt = PostDomTree::compute(&f, &f.predecessors());
        let ipdf = pdt.iterated_frontier(&f, &[BlockId(2)]);
        assert_eq!(ipdf, vec![BlockId(0), BlockId(1)]);
    }

    #[test]
    fn pdf_empty_for_post_dominating_node() {
        // A node on every path (e.g. the join) has empty PDF+: no
        // conditional controls whether it executes.
        let f = func_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let pdt = PostDomTree::compute(&f, &f.predecessors());
        let ipdf = pdt.iterated_frontier(&f, &[BlockId(3)]);
        assert!(ipdf.is_empty());
    }

    #[test]
    fn pdf_loop_condition() {
        // 0 → 1(head) → {2(body), 3(exit)}; 2 → 1.
        // The loop head controls how many times the body runs: PDF+(2)
        // must contain 1.
        let f = func_from_edges(4, &[(0, 1), (1, 2), (1, 3), (2, 1)]);
        let pdt = PostDomTree::compute(&f, &f.predecessors());
        let ipdf = pdt.iterated_frontier(&f, &[BlockId(2)]);
        assert!(
            ipdf.contains(&BlockId(1)),
            "loop head must be in PDF+ of body, got {ipdf:?}"
        );
    }

    #[test]
    fn dominance_frontier_diamond() {
        let f = func_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let dt = DomTree::compute(&f, &f.predecessors());
        let df = dt.dominance_frontier(&f, &f.predecessors());
        assert_eq!(df[1], vec![BlockId(3)]);
        assert_eq!(df[2], vec![BlockId(3)]);
        assert!(df[0].is_empty());
    }

    #[test]
    fn ipdf_engine_matches_uncached_path() {
        // Nested conditionals + a loop: engine results (cached and not)
        // must equal the recompute-per-set path for every seed set.
        let f = func_from_edges(
            7,
            &[
                (0, 1),
                (0, 5),
                (1, 2),
                (1, 3),
                (2, 4),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 5),
            ],
        );
        let pdt = PostDomTree::compute(&f, &f.predecessors());
        let pdf = pdt.frontier(&f);
        let mut engine = IpdfEngine::new(&pdf);
        let sets: Vec<Vec<BlockId>> = vec![
            vec![BlockId(2)],
            vec![BlockId(6)],
            vec![BlockId(2), BlockId(3)],
            vec![BlockId(3), BlockId(2)], // permutation: same normalized key
            vec![BlockId(2), BlockId(2)], // duplicate: same normalized key
        ];
        for set in &sets {
            assert_eq!(
                engine.iterated(set),
                pdt.iterated_frontier(&f, set),
                "engine diverges on {set:?}"
            );
        }
        let (hits, misses) = engine.stats();
        assert_eq!(hits, 2, "permuted/duplicated sets must hit the cache");
        assert_eq!(misses, 3);
    }

    #[test]
    fn postdom_handles_infinite_loop() {
        // 0 → 1 → 2 → 1: terminal cycle with no return.
        let f = func_from_edges(3, &[(0, 1), (1, 2), (2, 1)]);
        let pdt = PostDomTree::compute(&f, &f.predecessors());
        // Must not panic / loop; reachable nodes participate.
        let _ = pdt.frontier(&f);
        let _ = pdt.iterated_frontier(&f, &[BlockId(2)]);
    }
}
