//! Dominators, post-dominators, frontiers and the *iterated
//! post-dominance frontier* — the engine behind PARCOACH's Algorithm 1.
//!
//! The dominator trees use the Cooper–Harvey–Kennedy iterative algorithm
//! ("A Simple, Fast Dominance Algorithm"), which is near-linear on real
//! CFGs and trivially correct. Post-dominance runs the same algorithm on
//! the reverse CFG with a virtual exit node that every return block (and
//! one block of every terminal cycle) points to.
//!
//! For a set `S` of blocks calling some collective `c`, `PDF+(S)`
//! (iterated post-dominance frontier) is exactly the set of conditional
//! nodes from which some path executes a different number of `c`s than
//! another — the nodes PARCOACH reports and instruments.
//!
//! Everything here is computed once per function. The trees take the
//! function's [`Order`] and predecessor table instead of deriving them,
//! the frontiers are one flat table ([`Frontiers`]), and the vectors an
//! algorithm needs only while it runs come from the caller's
//! [`CfgScratch`].

use crate::func::FuncIr;
use crate::graph::{CfgOrder, CfgScratch, Order, Preds, ReverseCfg, UNREACHED};
use crate::types::BlockId;

/// "No node" in the tree tables.
const NONE: u32 = u32::MAX;

/// Dominator tree over the forward CFG.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator per block ([`NONE`] for the entry and
    /// unreachable blocks).
    idom: Vec<u32>,
}

impl DomTree {
    /// Compute the dominator tree of `f`, whose predecessor table is
    /// `preds` ([`FuncIr::predecessors`]) and whose order is `order`.
    pub fn compute(f: &FuncIr, preds: &Preds, order: Order<'_>) -> DomTree {
        let entry = f.entry.0;
        let mut idom = vec![NONE; f.block_count()];
        idom[entry as usize] = entry;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in order.rpo.iter().skip(1) {
                // First processed predecessor.
                let mut new_idom = NONE;
                for &p in &preds[b.index()] {
                    if idom[p.index()] == NONE {
                        continue;
                    }
                    new_idom = match new_idom {
                        NONE => p.0,
                        cur => intersect(&idom, order.pos, p.0, cur),
                    };
                }
                if new_idom != NONE && idom[b.index()] != new_idom {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }
        // Entry's idom is conventionally itself during computation; store
        // none for the public API.
        idom[entry as usize] = NONE;
        DomTree { idom }
    }

    /// Immediate dominator of `b` (`None` for the entry block and
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom
            .get(b.index())
            .filter(|&&d| d != NONE)
            .map(|&d| BlockId(d))
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
}

/// CHK intersect: walk the two candidates up the (partial) idom tree
/// until they meet, comparing RPO positions.
fn intersect(idom: &[u32], pos: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while pos[a as usize] > pos[b as usize] {
            a = idom[a as usize];
            debug_assert_ne!(a, NONE, "processed predecessor has idom");
        }
        while pos[b as usize] > pos[a as usize] {
            b = idom[b as usize];
            debug_assert_ne!(b, NONE, "processed predecessor has idom");
        }
    }
    a
}

/// Per-block frontiers in one compressed-sparse-row table:
/// `frontiers[b.index()]` is block `b`'s frontier, in discovery order.
/// Empty (no rows at all) where a function's frontiers were not asked
/// for.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Frontiers {
    /// `offsets[b]..offsets[b + 1]` delimits block `b`'s row.
    offsets: Vec<u32>,
    /// Every row, back to back.
    items: Vec<BlockId>,
}

impl Frontiers {
    /// The table of `n` rows holding the `(row, block)` pairs `pairs`
    /// hands its callback, in order. `pairs` runs twice — once to count
    /// the rows, once to fill them — and must hand the same pairs both
    /// times.
    fn collect(n: usize, mut pairs: impl FnMut(&mut dyn FnMut(usize, BlockId))) -> Frontiers {
        let mut offsets = vec![0u32; n + 1];
        pairs(&mut |row, _| offsets[row + 1] += 1);
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut items = vec![BlockId(0); offsets[n] as usize];
        pairs(&mut |row, b| {
            items[offsets[row] as usize] = b;
            offsets[row] += 1;
        });
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        Frontiers { offsets, items }
    }

    /// Number of rows (blocks).
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::ops::Index<usize> for Frontiers {
    type Output = [BlockId];

    fn index(&self, block: usize) -> &[BlockId] {
        &self.items[self.offsets[block] as usize..self.offsets[block + 1] as usize]
    }
}

/// Post-dominator tree (dominance on the reverse CFG with virtual exit).
#[derive(Debug, Clone)]
pub struct PostDomTree {
    /// Immediate post-dominator per block, where the index space includes
    /// the virtual exit (`n`). [`NONE`] for the virtual exit itself and
    /// for blocks that do not reach it.
    ipdom: Vec<u32>,
    virtual_exit: usize,
}

impl PostDomTree {
    /// Compute the post-dominator tree of `f`, whose predecessor table
    /// is `preds` ([`FuncIr::predecessors`]) and whose order is `order`.
    pub fn compute(
        f: &FuncIr,
        preds: &Preds,
        order: Order<'_>,
        scratch: &mut CfgScratch,
    ) -> PostDomTree {
        let CfgScratch {
            marks,
            flags,
            nodes,
            frames,
            work,
            exits,
            ..
        } = scratch;
        let rcfg = ReverseCfg::build(f, preds, order, exits, flags, work);
        let exit = rcfg.virtual_exit as u32;
        let n = rcfg.virtual_exit + 1;
        // RPO on the reverse graph starting at the virtual exit: `marks`
        // holds the DFS state, then each node's position.
        const SEEN: u32 = UNREACHED - 1;
        marks.clear();
        marks.resize(n, UNREACHED);
        nodes.clear();
        frames.clear();
        marks[exit as usize] = SEEN;
        frames.push((exit, 0));
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if let Some(s) = rcfg.succs(v as usize).get(*cursor as usize) {
                *cursor += 1;
                if marks[s.index()] == UNREACHED {
                    marks[s.index()] = SEEN;
                    frames.push((s.0, 0));
                }
            } else {
                nodes.push(v);
                frames.pop();
            }
        }
        nodes.reverse();
        for (i, &v) in nodes.iter().enumerate() {
            marks[v as usize] = i as u32;
        }
        let (rpo, pos) = (&*nodes, &*marks);
        let mut ipdom = vec![NONE; n];
        ipdom[exit as usize] = exit;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                // `b`'s predecessors in the reverse graph: its successors,
                // and the virtual exit where it is attached to it.
                let block = BlockId(b);
                let mut new_idom = NONE;
                let to_exit = rcfg.exits(block).then_some(exit);
                for p in f.successors(block).iter().map(|s| s.0).chain(to_exit) {
                    if ipdom[p as usize] == NONE {
                        continue;
                    }
                    new_idom = match new_idom {
                        NONE => p,
                        cur => intersect(&ipdom, pos, p, cur),
                    };
                }
                if new_idom != NONE && ipdom[b as usize] != new_idom {
                    ipdom[b as usize] = new_idom;
                    changed = true;
                }
            }
        }
        ipdom[exit as usize] = NONE;
        PostDomTree {
            ipdom,
            virtual_exit: rcfg.virtual_exit,
        }
    }

    /// The immediate post-dominator of node `v` (virtual exit included),
    /// if it has one.
    fn parent(&self, v: usize) -> Option<usize> {
        self.ipdom
            .get(v)
            .filter(|&&d| d != NONE)
            .map(|&d| d as usize)
    }

    /// Immediate post-dominator of `b`; `None` when `b`'s post-dominator
    /// is the virtual exit (i.e. nothing in the function post-dominates
    /// it) or `b` is unreachable.
    pub fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        match self.parent(b.index()) {
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
            match self.parent(cur) {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }

    /// Post-dominance frontier of every block; `order` is `f`'s.
    ///
    /// `PDF(b)` contains the *branch* blocks `j` (≥2 successors) such
    /// that `b` post-dominates a successor of `j` but not `j` itself.
    /// These are precisely the conditionals that decide whether control
    /// flows through `b`.
    pub fn frontier(&self, f: &FuncIr, order: Order<'_>, scratch: &mut CfgScratch) -> Frontiers {
        let n = f.block_count();
        let seen = &mut scratch.marks;
        Frontiers::collect(n, |add| {
            seen.clear();
            seen.resize(n, NONE);
            // In the reverse graph, join nodes are original branch nodes.
            for (id, b) in f.iter_blocks() {
                if !order.reaches(id) {
                    continue;
                }
                let succs = b.term.successors();
                if succs.len() < 2 {
                    continue;
                }
                let stop = self.parent(id.index());
                for s in succs {
                    // Walk up the post-dominator tree from each successor
                    // to (but excluding) ipdom(branch); everything on the
                    // way has the branch in its PDF.
                    let mut runner = s.index();
                    loop {
                        if Some(runner) == stop || runner == self.virtual_exit {
                            break;
                        }
                        if runner < n && seen[runner] != id.0 {
                            seen[runner] = id.0;
                            add(runner, id);
                        }
                        match self.parent(runner) {
                            Some(d) if d != runner => runner = d,
                            _ => break,
                        }
                    }
                }
            }
        })
    }

    /// Iterated post-dominance frontier of a set of blocks: the fixpoint
    /// `PDF+(S) = PDF(S ∪ PDF+(S))`. This is the divergence-point set of
    /// PARCOACH's Algorithm 1.
    ///
    /// Recomputes the per-block frontiers on every call; when many sets
    /// are queried against one function, compute [`PostDomTree::frontier`]
    /// once and use an [`IpdfEngine`] instead.
    pub fn iterated_frontier(&self, f: &FuncIr, set: &[BlockId]) -> Vec<BlockId> {
        let pdf = self.frontier(f, CfgOrder::of(f).view(), &mut CfgScratch::default());
        iterated_frontier_from(&pdf, set)
    }
}

/// The `PDF+` worklist fixpoint over precomputed per-block frontiers.
/// The result is sorted ascending.
pub fn iterated_frontier_from(pdf: &Frontiers, set: &[BlockId]) -> Vec<BlockId> {
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
    (0..n as u32)
        .map(BlockId)
        .filter(|b| in_result[b.index()])
        .collect()
}

/// Memoizing iterated-PDF engine: per-block post-dominance frontiers are
/// computed once (by the caller, via [`PostDomTree::frontier`]) and the
/// `PDF+` of each queried *block set* is cached, keyed by the normalized
/// (sorted, deduplicated) set. Two collective events issued from the
/// same blocks share one fixpoint computation.
pub struct IpdfEngine<'a> {
    pdf: &'a Frontiers,
    cache: std::collections::HashMap<Vec<BlockId>, Vec<BlockId>>,
    hits: u64,
    misses: u64,
}

impl<'a> IpdfEngine<'a> {
    /// Build an engine over precomputed per-block frontiers.
    pub fn new(pdf: &'a Frontiers) -> IpdfEngine<'a> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{func_from_edges, reachable};

    fn dom(f: &FuncIr) -> DomTree {
        DomTree::compute(f, &f.predecessors(), CfgOrder::of(f).view())
    }

    fn pdom(f: &FuncIr) -> PostDomTree {
        let order = CfgOrder::of(f);
        PostDomTree::compute(
            f,
            &f.predecessors(),
            order.view(),
            &mut CfgScratch::default(),
        )
    }

    fn pdf(f: &FuncIr, pdt: &PostDomTree) -> Frontiers {
        pdt.frontier(f, CfgOrder::of(f).view(), &mut CfgScratch::default())
    }

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
        let dt = dom(&f);
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
        let dt = dom(&f);
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
        let dt = dom(&f);
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
        let pdt = pdom(&f);
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
        let pdt = pdom(&f);
        assert_eq!(pdt.ipdom(BlockId(0)), None);
        assert!(!pdt.post_dominates(BlockId(1), BlockId(0)));
    }

    #[test]
    fn pdf_of_branch_arm() {
        // 0 → {1,2} → 3; PDF(1) = {0}, PDF(2) = {0}, PDF(3) = {}.
        let f = func_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let pdt = pdom(&f);
        let pdf = pdf(&f, &pdt);
        assert_eq!(pdf.len(), 4);
        assert_eq!(pdf[1], [BlockId(0)]);
        assert_eq!(pdf[2], [BlockId(0)]);
        assert!(pdf[3].is_empty());
        assert!(pdf[0].is_empty());
    }

    #[test]
    fn iterated_pdf_nested_conditionals() {
        // 0 → {1, 5}; 1 → {2, 3}; 2 → 4; 3 → 4; 4 → 5
        // A block set {2} should iterate: PDF(2)={1}, PDF(1)={0} ⇒ {0,1}.
        let f = func_from_edges(6, &[(0, 1), (0, 5), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]);
        let pdt = pdom(&f);
        let ipdf = pdt.iterated_frontier(&f, &[BlockId(2)]);
        assert_eq!(ipdf, vec![BlockId(0), BlockId(1)]);
    }

    #[test]
    fn pdf_empty_for_post_dominating_node() {
        // A node on every path (e.g. the join) has empty PDF+: no
        // conditional controls whether it executes.
        let f = func_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let pdt = pdom(&f);
        let ipdf = pdt.iterated_frontier(&f, &[BlockId(3)]);
        assert!(ipdf.is_empty());
    }

    #[test]
    fn pdf_loop_condition() {
        // 0 → 1(head) → {2(body), 3(exit)}; 2 → 1.
        // The loop head controls how many times the body runs: PDF+(2)
        // must contain 1.
        let f = func_from_edges(4, &[(0, 1), (1, 2), (1, 3), (2, 1)]);
        let pdt = pdom(&f);
        let ipdf = pdt.iterated_frontier(&f, &[BlockId(2)]);
        assert!(
            ipdf.contains(&BlockId(1)),
            "loop head must be in PDF+ of body, got {ipdf:?}"
        );
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
        let pdt = pdom(&f);
        let pdf = pdf(&f, &pdt);
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
        let pdt = pdom(&f);
        // Must not panic / loop; reachable nodes participate.
        let _ = pdf(&f, &pdt);
        let _ = pdt.iterated_frontier(&f, &[BlockId(2)]);
    }
}
