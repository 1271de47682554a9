//! Property tests: dominators / post-dominators on random CFGs against
//! naive reference implementations, plus structural PDF+ facts.
//!
//! Randomness comes from `parcoach_testutil::Rng` with per-case seeds:
//! a failure message carries the seed, and re-running the test
//! regenerates the identical CFG.

use parcoach_ir::dom::{DomTree, PostDomTree};
use parcoach_ir::graph::{func_from_edges, reachable};
use parcoach_ir::types::BlockId;
use parcoach_testutil::Rng;

/// Base budget 64; `PARCOACH_PROP_BUDGET=4` (CI's extended matrix)
/// raises it to 256 — affordable now that the simulators reuse
/// pooled threads.
fn cases() -> u64 {
    parcoach_testutil::case_budget(64)
}

/// Random CFG as an edge list over `n` blocks with ≤2 successors each,
/// block 0 the entry. Mirrors the old proptest strategy: each block
/// independently gets 0, 1, or 2 distinct successors.
fn random_cfg(rng: &mut Rng) -> (usize, Vec<(u32, u32)>) {
    let n = rng.range_usize(3, 12);
    let mut edges = Vec::new();
    for i in 0..n as u32 {
        if rng.bool() {
            continue; // no successors
        }
        let a = rng.range_u32(0, n as u32);
        edges.push((i, a));
        if rng.bool() {
            let b = rng.range_u32(0, n as u32);
            if b != a {
                edges.push((i, b));
            }
        }
    }
    (n, edges)
}

/// Naive O(n³) dominance: a dominates b iff removing a makes b
/// unreachable from the entry.
fn naive_dominates(n: usize, edges: &[(u32, u32)], a: BlockId, b: BlockId, reach: &[bool]) -> bool {
    if !reach[b.index()] {
        return false;
    }
    if a == b {
        return true;
    }
    // BFS from entry avoiding `a`.
    let mut seen = vec![false; n];
    let mut stack = vec![0u32];
    if a.0 == 0 {
        return true; // entry dominates everything reachable
    }
    seen[0] = true;
    while let Some(x) = stack.pop() {
        for &(_, t) in edges.iter().filter(|(s, _)| *s == x) {
            if t == a.0 {
                continue;
            }
            if !seen[t as usize] {
                seen[t as usize] = true;
                stack.push(t);
            }
        }
    }
    !seen[b.index()]
}

#[test]
fn domtree_matches_naive() {
    for seed in 0..cases() {
        let (n, edges) = random_cfg(&mut Rng::new(seed));
        let f = func_from_edges(n, &edges);
        let dt = DomTree::compute(&f, &f.predecessors());
        let reach = reachable(&f);
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                let (a, b) = (BlockId(a), BlockId(b));
                if !reach[a.index()] || !reach[b.index()] {
                    continue;
                }
                assert_eq!(
                    dt.dominates(a, b),
                    naive_dominates(n, &edges, a, b, &reach),
                    "dominates({}, {}) mismatch on {:?} (seed {seed})",
                    a,
                    b,
                    edges
                );
            }
        }
    }
}

#[test]
fn idom_is_strict_dominator() {
    for seed in 0..cases() {
        let (n, edges) = random_cfg(&mut Rng::new(seed));
        let f = func_from_edges(n, &edges);
        let dt = DomTree::compute(&f, &f.predecessors());
        for b in f.block_ids() {
            if let Some(d) = dt.idom(b) {
                assert!(d != b, "idom({b}) = {b} (seed {seed})");
                assert!(
                    dt.dominates(d, b),
                    "idom({b}) = {d} not a dominator (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn pdf_members_are_branch_blocks() {
    for seed in 0..cases() {
        let (n, edges) = random_cfg(&mut Rng::new(seed));
        let f = func_from_edges(n, &edges);
        let pdt = PostDomTree::compute(&f, &f.predecessors());
        let reach = reachable(&f);
        let all: Vec<BlockId> = f.block_ids().filter(|b| reach[b.index()]).collect();
        for &seed_block in &all {
            for d in pdt.iterated_frontier(&f, &[seed_block]) {
                assert!(
                    f.successors(d).len() >= 2,
                    "PDF+ member {d} of seed block {seed_block} is not a branch \
                     (rng seed {seed}, edges {edges:?})"
                );
            }
        }
    }
}

#[test]
fn post_dominance_antisymmetric() {
    for seed in 0..cases() {
        let (n, edges) = random_cfg(&mut Rng::new(seed));
        let f = func_from_edges(n, &edges);
        let pdt = PostDomTree::compute(&f, &f.predecessors());
        let reach = reachable(&f);
        for a in f.block_ids() {
            for b in f.block_ids() {
                if a == b || !reach[a.index()] || !reach[b.index()] {
                    continue;
                }
                assert!(
                    !(pdt.post_dominates(a, b) && pdt.post_dominates(b, a)),
                    "{a} and {b} post-dominate each other (seed {seed})"
                );
            }
        }
    }
}
