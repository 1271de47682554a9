//! Parallelism words (paper §2).
//!
//! For a CFG node `n`, the parallelism word `pw[n]` is "the sequence of
//! the parallel constructs (pragma parallel, single, …) and the barriers
//! traversed from the beginning of a function to the node". Parallel
//! regions contribute `P_i` tokens, single-threaded regions (`single`,
//! `master`, one `section`) contribute `S_i`, barriers contribute `B`.
//! "A simplification is done when OpenMP regions end": closing a region
//! removes its token (and everything after it) from the word.
//!
//! A word has two forms. [`Word`] is the plain token vector that
//! messages print and the reference automaton reads. [`WordDag`] holds
//! the words of one function × context hash-consed as `(parent, token)`
//! nodes: extending a word by one token — the inner loop of
//! [`crate::pw::compute_pw`] — interns one node instead of cloning a
//! vector, and the `L = (S|PB*S)*` verdict is a constant-time read of
//! bits cached on the node at creation (see [`WordDag::class`]). A
//! phase that needs the tokens materializes the node
//! ([`WordDag::materialize`]).

use crate::lang::ContextClass;
use crate::pw::SYNTH_BASE;
use parcoach_ir::types::RegionId;
use std::fmt;

/// The flavour of a single-threaded (`S`) region. Needed to derive the
/// *required MPI thread level*: a collective guarded only by `master`
/// regions can run under `MPI_THREAD_FUNNELED`, while `single`/`section`
/// need `MPI_THREAD_SERIALIZED`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SKind {
    /// `single` region — an arbitrary thread executes.
    Single,
    /// `master` region — the team master executes.
    Master,
    /// one `section` of a `sections` construct — an arbitrary thread.
    Section,
}

impl fmt::Display for SKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SKind::Single => write!(f, "single"),
            SKind::Master => write!(f, "master"),
            SKind::Section => write!(f, "section"),
        }
    }
}

/// One token of a parallelism word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Token {
    /// `P_i`: a parallel region (team fork).
    P(RegionId),
    /// `S_i`: a single-threaded region.
    S(RegionId, SKind),
    /// `B`: a thread barrier (explicit or implicit).
    B,
}

impl Token {
    /// Region id for `P`/`S` tokens.
    pub fn region(self) -> Option<RegionId> {
        match self {
            Token::P(r) | Token::S(r, _) => Some(r),
            Token::B => None,
        }
    }

    /// Is this an `S` token?
    pub fn is_s(self) -> bool {
        matches!(self, Token::S(..))
    }

    /// Is this a `P` token?
    pub fn is_p(self) -> bool {
        matches!(self, Token::P(_))
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // A synthetic region is the context the function is called
            // in, not one of its own.
            Token::P(r) if r.0 >= SYNTH_BASE => write!(f, "P(caller)"),
            Token::S(r, _) if r.0 >= SYNTH_BASE => write!(f, "S(caller)"),
            Token::P(r) => write!(f, "P{}", r.0),
            Token::S(r, _) => write!(f, "S{}", r.0),
            Token::B => write!(f, "B"),
        }
    }
}

/// A parallelism word: a (short) sequence of tokens.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Word(pub Vec<Token>);

impl Word {
    /// The empty word (function entry at the default initial level).
    pub fn empty() -> Word {
        Word(Vec::new())
    }

    /// Append a token.
    pub fn push(&mut self, t: Token) {
        self.0.push(t);
    }

    /// Close region `r`: truncate the word at (and including) the last
    /// occurrence of the region's `P`/`S` token. Returns `false` when the
    /// token is absent — a structural error the caller reports.
    pub fn close_region(&mut self, r: RegionId) -> bool {
        if let Some(pos) = self.0.iter().rposition(|t| t.region() == Some(r)) {
            self.0.truncate(pos);
            true
        } else {
            false
        }
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty word.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Tokens as a slice.
    pub fn tokens(&self) -> &[Token] {
        &self.0
    }

    /// The word with all `B` tokens removed (monothread-membership only
    /// looks at the `P`/`S` structure; "Bs are ignored as barriers do not
    /// influence the level of thread parallelism").
    pub fn stripped(&self) -> Vec<Token> {
        self.0.iter().copied().filter(|t| *t != Token::B).collect()
    }

    /// Length of the longest common prefix with `other`.
    pub fn common_prefix_len(&self, other: &Word) -> usize {
        self.0
            .iter()
            .zip(other.0.iter())
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// True when `other` equals `self` plus a suffix consisting only of
    /// `B` tokens (the loop-head phase-merge case).
    pub fn is_barrier_extension_of(&self, other: &Word) -> bool {
        self.0.len() >= other.0.len()
            && self.0[..other.0.len()] == other.0[..]
            && self.0[other.0.len()..].iter().all(|t| *t == Token::B)
    }

    /// Number of `B` tokens in the word.
    pub fn barrier_count(&self) -> usize {
        self.0.iter().filter(|t| **t == Token::B).count()
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "ε");
        }
        for (i, t) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "·")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

/// A hash-consed parallelism word: an index into a [`WordDag`].
///
/// Within one dag, equal words have equal ids (structural interning), so
/// word equality — the dominant comparison of the propagation meet — is
/// an integer compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WordNode(pub u32);

/// The distinguished empty word `ε` (node 0 of every dag).
pub const EPSILON: WordNode = WordNode(0);

// Classification bits cached per node. Together they determine the
// `ContextClass` of the word (see `WordDag::class`) *and* carry enough
// state to derive a child's bits from its parent's in O(1):
//
// * `AFTER_P` — the stripped word ends in an unmatched `P` (DFA state 1
//   of `in_language_reference`);
// * `NESTED` — some `P…P` occurred with no `S` between (absorbing);
// * `FUNNELED` — every *closed* `P` group so far was closed by a
//   `master` `S` (meaningful only when the word is in `L`);
// * `STRIPPED_EMPTY` — no `P`/`S` token yet (barriers only).
const AFTER_P: u8 = 1 << 0;
const NESTED: u8 = 1 << 1;
const FUNNELED: u8 = 1 << 2;
const STRIPPED_EMPTY: u8 = 1 << 3;

/// Sentinel for the intrusive child lists: "no node".
const NO_NODE: u32 = u32::MAX;

/// One node of the word dag. `parent`+`token` spell the word backwards;
/// `flags` cache the membership automaton's state at this prefix.
/// `first_child`/`next_sibling` thread an intrusive list over each
/// node's extensions, so interning an edge is a short linear scan (the
/// out-degree is the token alphabet actually used at that prefix —
/// a handful) with no hashing and no side-table allocation.
#[derive(Debug, Clone, Copy)]
struct DagNode {
    parent: u32,
    token: Token,
    len: u32,
    flags: u8,
    first_child: u32,
    next_sibling: u32,
}

/// Hash-consed parallelism words: every distinct word is one node whose
/// parent is the word minus its last token.
///
/// This is the structure behind [`crate::pw::compute_pw`]'s inner loop:
///
/// * [`WordDag::extend`] (`w·t`) is O(1) — a scan of the parent's few
///   children — instead of cloning a `Vec<Token>`;
/// * word equality is id equality, making the propagation meet O(1);
/// * [`WordDag::class`] returns the cached `L = (S|PB*S)*` verdict in
///   O(1). The cache holds the *automaton state*, updated incrementally
///   at node creation — it never memoizes anything span- or
///   region-id-dependent, so [`crate::lang::classify`] on the
///   materialized word must agree exactly (property-tested against the
///   reference automaton in `core/lang.rs`).
///
/// Words from different dags must never be compared by id; the dag is
/// per-`PwResult` (i.e. per function × context) and ids are assigned in
/// deterministic propagation order.
#[derive(Debug, Clone)]
pub struct WordDag {
    nodes: Vec<DagNode>,
}

impl Default for WordDag {
    fn default() -> Self {
        WordDag::new()
    }
}

impl WordDag {
    /// A dag holding only `ε` (node 0).
    pub fn new() -> WordDag {
        WordDag {
            nodes: vec![DagNode {
                parent: 0,
                token: Token::B, // never read: ε has no last token
                len: 0,
                flags: STRIPPED_EMPTY | FUNNELED,
                first_child: NO_NODE,
                next_sibling: NO_NODE,
            }],
        }
    }

    /// Forget every word but `ε`, keeping the storage (a scratch dag
    /// is rebuilt for every function and context).
    pub fn clear(&mut self) {
        self.nodes.truncate(1);
        self.nodes[0].first_child = NO_NODE;
    }

    /// The empty word.
    pub fn epsilon(&self) -> WordNode {
        EPSILON
    }

    /// `w·t`: the word `w` extended by one token, interned.
    pub fn extend(&mut self, w: WordNode, t: Token) -> WordNode {
        let mut c = self.nodes[w.0 as usize].first_child;
        while c != NO_NODE {
            let n = &self.nodes[c as usize];
            if n.token == t {
                return WordNode(c);
            }
            c = n.next_sibling;
        }
        let p = self.nodes[w.0 as usize];
        let flags = match t {
            Token::B => p.flags,
            Token::P(_) => {
                let mut f = p.flags & !STRIPPED_EMPTY;
                if f & AFTER_P != 0 {
                    f |= NESTED;
                }
                f | AFTER_P
            }
            Token::S(_, kind) => {
                let mut f = p.flags & !(STRIPPED_EMPTY | AFTER_P);
                if p.flags & AFTER_P != 0 && kind != SKind::Master {
                    f &= !FUNNELED;
                }
                f
            }
        };
        let id = self.nodes.len() as u32;
        self.nodes.push(DagNode {
            parent: w.0,
            token: t,
            len: p.len + 1,
            flags,
            first_child: NO_NODE,
            next_sibling: self.nodes[w.0 as usize].first_child,
        });
        self.nodes[w.0 as usize].first_child = id;
        WordNode(id)
    }

    /// Intern a `Vec`-backed word token by token.
    pub fn intern_word(&mut self, w: &Word) -> WordNode {
        let mut n = EPSILON;
        for t in w.tokens() {
            n = self.extend(n, *t);
        }
        n
    }

    /// Number of tokens in `w`.
    pub fn len(&self, w: WordNode) -> u32 {
        self.nodes[w.0 as usize].len
    }

    /// True for `ε`.
    pub fn is_empty(&self, w: WordNode) -> bool {
        w == EPSILON
    }

    /// Close region `r`: the word truncated at (and excluding) the last
    /// `P`/`S` token of that region — the dag mirror of
    /// [`Word::close_region`]. `None` when the region is absent.
    pub fn close_region(&self, w: WordNode, r: RegionId) -> Option<WordNode> {
        let mut cur = w;
        while cur != EPSILON {
            let node = self.nodes[cur.0 as usize];
            if node.token.region() == Some(r) {
                return Some(WordNode(node.parent));
            }
            cur = WordNode(node.parent);
        }
        None
    }

    /// True when `long` equals `base` plus a suffix consisting only of
    /// `B` tokens (the loop-head phase-merge case).
    pub fn extends_by_barriers(&self, long: WordNode, base: WordNode) -> bool {
        let mut cur = long;
        while self.len(cur) > self.len(base) {
            let node = self.nodes[cur.0 as usize];
            if node.token != Token::B {
                return false;
            }
            cur = WordNode(node.parent);
        }
        cur == base
    }

    /// The cached classification of `w` — equal to
    /// `crate::lang::classify(&self.materialize(w))`, in O(1).
    pub fn class(&self, w: WordNode) -> ContextClass {
        use crate::lang::MonoVerdict;
        use parcoach_front::ast::ThreadLevel;
        let flags = self.nodes[w.0 as usize].flags;
        if flags & STRIPPED_EMPTY != 0 {
            ContextClass {
                verdict: MonoVerdict::SequentialContext,
                required_level: ThreadLevel::Single,
            }
        } else if flags & NESTED != 0 {
            ContextClass {
                verdict: MonoVerdict::NestedParallelism,
                required_level: ThreadLevel::Multiple,
            }
        } else if flags & AFTER_P != 0 {
            ContextClass {
                verdict: MonoVerdict::MultiThreaded,
                required_level: ThreadLevel::Multiple,
            }
        } else {
            ContextClass {
                verdict: MonoVerdict::MonoThreaded,
                required_level: if flags & FUNNELED != 0 {
                    ThreadLevel::Funneled
                } else {
                    ThreadLevel::Serialized
                },
            }
        }
    }

    /// The `Vec`-backed word behind a node (allocates; report paths
    /// only).
    pub fn materialize(&self, w: WordNode) -> Word {
        let mut tokens = Vec::with_capacity(self.len(w) as usize);
        let mut cur = w;
        while cur != EPSILON {
            let node = self.nodes[cur.0 as usize];
            tokens.push(node.token);
            cur = WordNode(node.parent);
        }
        tokens.reverse();
        Word(tokens)
    }

    /// Number of distinct words interned (including `ε`).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> RegionId {
        RegionId(i)
    }

    #[test]
    fn close_region_truncates() {
        // P0 S1 B — closing S1 leaves P0 (B after it goes too).
        let mut w = Word(vec![
            Token::P(r(0)),
            Token::S(r(1), SKind::Single),
            Token::B,
        ]);
        assert!(w.close_region(r(1)));
        assert_eq!(w, Word(vec![Token::P(r(0))]));
        // Closing P0 empties.
        assert!(w.close_region(r(0)));
        assert!(w.is_empty());
        // Closing again fails.
        assert!(!w.close_region(r(0)));
    }

    #[test]
    fn close_region_picks_last_occurrence() {
        // Degenerate but defensive: same region twice (loop re-entry).
        let mut w = Word(vec![
            Token::S(r(1), SKind::Single),
            Token::B,
            Token::S(r(1), SKind::Single),
        ]);
        assert!(w.close_region(r(1)));
        assert_eq!(w.0.len(), 2);
    }

    #[test]
    fn stripped_removes_barriers() {
        let w = Word(vec![
            Token::P(r(0)),
            Token::B,
            Token::B,
            Token::S(r(1), SKind::Master),
        ]);
        assert_eq!(
            w.stripped(),
            vec![Token::P(r(0)), Token::S(r(1), SKind::Master)]
        );
        assert_eq!(w.barrier_count(), 2);
    }

    #[test]
    fn common_prefix() {
        let a = Word(vec![Token::P(r(0)), Token::S(r(1), SKind::Single)]);
        let b = Word(vec![Token::P(r(0)), Token::S(r(2), SKind::Single)]);
        assert_eq!(a.common_prefix_len(&b), 1);
        assert_eq!(a.common_prefix_len(&a), 2);
        assert_eq!(Word::empty().common_prefix_len(&a), 0);
    }

    #[test]
    fn barrier_extension() {
        let base = Word(vec![Token::P(r(0))]);
        let ext = Word(vec![Token::P(r(0)), Token::B, Token::B]);
        assert!(ext.is_barrier_extension_of(&base));
        assert!(base.is_barrier_extension_of(&base));
        assert!(!base.is_barrier_extension_of(&ext));
        let other = Word(vec![Token::P(r(0)), Token::S(r(1), SKind::Single)]);
        assert!(!other.is_barrier_extension_of(&base));
    }

    #[test]
    fn display() {
        assert_eq!(Word::empty().to_string(), "ε");
        let w = Word(vec![
            Token::P(r(0)),
            Token::B,
            Token::S(r(3), SKind::Single),
        ]);
        assert_eq!(w.to_string(), "P0·B·S3");
    }

    #[test]
    fn word_dag_extend_dedups_and_materializes() {
        let mut dag = WordDag::new();
        let p0 = dag.extend(EPSILON, Token::P(RegionId(0)));
        let p0b = dag.extend(p0, Token::B);
        let again = dag.intern_word(&Word(vec![Token::P(RegionId(0)), Token::B]));
        assert_eq!(p0b, again, "equal words share a node");
        assert_eq!(
            dag.materialize(p0b),
            Word(vec![Token::P(RegionId(0)), Token::B])
        );
        assert_eq!(dag.materialize(EPSILON), Word::empty());
        assert_eq!(dag.len(p0b), 2);
        assert_eq!(dag.node_count(), 3);
    }

    #[test]
    fn word_dag_close_region_matches_vec_semantics() {
        let mut dag = WordDag::new();
        let w = Word(vec![
            Token::P(RegionId(0)),
            Token::S(RegionId(1), SKind::Single),
            Token::B,
        ]);
        let n = dag.intern_word(&w);
        let closed = dag.close_region(n, RegionId(1)).expect("region present");
        let mut expect = w.clone();
        assert!(expect.close_region(RegionId(1)));
        assert_eq!(dag.materialize(closed), expect);
        assert_eq!(dag.close_region(n, RegionId(7)), None, "absent region");
    }

    #[test]
    fn word_dag_barrier_extension() {
        let mut dag = WordDag::new();
        let base = dag.intern_word(&Word(vec![Token::P(RegionId(0))]));
        let ext = dag.extend(base, Token::B);
        let ext = dag.extend(ext, Token::B);
        let other = dag.extend(base, Token::S(RegionId(1), SKind::Single));
        assert!(dag.extends_by_barriers(ext, base));
        assert!(dag.extends_by_barriers(base, base));
        assert!(!dag.extends_by_barriers(base, ext));
        assert!(!dag.extends_by_barriers(other, base));
    }

    #[test]
    fn word_dag_class_matches_classify() {
        use crate::lang::classify;
        let samples: Vec<Word> = vec![
            Word::empty(),
            Word(vec![Token::B]),
            Word(vec![Token::P(RegionId(0))]),
            Word(vec![
                Token::P(RegionId(0)),
                Token::S(RegionId(1), SKind::Master),
            ]),
            Word(vec![
                Token::P(RegionId(0)),
                Token::B,
                Token::S(RegionId(1), SKind::Single),
            ]),
            Word(vec![Token::P(RegionId(0)), Token::P(RegionId(1))]),
            Word(vec![
                Token::P(RegionId(0)),
                Token::P(RegionId(1)),
                Token::S(RegionId(2), SKind::Single),
            ]),
        ];
        let mut dag = WordDag::new();
        for w in samples {
            let n = dag.intern_word(&w);
            assert_eq!(dag.class(n), classify(&w), "verdict cache wrong for {w}");
        }
    }
}
