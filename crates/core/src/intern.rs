//! Module-level interning arenas for the fact store.
//!
//! The static phases used to clone `String` function names and
//! `Vec`-backed parallelism words through every per-function result;
//! the arenas replace those with copy-cheap, hash-fast ids:
//!
//! * [`Sym`] — a function as its index in `Module::funcs`. `Event::Call`
//!   and `tainted_callees` carry `Sym`s; strings materialize only at
//!   the report boundary.
//! * [`EventId`] / [`EventArena`] — interned collective events (see
//!   [`crate::matching::Event`]). Block→event maps and the balanced-arms
//!   sequences compare `u32`s instead of re-hashing enum payloads.
//! * [`WordId`] / [`WordArena`] — interned parallelism words. Straight-
//!   line blocks overwhelmingly share their entry word, so the arena
//!   stores each distinct word once per module.
//!
//! The two arenas are thin typed wrappers over one generic `Interner`
//! and are filled **sequentially in module order** by the fact store
//! ([`crate::facts::AnalysisCx`]), so ids are deterministic at every
//! pool width.
//!
//! The last structure, [`WordDag`], is different in kind: it interns
//! words *structurally* as `(parent, token)` nodes, so extending a word
//! by one token — the inner loop of the parallelism-word propagation —
//! is a single hash probe instead of a `Vec<Token>` clone, and the
//! `L = (S|PB*S)*` membership verdict is a constant-time read of bits
//! cached on the node at creation (see [`WordDag::class`]).

use crate::lang::ContextClass;
use crate::matching::Event;
use crate::word::{SKind, Token, Word};
use parcoach_ir::types::RegionId;
use std::collections::HashMap;

/// The shared intern-arena core: values stored once in insertion order,
/// with a reverse map for O(1) re-interning. Ids are dense `u32`s.
#[derive(Debug, Clone)]
struct Interner<T> {
    items: Vec<T>,
    by_item: HashMap<T, u32>,
}

// Manual impl: the derive would (needlessly) require `T: Default`.
impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner {
            items: Vec::new(),
            by_item: HashMap::new(),
        }
    }
}

impl<T: Clone + Eq + std::hash::Hash> Interner<T> {
    /// Intern a value (cloned only on first sight), returning its id.
    fn intern(&mut self, item: &T) -> u32 {
        if let Some(&id) = self.by_item.get(item) {
            return id;
        }
        let id = self.items.len() as u32;
        self.items.push(item.clone());
        self.by_item.insert(item.clone(), id);
        id
    }

    fn get(&self, id: u32) -> &T {
        &self.items[id as usize]
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

/// A function name as the function's index in `Module::funcs`: the
/// module is its own symbol table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// The name of function `self` of `m`.
    pub fn name(self, m: &parcoach_ir::func::Module) -> &str {
        &m.funcs[self.0 as usize].name
    }
}

/// An interned collective event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub u32);

/// The module event arena: [`Event`]s ↔ [`EventId`]s.
#[derive(Debug, Clone, Default)]
pub struct EventArena(Interner<Event>);

impl EventArena {
    /// Intern an event, returning its stable id.
    pub fn intern(&mut self, e: Event) -> EventId {
        EventId(self.0.intern(&e))
    }

    /// The event behind an id (`Event` is `Copy`).
    pub fn get(&self, id: EventId) -> Event {
        *self.0.get(id.0)
    }

    /// Number of distinct events.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.0.len() == 0
    }
}

/// An interned parallelism word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WordId(pub u32);

/// The module word arena: [`Word`]s ↔ [`WordId`]s.
#[derive(Debug, Clone, Default)]
pub struct WordArena(Interner<Word>);

impl WordArena {
    /// Intern a word (cloned only on first sight), returning its id.
    pub fn intern(&mut self, w: &Word) -> WordId {
        WordId(self.0.intern(w))
    }

    /// The word behind an id.
    pub fn get(&self, id: WordId) -> &Word {
        self.0.get(id.0)
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.0.len() == 0
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
/// * [`WordDag::extend`] (`w·t`) is O(1) — a `(parent, token)` hash
///   probe — instead of cloning a `Vec<Token>`;
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
    use crate::word::Token;
    use parcoach_ir::types::RegionId;

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
            Token::S(RegionId(1), crate::word::SKind::Single),
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
        let other = dag.extend(base, Token::S(RegionId(1), crate::word::SKind::Single));
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
                Token::S(RegionId(1), crate::word::SKind::Master),
            ]),
            Word(vec![
                Token::P(RegionId(0)),
                Token::B,
                Token::S(RegionId(1), crate::word::SKind::Single),
            ]),
            Word(vec![Token::P(RegionId(0)), Token::P(RegionId(1))]),
            Word(vec![
                Token::P(RegionId(0)),
                Token::P(RegionId(1)),
                Token::S(RegionId(2), crate::word::SKind::Single),
            ]),
        ];
        let mut dag = WordDag::new();
        for w in samples {
            let n = dag.intern_word(&w);
            assert_eq!(dag.class(n), classify(&w), "verdict cache wrong for {w}");
        }
    }

    #[test]
    fn word_arena_dedups() {
        let mut a = WordArena::default();
        let w1 = Word(vec![Token::P(RegionId(0)), Token::B]);
        let w2 = Word(vec![Token::P(RegionId(0)), Token::B]);
        let w3 = Word(vec![Token::P(RegionId(1))]);
        let i1 = a.intern(&w1);
        let i2 = a.intern(&w2);
        let i3 = a.intern(&w3);
        assert_eq!(i1, i2, "equal words share an id");
        assert_ne!(i1, i3);
        assert_eq!(a.get(i1), &w1);
        assert_eq!(a.len(), 2);
    }
}
