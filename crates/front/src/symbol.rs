//! Interned identifiers.
//!
//! A [`Symbol`] is an index into the [`Interner`] of the compilation unit
//! that minted it: the AST, the scope stacks of sema and lowering and the
//! signature table all hold and compare `u32`s, and an identifier's text
//! exists once per distinct name instead of once per occurrence. Text is
//! looked up again only where it is rendered (diagnostics, the pretty
//! printer) or handed to the IR, which keeps names as `String`s.
//!
//! Ownership (SNIPPETS.md, stable ids and interning): a unit's interner
//! lives as long as the unit — [`crate::Program`] owns it, so a daemon
//! document's interner is the document's — is append-only, and never
//! reuses an id. Ids are dense and assigned in first-appearance order, so
//! two parses of one text produce the same symbols. Symbols of two
//! interners must never meet: a function reparsed for a document is
//! interned into *that document's* interner.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// An interned identifier: an index into its unit's [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The symbol's position in its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only table of distinct names.
///
/// All text lives in one buffer and the lookup table holds symbol ids,
/// so interning a name that is already known allocates nothing and a new
/// name costs amortized buffer growth only. Names come from source text
/// — outside input — so the table hashes with the standard library's
/// randomly keyed hasher.
#[derive(Debug, Clone)]
pub struct Interner {
    /// Every name, back to back, in first-appearance order.
    text: String,
    /// `ends[i]` is where symbol `i`'s name ends in `text` (it starts
    /// where its predecessor's ends).
    ends: Vec<u32>,
    /// Open-addressing table of `symbol id + 1` (0 = empty slot); its
    /// length is a power of two and at least twice the symbol count.
    slots: Vec<u32>,
    hasher: RandomState,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            text: String::new(),
            ends: Vec::new(),
            slots: Vec::new(),
            hasher: RandomState::new(),
        }
    }

    /// Number of distinct names interned so far.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The text of `sym`.
    ///
    /// # Panics
    /// If `sym` was minted by a larger interner than this one.
    pub fn resolve(&self, sym: Symbol) -> &str {
        let i = sym.index();
        let lo = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[lo as usize..self.ends[i] as usize]
    }

    /// The slot holding `name`, or the empty slot where it belongs.
    /// The table must be non-empty.
    fn slot_of(&self, name: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = self.hasher.hash_one(name) as usize & mask;
        loop {
            match self.slots[at] {
                0 => return at,
                id if self.resolve(Symbol(id - 1)) == name => return at,
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The symbol of `name`, if it was interned.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        if self.slots.is_empty() {
            return None;
        }
        match self.slots[self.slot_of(name)] {
            0 => None,
            id => Some(Symbol(id - 1)),
        }
    }

    /// The symbol of `name`, interning it first if it is new.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if (self.ends.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let at = self.slot_of(name);
        if self.slots[at] != 0 {
            return Symbol(self.slots[at] - 1);
        }
        let sym = Symbol(u32::try_from(self.ends.len()).expect("fewer than 2^32 names"));
        self.text.push_str(name);
        self.ends
            .push(u32::try_from(self.text.len()).expect("less than 4 GiB of names"));
        self.slots[at] = sym.0 + 1;
        sym
    }

    /// Double the table and re-seat every symbol.
    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(64);
        self.slots.clear();
        self.slots.resize(size, 0);
        for i in 0..self.ends.len() as u32 {
            let at = self.slot_of(self.resolve(Symbol(i)));
            self.slots[at] = i + 1;
        }
    }
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

/// Two interners are equal when they hold the same names in the same
/// order — what two parses of one text produce.
impl PartialEq for Interner {
    fn eq(&self, other: &Interner) -> bool {
        self.ends == other.ends && self.text == other.text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_round_trips() {
        let mut t = Interner::new();
        assert!(t.is_empty());
        let a = t.intern("a");
        let b = t.intern("b");
        assert_eq!(t.intern("a"), a, "equal text, equal symbol");
        assert_ne!(a, b);
        assert_eq!((a, b), (Symbol(0), Symbol(1)), "dense, first-appearance");
        assert_eq!(t.resolve(a), "a");
        assert_eq!(t.resolve(b), "b");
        assert_eq!(t.get("b"), Some(b));
        assert_eq!(t.get("c"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn empty_name_and_prefixes_are_distinct() {
        let mut t = Interner::new();
        let names = ["", "x", "xy", "xyz", "y"];
        let syms: Vec<Symbol> = names.iter().map(|n| t.intern(n)).collect();
        for (n, s) in names.iter().zip(&syms) {
            assert_eq!(t.resolve(*s), *n);
            assert_eq!(t.get(n), Some(*s));
        }
    }

    #[test]
    fn growth_keeps_every_symbol() {
        let mut t = Interner::new();
        let names: Vec<String> = (0..1000).map(|i| format!("name_{i}")).collect();
        for (i, n) in names.iter().enumerate() {
            assert_eq!(t.intern(n), Symbol(i as u32));
        }
        for (i, n) in names.iter().enumerate() {
            assert_eq!(t.get(n), Some(Symbol(i as u32)));
            assert_eq!(t.resolve(Symbol(i as u32)), n);
        }
        // Equality is by content: a clone, and a rebuild in the same
        // order (other hash keys), are equal; another order is not.
        assert_eq!(t, t.clone());
        let mut again = Interner::new();
        for n in &names {
            again.intern(n);
        }
        assert_eq!(t, again);
        let mut reversed = Interner::new();
        for n in names.iter().rev() {
            reversed.intern(n);
        }
        assert_ne!(t, reversed);
    }
}
