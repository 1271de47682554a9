//! Lexical scopes for the passes that walk the AST.
//!
//! Sema maps names to types and lowering maps them to registers; both
//! need "innermost binding of this name", "open a block" and "close a
//! block, forgetting its bindings". [`ScopeStack`] is that, once, as one
//! flat vector of bindings plus the positions where the open scopes
//! start.
//!
//! Names are [`Symbol`]s, so a binding costs a push and a lookup
//! compares integers: nothing is allocated, cloned or hashed per `let`
//! or per variable reference, and opening a block that binds nothing
//! costs one `usize`. A lookup scans the live bindings from the
//! innermost outwards, which is linear in their number — a few dozen in
//! real functions, where it beats one hash of the name per enclosing
//! block by a wide margin.

use crate::symbol::Symbol;

/// A stack of lexical scopes binding names to `T`.
#[derive(Debug)]
pub struct ScopeStack<T> {
    /// Every live binding, outermost first.
    bindings: Vec<(Symbol, T)>,
    /// `bindings.len()` at the time each open scope was pushed.
    marks: Vec<usize>,
}

impl<T: Copy> ScopeStack<T> {
    /// One open scope (the function's own: parameters go here) that is
    /// never popped.
    pub fn new() -> Self {
        ScopeStack {
            bindings: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// Forget every binding and scope: the stack is as [`new`](Self::new)
    /// made it, with its storage kept for the next function.
    pub fn clear(&mut self) {
        self.bindings.clear();
        self.marks.clear();
    }

    /// Open a nested scope.
    pub fn push(&mut self) {
        self.marks.push(self.bindings.len());
    }

    /// Close the innermost nested scope and forget what it bound.
    ///
    /// # Panics
    /// If no scope opened by [`push`](Self::push) is left.
    pub fn pop(&mut self) {
        let mark = self.marks.pop().expect("pop without a matching push");
        self.bindings.truncate(mark);
    }

    /// Bind `name` in the innermost scope. A later binding of the same
    /// name — in this scope or a nested one — shadows it.
    pub fn declare(&mut self, name: Symbol, value: T) {
        self.bindings.push((name, value));
    }

    /// The innermost live binding of `name`.
    pub fn lookup(&self, name: Symbol) -> Option<T> {
        self.bindings
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

impl<T: Copy> Default for ScopeStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: Symbol = Symbol(0);
    const Y: Symbol = Symbol(1);

    #[test]
    fn inner_binding_shadows_and_pop_restores() {
        let mut s = ScopeStack::new();
        s.declare(X, 1);
        s.push();
        assert_eq!(s.lookup(X), Some(1));
        s.declare(X, 2);
        s.declare(Y, 3);
        assert_eq!(s.lookup(X), Some(2));
        s.push();
        assert_eq!(s.lookup(Y), Some(3));
        s.pop();
        s.pop();
        assert_eq!(s.lookup(X), Some(1));
        assert_eq!(s.lookup(Y), None);
    }

    #[test]
    fn redeclaration_in_one_scope_takes_the_later_binding() {
        let mut s = ScopeStack::new();
        s.push();
        s.declare(X, 1);
        s.declare(X, 2);
        assert_eq!(s.lookup(X), Some(2));
        s.pop();
        assert_eq!(s.lookup(X), None);
    }

    #[test]
    #[should_panic(expected = "pop without a matching push")]
    fn unbalanced_pop_panics() {
        ScopeStack::<u8>::new().pop();
    }
}
