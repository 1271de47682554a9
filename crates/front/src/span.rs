//! Source locations.
//!
//! Every token, AST node and (after lowering) IR instruction carries a
//! [`Span`] — a half-open byte range into the original source text. The
//! [`SourceMap`] converts byte offsets back into 1-based line/column pairs
//! for diagnostics, mirroring how the original PARCOACH GCC plugin reports
//! "names and lines in the source code of MPI collective calls involved".

use std::fmt;

/// A half-open byte range `[lo, hi)` into a single source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first character.
    pub lo: u32,
    /// Byte offset one past the last character.
    pub hi: u32,
}

impl Span {
    /// A span covering nothing, used for synthesized nodes (e.g. implicit
    /// barriers inserted during lowering).
    pub const DUMMY: Span = Span { lo: 0, hi: 0 };

    /// Create a new span. `lo <= hi` is expected but not enforced.
    pub fn new(lo: u32, hi: u32) -> Self {
        Span { lo, hi }
    }

    /// Smallest span covering both `self` and `other`.
    ///
    /// Dummy spans are treated as identities so that synthesized nodes do
    /// not drag real spans to offset 0.
    pub fn to(self, other: Span) -> Span {
        if self == Span::DUMMY {
            return other;
        }
        if other == Span::DUMMY {
            return self;
        }
        Span::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Length in bytes.
    pub fn len(self) -> u32 {
        self.hi.saturating_sub(self.lo)
    }

    /// True for zero-length spans.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// True if this is the reserved dummy span.
    pub fn is_dummy(self) -> bool {
        self == Span::DUMMY
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.lo, self.hi)
    }
}

/// A resolved 1-based line/column position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineCol {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in bytes, which equals characters for the
    /// ASCII sources MiniHPC programs are written in).
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Maps byte offsets of one source file back to line/column positions.
#[derive(Debug, Clone)]
pub struct SourceMap {
    /// Logical name of the file (for diagnostics only).
    name: String,
    /// Full source text.
    src: String,
    /// Byte offset of the start of every line, in ascending order.
    /// `line_starts[0] == 0` always.
    line_starts: Vec<u32>,
}

impl SourceMap {
    /// Build a map for `src`. `name` is used when formatting locations.
    pub fn new(name: impl Into<String>, src: impl Into<String>) -> Self {
        let src = src.into();
        // `match_indices` on a one-byte pattern searches a word at a
        // time, not a byte at a time.
        let line_starts = std::iter::once(0)
            .chain(src.match_indices('\n').map(|(i, _)| i as u32 + 1))
            .collect();
        SourceMap {
            name: name.into(),
            src,
            line_starts,
        }
    }

    /// Replace the bytes `lo..hi` by `text`, in place: the result equals
    /// `SourceMap::new` of the spliced source, at the cost of the edit
    /// plus one move of the tail — no line outside the replaced range is
    /// looked at again. `lo..hi` must lie on character boundaries.
    pub fn splice(&mut self, lo: usize, hi: usize, text: &str) {
        // A resident document is spliced thousands of times: when it
        // outgrows its buffer, grow by a sixteenth, not by doubling —
        // still amortized, without carrying a second copy's worth of
        // slack for the rest of its life.
        let growth = text.len().saturating_sub(hi - lo);
        if growth > self.src.capacity() - self.src.len() {
            self.src.reserve_exact(growth + self.src.len() / 16);
        }
        self.src.replace_range(lo..hi, text);
        // A line start `s` records a newline at `s - 1`: the newlines
        // inside `lo..hi` are the starts in `lo + 1 ..= hi`.
        let first = self.line_starts.partition_point(|&s| s as usize <= lo);
        let last = self.line_starts.partition_point(|&s| s as usize <= hi);
        let delta = text.len() as i64 - (hi - lo) as i64;
        for s in &mut self.line_starts[last..] {
            *s = (i64::from(*s) + delta) as u32;
        }
        self.line_starts.splice(
            first..last,
            text.match_indices('\n').map(|(i, _)| (lo + i + 1) as u32),
        );
    }

    /// Logical file name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The full source text.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// Resolve a byte offset into a 1-based line/column pair.
    ///
    /// Offsets past the end of the file resolve to the end of the last
    /// line rather than panicking, since spans of synthesized nodes may be
    /// clamped.
    pub fn line_col(&self, offset: u32) -> LineCol {
        let offset = offset.min(self.src.len() as u32);
        // Index of the last line start <= offset.
        let line_idx = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        LineCol {
            line: line_idx as u32 + 1,
            col: offset - self.line_starts[line_idx] + 1,
        }
    }

    /// Resolve the start of a span.
    pub fn span_start(&self, span: Span) -> LineCol {
        self.line_col(span.lo)
    }

    /// The 1-based line number a span starts on — the unit PARCOACH
    /// reports ("line in the source code of the MPI collective call").
    pub fn line_of(&self, span: Span) -> u32 {
        self.span_start(span).line
    }

    /// The text a span covers, if in bounds.
    pub fn snippet(&self, span: Span) -> Option<&str> {
        self.src.get(span.lo as usize..span.hi as usize)
    }

    /// The complete text of the 1-based line `line`, without the trailing
    /// newline.
    pub fn line_text(&self, line: u32) -> Option<&str> {
        let idx = line.checked_sub(1)? as usize;
        let start = *self.line_starts.get(idx)? as usize;
        let end = self
            .line_starts
            .get(idx + 1)
            .map(|&e| e as usize)
            .unwrap_or(self.src.len());
        let text = self.src.get(start..end)?;
        Some(text.strip_suffix('\n').unwrap_or(text))
    }

    /// Number of lines in the file (a trailing newline does not open a new
    /// line).
    pub fn line_count(&self) -> u32 {
        let n = self.line_starts.len() as u32;
        if self.src.ends_with('\n') && self.src.len() > 1 {
            n - 1
        } else {
            n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merge() {
        let a = Span::new(4, 10);
        let b = Span::new(8, 20);
        assert_eq!(a.to(b), Span::new(4, 20));
        assert_eq!(b.to(a), Span::new(4, 20));
    }

    #[test]
    fn span_merge_dummy_identity() {
        let a = Span::new(4, 10);
        assert_eq!(a.to(Span::DUMMY), a);
        assert_eq!(Span::DUMMY.to(a), a);
        assert_eq!(Span::DUMMY.to(Span::DUMMY), Span::DUMMY);
    }

    #[test]
    fn span_len_and_empty() {
        assert_eq!(Span::new(3, 8).len(), 5);
        assert!(Span::new(3, 3).is_empty());
        assert!(!Span::new(3, 4).is_empty());
    }

    #[test]
    fn line_col_basic() {
        let sm = SourceMap::new("t.mh", "ab\ncde\n\nf");
        assert_eq!(sm.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(sm.line_col(1), LineCol { line: 1, col: 2 });
        assert_eq!(sm.line_col(3), LineCol { line: 2, col: 1 });
        assert_eq!(sm.line_col(5), LineCol { line: 2, col: 3 });
        assert_eq!(sm.line_col(7), LineCol { line: 3, col: 1 });
        assert_eq!(sm.line_col(8), LineCol { line: 4, col: 1 });
    }

    #[test]
    fn line_col_past_end_clamps() {
        let sm = SourceMap::new("t.mh", "ab");
        assert_eq!(sm.line_col(100), LineCol { line: 1, col: 3 });
    }

    #[test]
    fn line_text() {
        let sm = SourceMap::new("t.mh", "first\nsecond\nthird");
        assert_eq!(sm.line_text(1), Some("first"));
        assert_eq!(sm.line_text(2), Some("second"));
        assert_eq!(sm.line_text(3), Some("third"));
        assert_eq!(sm.line_text(4), None);
        assert_eq!(sm.line_text(0), None);
    }

    #[test]
    fn snippet() {
        let sm = SourceMap::new("t.mh", "let x = 1;");
        assert_eq!(sm.snippet(Span::new(4, 5)), Some("x"));
        assert_eq!(sm.snippet(Span::new(4, 999)), None);
    }

    #[test]
    fn line_count() {
        assert_eq!(SourceMap::new("t", "a\nb\nc").line_count(), 3);
        assert_eq!(SourceMap::new("t", "a\nb\n").line_count(), 2);
        assert_eq!(SourceMap::new("t", "").line_count(), 1);
    }
}
