//! Diagnostics: errors and warnings with source locations.
//!
//! Both the frontend (lex/parse/sema errors) and the static analysis
//! (PARCOACH warnings) funnel their findings through [`Diagnostic`] so the
//! driver can render them uniformly.

use crate::span::{SourceMap, Span};
use std::fmt;

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note attached to another diagnostic.
    Note,
    /// The program is suspicious but compilation continues (PARCOACH
    /// potential-error warnings fall here).
    Warning,
    /// The program is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A single diagnostic message.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable code, e.g. `parse-error`, `type-mismatch`.
    pub code: String,
    /// Human-readable message.
    pub message: String,
    /// Primary source location.
    pub span: Span,
    /// Secondary locations with labels (e.g. "conditional here").
    pub notes: Vec<(Span, String)>,
}

impl Diagnostic {
    /// Build an error diagnostic.
    pub fn error(code: impl Into<String>, message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code: code.into(),
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Build a warning diagnostic.
    pub fn warning(code: impl Into<String>, message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            code: code.into(),
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Attach a labelled secondary location.
    pub fn with_note(mut self, span: Span, label: impl Into<String>) -> Self {
        self.notes.push((span, label.into()));
        self
    }

    /// Render the diagnostic against a source map, GCC-style:
    /// `file:line:col: severity: message [code]`.
    pub fn render(&self, sm: &SourceMap) -> String {
        let mut out = String::new();
        self.render_into(sm, &mut out);
        out
    }

    /// [`Diagnostic::render`], appended to `out`.
    pub fn render_into(&self, sm: &SourceMap, out: &mut String) {
        let notes = self
            .notes
            .iter()
            .map(|(span, label)| (*span, label.as_str()));
        render_parts(
            out,
            sm,
            self.severity,
            &self.message,
            &self.code,
            self.span,
            notes,
        );
    }
}

/// Append one rendered diagnostic to `out` from its parts — for a caller
/// whose findings are not [`Diagnostic`]s but render as one (the static
/// report), so it need not build one per finding.
pub fn render_parts<'a>(
    out: &mut String,
    sm: &SourceMap,
    severity: Severity,
    message: impl fmt::Display,
    code: &str,
    span: Span,
    notes: impl Iterator<Item = (Span, &'a str)>,
) {
    use fmt::Write as _;
    let lc = sm.span_start(span);
    // Writing to a `String` cannot fail.
    let _ = write!(out, "{}:{lc}: {severity}: {message} [{code}]", sm.name());
    if let Some(text) = sm.line_text(lc.line) {
        out.push_str("\n    ");
        out.push_str(text.trim_end());
    }
    for (span, label) in notes {
        let _ = write!(
            out,
            "\n  {}:{}: note: {label}",
            sm.name(),
            sm.span_start(span)
        );
    }
}

/// An ordered collection of diagnostics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// Append a ready-made error.
    pub fn error(&mut self, code: impl Into<String>, message: impl Into<String>, span: Span) {
        self.push(Diagnostic::error(code, message, span));
    }

    /// Append a ready-made warning.
    pub fn warning(&mut self, code: impl Into<String>, message: impl Into<String>, span: Span) {
        self.push(Diagnostic::warning(code, message, span));
    }

    /// All diagnostics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True if any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// Count of diagnostics at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.items.iter().filter(|d| d.severity == sev).count()
    }

    /// Merge another collection into this one.
    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// Render all diagnostics, one block per item.
    pub fn render(&self, sm: &SourceMap) -> String {
        let mut out = String::new();
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            d.render_into(sm, &mut out);
        }
        out
    }

    /// Consume into the underlying vector.
    pub fn into_vec(self) -> Vec<Diagnostic> {
        self.items
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl From<Vec<Diagnostic>> for Diagnostics {
    fn from(items: Vec<Diagnostic>) -> Self {
        Diagnostics { items }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn has_errors_and_counts() {
        let mut ds = Diagnostics::new();
        assert!(!ds.has_errors());
        ds.warning("w1", "be careful", Span::new(0, 1));
        assert!(!ds.has_errors());
        ds.error("e1", "boom", Span::new(0, 1));
        assert!(ds.has_errors());
        assert_eq!(ds.count(Severity::Warning), 1);
        assert_eq!(ds.count(Severity::Error), 1);
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn render_includes_position_and_code() {
        let sm = SourceMap::new("demo.mh", "let x = ;\n");
        let d = Diagnostic::error("parse-error", "expected expression", Span::new(8, 9));
        let s = d.render(&sm);
        assert!(s.contains("demo.mh:1:9"), "{s}");
        assert!(s.contains("error: expected expression"), "{s}");
        assert!(s.contains("[parse-error]"), "{s}");
        assert!(s.contains("let x = ;"), "{s}");
    }

    #[test]
    fn render_notes() {
        let sm = SourceMap::new("demo.mh", "a\nb\n");
        let d = Diagnostic::warning("w", "primary", Span::new(0, 1))
            .with_note(Span::new(2, 3), "secondary here");
        let s = d.render(&sm);
        assert!(s.contains("demo.mh:2:1: note: secondary here"), "{s}");
    }

    #[test]
    fn extend_merges() {
        let mut a = Diagnostics::new();
        a.warning("w", "one", Span::DUMMY);
        let mut b = Diagnostics::new();
        b.error("e", "two", Span::DUMMY);
        a.extend(b);
        assert_eq!(a.len(), 2);
        assert!(a.has_errors());
    }
}
