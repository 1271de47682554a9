//! A resident compilation unit: source text, the parsed, checked and
//! lowered artifacts, and the analysis memo table derived from them —
//! kept consistent across per-function edits.
//!
//! The daemon's latency story lives here. `open` pays the full
//! front-end once; [`Document::edit`] then tries the **incremental
//! path**: reparse *only* the replacement function (lexed at its byte
//! offset in the file, so its spans are absolute, and interned into the
//! document's own interner, so its symbols are the document's),
//! sema-check it against the existing signature table, re-lower it in isolation, splice the
//! text and its line index in place ([`SourceMap::splice`]), and rebase
//! the spans of every function after the splice point in the resident
//! AST and IR by the byte delta. The document is the only thing that
//! ever edits the module, so it also owns the module's
//! [`QueryDb`]: `edit` marks the replaced function dirty itself, and a
//! following [`Document::check`] re-derives that one function's facts
//! and reuses the rest. The table stores no source positions, so moved
//! code needs no further bookkeeping.
//!
//! The incremental path declines (falling back to a full reopen of the
//! spliced text, with an emptied table) when the edit is not a drop-in
//! replacement: the new text is not exactly one function, keeps a
//! different name, or changes the signature — any of which can change
//! how *callers* lower, not just the edited body.

use parcoach_core::{AnalysisSession, CancelToken, Cancelled, QueryDb, QueryStats, StaticReport};
use parcoach_front::{parser, sema, Function, Program, SourceMap, Span};
use parcoach_ir::lower::{lower_function, lower_program};
use parcoach_ir::Module;
use std::sync::Arc;

/// Why an `open`/`edit` was rejected. The document is left exactly as
/// it was — a failed edit never corrupts the resident state.
#[derive(Debug)]
pub enum DocError {
    /// The target function does not exist in the document.
    UnknownFunction(String),
    /// The (spliced) text does not compile; `rendered` is the full
    /// diagnostic text, ready for the wire.
    Compile { rendered: String },
}

/// What an `edit` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditOutcome {
    /// Whether the single-function incremental path applied (`false`
    /// means the document was reopened from the spliced text and its
    /// memo table emptied).
    pub incremental: bool,
    /// Signed byte growth of the document.
    pub delta: i64,
}

/// A resident source file and its derived artifacts.
#[derive(Debug)]
pub struct Document {
    uri: String,
    /// The AST and the interner every symbol of the document — the
    /// AST's and `signatures`' keys — belongs to. It only grows: an edit
    /// adds the names it introduces, a fallback reopen starts it over.
    program: Program,
    signatures: sema::Signatures,
    /// Owns the one resident copy of the source text.
    source_map: SourceMap,
    module: Module,
    /// What the last checks derived from `module`.
    db: QueryDb,
}

impl Document {
    /// Compile `text` from scratch. This is the cold path `parcoachc
    /// check` pays once per invocation and the daemon pays once per
    /// `open`.
    pub fn open(uri: &str, text: &str) -> Result<Document, DocError> {
        let (program, signatures, source_map, module) = compile(uri, text)?;
        Ok(Document {
            uri: uri.to_string(),
            program,
            signatures,
            source_map,
            module,
            db: QueryDb::new(),
        })
    }

    pub fn uri(&self) -> &str {
        &self.uri
    }

    pub fn text(&self) -> &str {
        self.source_map.source()
    }

    /// Function names in definition order.
    pub fn functions(&self) -> Vec<String> {
        self.program
            .functions
            .iter()
            .map(|f| self.program.name(f.name).to_string())
            .collect()
    }

    pub fn module(&self) -> &Module {
        &self.module
    }

    pub fn source_map(&self) -> &SourceMap {
        &self.source_map
    }

    /// Analyze the resident module over the document's own memo table:
    /// only what the edits since the last check changed is re-derived,
    /// and the report is byte-identical to a one-shot check of the
    /// current text.
    pub fn check(
        &mut self,
        session: &mut AnalysisSession,
        token: Option<&CancelToken>,
    ) -> Result<StaticReport, Cancelled> {
        session.check_module_in(&self.module, &mut self.db, token)
    }

    /// Hit/miss counters of the document's memo table.
    pub fn query_stats(&self) -> QueryStats {
        self.db.stats()
    }

    /// Replace the definition of `func` with `new_text` (which must
    /// contain the full replacement definition, `fn` keyword included).
    pub fn edit(&mut self, func: &str, new_text: &str) -> Result<EditOutcome, DocError> {
        let idx = self
            .program
            .interner
            .get(func)
            .and_then(|sym| {
                let functions = &self.program.functions;
                functions.iter().position(|f| f.name.sym == sym)
            })
            .ok_or_else(|| DocError::UnknownFunction(func.to_string()))?;
        let old_span = self.program.functions[idx].span;
        let (lo, hi) = (old_span.lo as usize, old_span.hi as usize);
        let delta = new_text.len() as i64 - (hi - lo) as i64;

        if let Some((new_fn, new_ir)) = self.try_incremental(idx, old_span.lo, new_text) {
            self.source_map.splice(lo, hi, new_text);
            self.program.functions[idx] = new_fn;
            for later in &mut self.program.functions[idx + 1..] {
                shift_ast_function(later, delta);
            }
            self.db.mark_dirty(idx, &self.module.funcs[idx]);
            self.module.funcs[idx] = Arc::new(new_ir);
            for later in &mut self.module.funcs[idx + 1..] {
                // Never a copy unless a clone of the module (an
                // instrumented one, say) is alive, and then it must be.
                parcoach_ir::shift_spans(Arc::make_mut(later), delta);
            }
            return Ok(EditOutcome {
                incremental: true,
                delta,
            });
        }

        // Fallback: whole-document recompile. Anything may have changed
        // shape, so the memo table starts over (a failed compile leaves
        // the document untouched).
        let text = self.text();
        let spliced = [&text[..lo], new_text, &text[hi..]].concat();
        let (program, signatures, source_map, module) = compile(&self.uri, &spliced)?;
        self.program = program;
        self.signatures = signatures;
        self.source_map = source_map;
        self.module = module;
        self.db.clear();
        Ok(EditOutcome {
            incremental: false,
            delta,
        })
    }

    /// The single-function path: parse `new_text` alone (at its
    /// absolute offset, into the document's interner), and accept it
    /// only if it is a drop-in replacement for function `idx` — same
    /// name, same signature, sema-clean against the existing signature
    /// table. A declined text leaves at most its new names behind in the
    /// interner, which nothing refers to.
    fn try_incremental(
        &mut self,
        idx: usize,
        offset: u32,
        new_text: &str,
    ) -> Option<(Function, parcoach_ir::FuncIr)> {
        let interner = &mut self.program.interner;
        let (functions, diags) = parser::parse_functions_at(new_text, offset, interner);
        if diags.has_errors() || functions.len() != 1 {
            return None;
        }
        let new_fn = functions.into_iter().next().unwrap();
        let name = self.program.functions[idx].name.sym;
        if new_fn.name.sym != name {
            return None;
        }
        let old_sig = self.signatures.get(name).expect("resident function");
        if sema::signature_of(&new_fn) != *old_sig {
            return None;
        }
        let mut diags = parcoach_front::Diagnostics::new();
        let interner = &self.program.interner;
        sema::check_function(&new_fn, interner, &self.signatures, &mut diags);
        if diags.has_errors() {
            return None;
        }
        let new_ir = lower_function(&new_fn, interner, &self.signatures);
        debug_assert_eq!(self.module.funcs[idx].name, new_ir.name);
        Some((new_fn, new_ir))
    }
}

/// Full front-end: parse, sema, lower, verify.
fn compile(
    uri: &str,
    text: &str,
) -> Result<(Program, sema::Signatures, SourceMap, Module), DocError> {
    let unit =
        parcoach_front::parse_and_check(uri, text).map_err(|(diags, sm)| DocError::Compile {
            rendered: diags.render(&sm),
        })?;
    let module = lower_program(&unit.program, &unit.signatures);
    let errs = parcoach_ir::verify_module(&module);
    if !errs.is_empty() {
        return Err(DocError::Compile {
            rendered: format!("internal IR verification failure: {errs:?}"),
        });
    }
    Ok((unit.program, unit.signatures, unit.source_map, module))
}

/// Rebase the one AST span a later fast-path edit reads: the span of
/// the whole definition (used to locate the splice). Inner AST spans of
/// untouched functions are never consumed again — a future incremental
/// edit reparses from text, and a fallback reopen rebuilds the AST.
fn shift_ast_function(f: &mut Function, delta: i64) {
    if f.span == Span::DUMMY {
        return;
    }
    let lo = (f.span.lo as i64 + delta).max(0) as u32;
    let hi = (f.span.hi as i64 + delta).max(0) as u32;
    f.span = Span::new(lo, hi);
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "\
fn helper() {
    MPI_Barrier();
}
fn main() {
    MPI_Init();
    helper();
    if (rank() == 0) { MPI_Barrier(); }
    MPI_Finalize();
}
";

    fn session() -> AnalysisSession {
        AnalysisSession::builder()
            .jobs(1)
            .deterministic(true)
            .seed(1)
            .build()
    }

    #[test]
    fn open_lists_functions_in_order() {
        let doc = Document::open("t.mh", SRC).unwrap();
        assert_eq!(doc.functions(), ["helper", "main"]);
    }

    #[test]
    fn open_rejects_bad_source() {
        match Document::open("t.mh", "fn main( {").unwrap_err() {
            DocError::Compile { rendered } => assert!(!rendered.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn incremental_edit_matches_full_recompile() {
        let mut s = session();
        let mut doc = Document::open("t.mh", SRC).unwrap();
        let _ = doc.check(&mut s, None);

        let replacement = "fn helper() {\n    MPI_Barrier();\n    MPI_Barrier();\n}";
        let out = doc.edit("helper", replacement).unwrap();
        assert!(out.incremental);
        assert!(out.delta > 0);

        // The edited document equals a from-scratch compile of its text,
        // module spans included (the shift rebased `main`). Compare the
        // function vector, not the whole module: `by_name` is a HashMap
        // whose Debug order is not part of the contract.
        let fresh = Document::open("t.mh", doc.text()).unwrap();
        assert_eq!(
            format!("{:?}", doc.module().funcs),
            format!("{:?}", fresh.module().funcs)
        );
        assert_eq!(doc.module().by_name, fresh.module().by_name);

        // And a warm check is byte-identical to a cold one.
        let warm = format!("{:?}", doc.check(&mut s, None).unwrap());
        let cold = format!("{:?}", session().check_module(fresh.module()));
        assert_eq!(warm, cold);
    }

    /// A structural no-op as the *first* edit of a function: the table
    /// has never keyed `helper`, so the key it greens against is the one
    /// `edit` takes from the IR it is about to replace.
    #[test]
    fn structural_noop_as_first_edit_greens() {
        let mut s = session();
        let mut doc = Document::open("t.mh", SRC).unwrap();
        let _ = doc.check(&mut s, None);
        let before = doc.query_stats();

        let out = doc
            .edit("helper", "fn helper() {\n\n        MPI_Barrier();\n}")
            .unwrap();
        assert!(out.incremental);
        let warm = format!("{:?}", doc.check(&mut s, None).unwrap());
        let after = doc.query_stats();
        assert_eq!(after.greened, before.greened + 1);
        assert_eq!(after.invalidated, before.invalidated);
        assert_eq!(after.pw_misses, before.pw_misses, "nothing recomputed");

        let fresh = Document::open("t.mh", doc.text()).unwrap();
        assert_eq!(
            warm,
            format!("{:?}", session().check_module(fresh.module()))
        );
    }

    #[test]
    fn signature_change_falls_back_to_reopen() {
        let mut s = session();
        let mut doc = Document::open("t.mh", SRC).unwrap();
        let _ = doc.check(&mut s, None);
        // helper() -> helper(x: int) changes the signature, but the call
        // site `helper();` would no longer compile — so change both via
        // an edit of `main`... which *renames* nothing but the helper
        // edit alone must decline the incremental path and then fail to
        // compile the spliced text. The document must stay untouched.
        let before = doc.text().to_string();
        let bad = doc.edit("helper", "fn helper(x: int) {\n    MPI_Barrier();\n}\n");
        assert!(matches!(bad, Err(DocError::Compile { .. })));
        assert_eq!(doc.text(), before);

        // A body edit of `main` that adds a second function is also not
        // a drop-in replacement: full reopen, still correct.
        let out = doc
            .edit(
                "main",
                "fn extra() { MPI_Barrier(); }\nfn main() {\n    MPI_Init();\n    helper();\n    extra();\n    MPI_Finalize();\n}",
            )
            .unwrap();
        assert!(!out.incremental);
        assert_eq!(doc.functions(), ["helper", "extra", "main"]);
        let fresh = Document::open("t.mh", doc.text()).unwrap();
        assert_eq!(
            format!("{:?}", doc.check(&mut s, None).unwrap()),
            format!("{:?}", session().check_module(fresh.module()))
        );
    }

    /// The module shares its functions with its clones, so an edit
    /// made while an instrumented copy is alive must copy what it
    /// rebases instead of moving spans under the copy's feet.
    #[test]
    fn edit_leaves_a_live_instrumented_copy_unchanged() {
        use parcoach_core::{instrument_module, InstrumentMode};
        let mut s = session();
        let mut doc = Document::open("t.mh", SRC).unwrap();
        let report = doc.check(&mut s, None).unwrap();
        let (instrumented, stats) =
            instrument_module(doc.module(), &report, InstrumentMode::Selective);
        assert!(stats.total() > 0);
        let before = format!("{:?}", instrumented.funcs);

        // `helper` grows, so `main` — instrumented, hence a copy — and
        // nothing else would do: shift a shared function too.
        let padded = "fn helper() {\n\n\n    MPI_Barrier();\n}";
        assert!(doc.edit("helper", padded).unwrap().incremental);
        assert!(
            doc.edit(
                "main",
                "fn main() {\n    MPI_Init();\n    helper();\n    MPI_Finalize();\n}"
            )
            .unwrap()
            .incremental
        );
        assert_eq!(format!("{:?}", instrumented.funcs), before);

        let fresh = Document::open("t.mh", doc.text()).unwrap();
        assert_eq!(
            format!("{:?}", doc.module().funcs),
            format!("{:?}", fresh.module().funcs)
        );
    }

    /// An edit interns into the document's interner, which only ever
    /// gains the names an edit introduces: alternating between two
    /// bodies a thousand times leaves it at its size after the first
    /// round.
    #[test]
    fn edit_stream_does_not_grow_the_interner() {
        let mut doc = Document::open("t.mh", SRC).unwrap();
        let opened = doc.program.interner.len();
        let bodies = [
            "fn helper() {\n    let fresh_name = 1;\n    MPI_Barrier();\n}",
            "fn helper() {\n    MPI_Barrier();\n}",
        ];
        for i in 0..1000 {
            assert!(doc.edit("helper", bodies[i % 2]).unwrap().incremental);
        }
        assert_eq!(doc.program.interner.len(), opened + 1, "`fresh_name` only");
        let fresh = Document::open("t.mh", doc.text()).unwrap();
        assert_eq!(
            format!("{:?}", doc.module().funcs),
            format!("{:?}", fresh.module().funcs)
        );
        // A fallback reopen starts the interner over.
        let out = doc
            .edit("helper", "fn helper(x: int) { }\nfn main() { helper(1); }")
            .unwrap_err();
        assert!(matches!(out, DocError::Compile { .. }), "duplicate main");
        let out = doc.edit("main", "fn other() { }\nfn main() { }").unwrap();
        assert!(!out.incremental);
        assert_eq!(
            doc.program.interner,
            Document::open("t.mh", doc.text()).unwrap().program.interner
        );
    }

    #[test]
    fn unknown_function_is_rejected() {
        let mut doc = Document::open("t.mh", SRC).unwrap();
        assert!(matches!(
            doc.edit("nope", "fn nope() {}"),
            Err(DocError::UnknownFunction(_))
        ));
    }
}
