//! Properties of the source → IR path's data shapes, over the error
//! catalogue, the Figure-1 suite and seeded `Scenario` modules:
//!
//! * tokens are `Copy`, carry no text, lie in order without overlap, and
//!   the source slice under each one re-lexes to that one token;
//! * parsing a text at a base offset equals, span for span, parsing it
//!   behind that many blanks (the padding survives only here);
//! * lowering — which resolves every variable through the shared
//!   `ScopeStack` — produces exactly the IR it produced before the scope
//!   stack replaced the per-block hash maps (pinned fingerprint).

use parcoach::front::lexer::{lex, lex_at};
use parcoach::front::parser::{parse_functions_at, parse_program};
use parcoach::front::token::TokenKind;
use parcoach::front::{parse_and_check, Diagnostics, Interner, Program};
use parcoach::ir::lower::lower_program;
use parcoach::workloads::{error_catalogue, figure1_suite, WorkloadClass};
use parcoach_testutil::Scenario;

/// Catalogue cases, the class-A Figure-1 programs and 64 seeded
/// scenario modules.
fn corpus() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = error_catalogue()
        .into_iter()
        .map(|c| (format!("catalogue/{}", c.id), c.source))
        .collect();
    out.extend(
        figure1_suite(WorkloadClass::A)
            .into_iter()
            .map(|w| (format!("figure1/{}", w.name), w.source)),
    );
    out.extend((0..64).map(|seed| {
        (
            format!("scenario/{seed}"),
            Scenario::generate(seed).render(),
        )
    }));
    out
}

#[test]
fn tokens_are_ordered_disjoint_and_relex_to_themselves() {
    for (name, src) in corpus() {
        let mut diags = Diagnostics::new();
        let tokens = lex(&src, &mut diags);
        assert!(!diags.has_errors(), "{name}: lex errors");
        let (eof, body) = tokens.split_last().expect("at least Eof");
        assert_eq!(eof.kind, TokenKind::Eof, "{name}");
        assert_eq!(eof.span.lo as usize, src.len(), "{name}");

        let mut end = 0;
        for t in body {
            assert!(
                end <= t.span.lo && t.span.lo < t.span.hi,
                "{name}: token {t:?} overlaps or precedes offset {end}"
            );
            end = t.span.hi;

            let text = &src[t.span.lo as usize..t.span.hi as usize];
            let mut d = Diagnostics::new();
            let again = lex_at(text, t.span.lo, &mut d);
            assert!(!d.has_errors(), "{name}: `{text}` re-lexes with errors");
            assert_eq!(again.len(), 2, "{name}: `{text}` is not one token");
            assert_eq!(again[0], *t, "{name}: `{text}`");
        }
    }
}

#[test]
fn parse_at_base_equals_parse_of_padded_text() {
    for (name, src) in corpus() {
        let (whole, diags) = parse_program(&src);
        assert!(!diags.has_errors(), "{name}");
        // Each function on its own, at its offset in the file: the shape
        // of the daemon's single-function reparse.
        for f in &whole.functions {
            let (lo, hi) = (f.span.lo as usize, f.span.hi as usize);
            let text = &src[lo..hi];
            let fname = whole.name(f.name);
            let (at, d_at) = parse_at(text, f.span.lo);
            let (padded, d_padded) = parse_program(&format!("{}{text}", " ".repeat(lo)));
            assert_eq!(at, padded, "{name}: `{fname}`");
            assert_eq!(d_at, d_padded, "{name}: `{fname}`");
            // Into the file's own interner — the daemon's reparse — it
            // is the function parsed in place, symbol for symbol, and
            // nothing new is interned.
            let mut interner = whole.interner.clone();
            let (again, _) = parse_functions_at(text, f.span.lo, &mut interner);
            assert_eq!(again, std::slice::from_ref(f), "{name}: `{fname}`");
            assert_eq!(interner, whole.interner, "{name}: `{fname}`");
        }
    }
}

/// `text` parsed at offset `base`, as a unit of its own.
fn parse_at(text: &str, base: u32) -> (Program, Diagnostics) {
    let mut interner = Interner::new();
    let (functions, diags) = parse_functions_at(text, base, &mut interner);
    (
        Program {
            functions,
            interner,
        },
        diags,
    )
}

#[test]
fn parse_at_base_reports_errors_at_absolute_offsets() {
    let text = "fn f() { let = 1; $ \u{e9} }";
    for base in [0u32, 1, 17, 4096] {
        let (at, d_at) = parse_at(text, base);
        let (padded, d_padded) = parse_program(&format!("{}{text}", " ".repeat(base as usize)));
        assert!(d_at.has_errors());
        assert_eq!(at, padded, "base {base}");
        assert_eq!(d_at, d_padded, "base {base}");
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The IR of the whole corpus, as `{:?}` text, is what it was when
/// scopes were `Vec<HashMap<String, Reg>>`: the fingerprint below was
/// computed by this very test on the commit before the `ScopeStack`.
/// A change that alters lowering on purpose re-pins it (the assertion
/// message prints the new value).
#[test]
fn lowering_is_unchanged_by_the_scope_stack() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut funcs = 0usize;
    for (name, src) in corpus() {
        let unit = parse_and_check(&name, &src)
            .unwrap_or_else(|(d, sm)| panic!("{name}: {}", d.render(&sm)));
        let module = lower_program(&unit.program, &unit.signatures);
        // `funcs`, not the module: `by_name` is a HashMap whose Debug
        // order is not part of the contract.
        funcs += module.funcs.len();
        fnv1a(&mut h, format!("{:?}", module.funcs).as_bytes());
    }
    assert_eq!(
        (funcs, h),
        (PINNED_FUNCS, PINNED_IR_FINGERPRINT),
        "lowered IR of the corpus changed"
    );
}

const PINNED_FUNCS: usize = 296;
const PINNED_IR_FINGERPRINT: u64 = 8_751_241_818_294_758_878;
