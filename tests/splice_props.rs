//! `SourceMap::splice` against its specification: after any replacement
//! the map answers every question exactly as `SourceMap::new` of the
//! spliced text does.
//!
//! Sources are the error catalogue's programs; each case picks a byte
//! range on character boundaries and a replacement from a seeded
//! `parcoach_testutil::Rng` — newlines added and removed, the first and
//! the last byte, empty replacements, empty ranges, non-ASCII text on
//! either side — and compares `line_count`, `line_text` of every line
//! and `line_col` of every offset against a map built from scratch.
//! Splices chain: the next case edits the result of the previous one,
//! as a resident document's edits do.

use parcoach::front::SourceMap;
use parcoach::workloads::error_catalogue;
use parcoach_testutil::{case_budget, Rng};

const SEED: u64 = 19;
/// Splices per catalogue source at the default budget.
const SPLICES: u64 = 24;

const REPLACEMENTS: [&str; 12] = [
    "",
    "x",
    "\n",
    "\n\n\n",
    "let bench_pad = 1;",
    "    let a = 1;\n    let b = 2;\n",
    "\nleading and trailing\n",
    "no newline at all, just a longer run of replacement text",
    "é",
    "// données: 😀 €\n",
    "€\n€\n€",
    "\r\n\ttabs and a carriage return\r\n",
];

fn assert_same(spliced: &SourceMap, fresh: &SourceMap, what: &str) {
    assert_eq!(spliced.source(), fresh.source(), "{what}");
    assert_eq!(spliced.line_count(), fresh.line_count(), "{what}");
    // One line past the end on both sides: `None` must agree too.
    for line in 0..=fresh.line_count() + 2 {
        assert_eq!(
            spliced.line_text(line),
            fresh.line_text(line),
            "{what}: line {line}"
        );
    }
    // Every offset, the end and one past it (which clamps).
    for offset in 0..=fresh.source().len() as u32 + 1 {
        assert_eq!(
            spliced.line_col(offset),
            fresh.line_col(offset),
            "{what}: offset {offset}"
        );
    }
}

/// A character boundary of `s` at or after a random offset.
fn boundary(rng: &mut Rng, s: &str) -> usize {
    let mut at = rng.range_usize(0, s.len() + 1);
    while !s.is_char_boundary(at) {
        at += 1;
    }
    at
}

#[test]
fn splice_equals_a_map_built_from_the_spliced_text() {
    let mut rng = Rng::new(SEED);
    let splices = case_budget(SPLICES);
    for case in error_catalogue() {
        let mut map = SourceMap::new(case.id, case.source.as_str());
        for step in 0..splices {
            let text = map.source();
            let (lo, hi) = match rng.below(6) {
                // The first byte, the last byte, everything, nothing.
                0 => (0, boundary(&mut rng, text)),
                1 => (boundary(&mut rng, text), text.len()),
                2 => (0, text.len()),
                3 => {
                    let at = boundary(&mut rng, text);
                    (at, at)
                }
                _ => {
                    let (a, b) = (boundary(&mut rng, text), boundary(&mut rng, text));
                    (a.min(b), a.max(b))
                }
            };
            let replacement = *rng.pick(&REPLACEMENTS);
            let expected = [&text[..lo], replacement, &text[hi..]].concat();
            map.splice(lo, hi, replacement);
            let what = format!("{} step {step}: {lo}..{hi} <- {replacement:?}", case.id);
            assert_same(&map, &SourceMap::new(case.id, expected), &what);
        }
    }
}

/// The cases a line index gets wrong at its edges, spelled out.
#[test]
fn splice_edge_cases() {
    let check = |src: &str, lo: usize, hi: usize, text: &str| {
        let mut map = SourceMap::new("t.mh", src);
        map.splice(lo, hi, text);
        let expected = [&src[..lo], text, &src[hi..]].concat();
        let what = format!("{src:?} {lo}..{hi} <- {text:?}");
        assert_same(&map, &SourceMap::new("t.mh", expected), &what);
    };
    check("", 0, 0, "");
    check("", 0, 0, "a\nb\n");
    check("a\nb\n", 0, 4, "");
    check("a\nb\nc", 1, 2, ""); // remove exactly one newline
    check("a\nb\nc", 1, 1, "\n"); // insert one right before another
    check("a\nb\nc", 2, 2, "\n"); // … and right after
    check("a\nb\nc", 0, 1, "\n"); // the first byte becomes a newline
    check("a\nb\nc", 4, 5, "\n"); // the last byte becomes a newline
    check("a\nb\n", 3, 4, ""); // the trailing newline goes
    check("a\nb", 3, 3, "\n"); // … and comes
    check("é\n€\n", 0, 2, "😀\n😀"); // multi-byte on both sides
    check("x\n\n\ny", 1, 4, "\n"); // three newlines collapse to one
}
