//! The line index a whole-file compile takes from the lexer
//! (`parse_and_check`'s `SourceMap`) equals the one `SourceMap::new`
//! builds by scanning the text itself: over every catalogue case, every
//! Figure-1 workload at every class, and seeded mutations of them that
//! move, hide or add newlines — CRLF line ends, an unterminated `/*`,
//! non-ASCII text, no trailing newline, empty input.

use parcoach::front::{parse_and_check, SourceMap};
use parcoach::workloads::{error_catalogue, figure1_suite, WorkloadClass};
use parcoach_testutil::{case_budget, Rng};

/// Base number of mutated sources; `PARCOACH_PROP_BUDGET` scales it.
const CASES: u64 = 256;

fn sources() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = error_catalogue()
        .into_iter()
        .map(|c| (format!("catalogue/{}", c.id), c.source))
        .collect();
    for class in [WorkloadClass::A, WorkloadClass::B, WorkloadClass::C] {
        out.extend(
            figure1_suite(class)
                .into_iter()
                .map(|w| (format!("figure1/{}/{class:?}", w.name), w.source)),
        );
    }
    out
}

/// The map `parse_and_check` returns, whether the text compiles or not.
fn lexer_map(name: &str, src: &str) -> SourceMap {
    match parse_and_check(name, src) {
        Ok(unit) => unit.source_map,
        Err((_, source_map)) => source_map,
    }
}

fn assert_maps_agree(name: &str, src: &str) {
    let (lexed, scanned) = (lexer_map(name, src), SourceMap::new(name, src));
    assert_eq!(lexed, scanned, "{name}: {src:?}");
    assert_eq!(lexed.line_count(), scanned.line_count(), "{name}");
}

/// A character boundary of `src`, at random.
fn boundary(rng: &mut Rng, src: &str) -> usize {
    let mut at = rng.below(src.len() + 1);
    while !src.is_char_boundary(at) {
        at -= 1;
    }
    at
}

#[test]
fn lexer_line_index_equals_the_scanning_one() {
    for (name, src) in sources() {
        assert_maps_agree(&name, &src);
    }
    for (name, src) in [
        ("empty", ""),
        ("one newline", "\n"),
        ("two newlines", "\n\n"),
        ("crlf only", "\r\n"),
        ("no newline", "fn main() { }"),
        ("comment at end", "fn main() { } // done"),
        ("open comment", "fn main() { } /* never\nclosed\n"),
        ("newline in comment", "/*\n*/\nfn main() {\n}\n"),
        ("non-ascii", "fn main() { \u{e9}\n\u{1F600} }\n\u{2028}\n"),
    ] {
        assert_maps_agree(name, src);
    }
}

#[test]
fn lexer_line_index_survives_seeded_mutations() {
    let sources = sources();
    for seed in 0..case_budget(CASES) {
        let mut rng = Rng::new(seed);
        let (name, src) = rng.pick(&sources);
        let mutated = match rng.below(5) {
            // CRLF line ends, everywhere or on every other line.
            0 => {
                let every = rng.bool();
                let mut out = String::with_capacity(src.len() * 2);
                for (i, line) in src.split('\n').enumerate() {
                    if i > 0 {
                        out.push_str(if every || i % 2 == 0 { "\r\n" } else { "\n" });
                    }
                    out.push_str(line);
                }
                out
            }
            // An unterminated block comment swallows the rest.
            1 => {
                let at = boundary(&mut rng, src);
                format!("{}/*{}", &src[..at], &src[at..])
            }
            // Non-ASCII characters, some next to newlines.
            2 => {
                let mut out = src.clone();
                for _ in 0..1 + rng.below(8) {
                    let at = boundary(&mut rng, &out);
                    let c = *rng.pick(&['\u{e9}', '\u{df}', '\u{4e2d}', '\u{1F600}', '\u{2028}']);
                    let text = if rng.bool() {
                        format!("{c}\n")
                    } else {
                        c.to_string()
                    };
                    out.insert_str(at, &text);
                }
                out
            }
            // No trailing newline, or a prefix cut anywhere.
            3 => {
                if rng.bool() {
                    src.trim_end().to_string()
                } else {
                    src[..boundary(&mut rng, src)].to_string()
                }
            }
            // Blank lines and line comments spliced in.
            _ => {
                let mut out = src.clone();
                for _ in 0..1 + rng.below(4) {
                    let at = boundary(&mut rng, &out);
                    let text = *rng.pick(&["\n\n\n", "// note\n", "/* a\nb */", "\r\n"]);
                    out.insert_str(at, text);
                }
                out
            }
        };
        assert_maps_agree(&format!("{name} (seed {seed})"), &mutated);
    }
}
