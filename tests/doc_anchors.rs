//! Every design-section and experiment number the repository cites
//! resolves. A `DESIGN` or `DESIGN.md` citation (`§n` or `§n.m`, alone or
//! in a list such as `§a, §b` or `§a/§b`) must name a numbered heading of
//! DESIGN.md or a line of its index of old section numbers; an experiment
//! number (`E` and digits, with an optional suffix such as `′` or `c`)
//! must name a row of EXPERIMENTS.md's table. The citations are read from
//! the top-level documents, the CI workflow, the verify skill and every
//! `.rs` file under `crates/` and `tests/`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 6] = [
    "CHANGES.md",
    "ROADMAP.md",
    "README.md",
    "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The files whose citations must resolve, as (name shown, text).
fn cited_in() -> Vec<(String, String)> {
    let root = root();
    let mut paths: Vec<PathBuf> = DOCS.iter().map(|d| root.join(d)).collect();
    rust_files(&root.join("crates"), &mut paths);
    rust_files(&root.join("tests"), &mut paths);
    paths
        .into_iter()
        .map(|p| {
            let text = read(&p);
            let name = p.strip_prefix(&root).unwrap_or(&p).display().to_string();
            (name, text)
        })
        .collect()
}

/// A section number `n` or `n.m` at the start of `s`, and its length.
fn section_number(s: &str) -> Option<(String, usize)> {
    let digits = |s: &str| s.len() - s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    let mut len = digits(s);
    if len == 0 {
        return None;
    }
    if let Some(minor) = s[len..].strip_prefix('.').map(digits).filter(|&m| m > 0) {
        len += 1 + minor;
    }
    Some((s[..len].to_string(), len))
}

/// Skips spaces, line breaks and the markers a comment or list puts
/// between a citation's words.
fn skip_filler(s: &str) -> usize {
    s.len()
        - s.trim_start_matches([' ', '\t', '\n', '\r', '/', '!', '*', '`'])
            .len()
}

/// Every `DESIGN §…` citation in `text`, as (byte offset, section).
fn design_citations(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices("DESIGN") {
        let mut i = at + "DESIGN".len();
        if text[i..].starts_with(".md") {
            i += ".md".len();
        }
        i += skip_filler(&text[i..]);
        while let Some(rest) = text[i..].strip_prefix('§') {
            let Some((number, len)) = section_number(rest) else {
                break;
            };
            out.push((at, number));
            i += '§'.len_utf8() + len;
            let after = &text[i..];
            let sep = [", and ", ", ", " and ", " or ", "/"]
                .into_iter()
                .find(|sep| after.starts_with(sep));
            let Some(sep) = sep else { break };
            i += sep.len();
            i += skip_filler(&text[i..]);
        }
    }
    out
}

/// Every experiment number `E<n>` in `text`, as (byte offset, n).
fn experiment_citations(text: &str) -> Vec<(usize, u32)> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    for (at, _) in text.match_indices('E') {
        if at > 0 && (b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_') {
            continue;
        }
        let digits: String = text[at + 1..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if let Ok(n) = digits.parse() {
            out.push((at, n));
        }
    }
    out
}

fn line_of(text: &str, offset: usize) -> usize {
    text[..offset].matches('\n').count() + 1
}

/// DESIGN.md's numbered headings, and the old numbers its index maps
/// (index lines read `- §old → §new …`).
fn design_anchors(design: &str) -> (BTreeSet<String>, Vec<(String, Vec<String>)>) {
    let mut headings = BTreeSet::new();
    let mut index = Vec::new();
    for line in design.lines() {
        if line.starts_with('#') {
            let title = line.trim_start_matches('#').trim_start();
            if let Some((number, _)) = section_number(title) {
                headings.insert(number);
            }
        } else if let Some(rest) = line.strip_prefix("- §") {
            let Some((old, _)) = section_number(rest) else {
                continue;
            };
            let Some((_, targets)) = rest.split_once('→') else {
                continue;
            };
            let targets = targets
                .split('§')
                .skip(1)
                .filter_map(|t| section_number(t).map(|(n, _)| n))
                .collect();
            index.push((old, targets));
        }
    }
    (headings, index)
}

/// The numbers of EXPERIMENTS.md's table rows (`| E<n> …`).
fn experiment_rows(experiments: &str) -> BTreeSet<u32> {
    experiments
        .lines()
        .filter_map(|l| l.strip_prefix("| E"))
        .filter_map(|l| {
            l.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .ok()
        })
        .collect()
}

#[test]
fn every_index_line_points_at_a_heading() {
    let (headings, index) = design_anchors(&read(&root().join("DESIGN.md")));
    for (old, targets) in &index {
        assert!(
            !targets.is_empty(),
            "DESIGN.md index line for §{old} names no new section"
        );
        for t in targets {
            assert!(
                headings.contains(t),
                "DESIGN.md index maps §{old} to §{t}, which is no heading"
            );
        }
        assert!(
            !headings.contains(old),
            "DESIGN.md index maps §{old}, which is also a heading: a citation of it is ambiguous"
        );
    }
}

#[test]
fn every_cited_design_section_and_experiment_resolves() {
    let root = root();
    let (headings, index) = design_anchors(&read(&root.join("DESIGN.md")));
    let rows = experiment_rows(&read(&root.join("EXPERIMENTS.md")));
    assert!(
        !headings.is_empty() && !rows.is_empty(),
        "no DESIGN headings or EXPERIMENTS rows found"
    );
    let mut dangling = Vec::new();
    let (mut sections, mut experiments) = (0, 0);
    for (name, text) in cited_in() {
        for (at, number) in design_citations(&text) {
            sections += 1;
            if !headings.contains(&number) && !index.iter().any(|(old, _)| *old == number) {
                dangling.push(format!("{name}:{}: DESIGN §{number}", line_of(&text, at)));
            }
        }
        for (at, n) in experiment_citations(&text) {
            experiments += 1;
            if !rows.contains(&n) {
                dangling.push(format!("{name}:{}: E{n}", line_of(&text, at)));
            }
        }
    }
    // The scan must see the citations it is here to check.
    assert!(
        sections > 50 && experiments > 200,
        "{sections} § and {experiments} E citations"
    );
    assert!(
        dangling.is_empty(),
        "citations that resolve to nothing:\n{}",
        dangling.join("\n")
    );
}

#[test]
fn the_scanner_reads_lists_and_comment_breaks() {
    let cites = |t: &str| {
        design_citations(t)
            .into_iter()
            .map(|(_, n)| n)
            .collect::<Vec<_>>()
    };
    let list = format!("{} §3.4, §3.5 and §10 §9", "DESIGN.md");
    assert_eq!(cites(&list), ["3.4", "3.5", "10"]);
    let broken = format!("`{}`\n//! §2/§3.11. Then", "DESIGN");
    assert_eq!(cites(&broken), ["2", "3.11"]);
    let numbers = |t: &str| {
        experiment_citations(t)
            .into_iter()
            .map(|(_, n)| n)
            .collect::<Vec<_>>()
    };
    assert_eq!(numbers("E1′, E5c and (E12); 0xE5, SE3, E, Ex"), [1, 5, 12]);
}
