//! Reference outputs under `benchmark/expected/`: loaders for the runs,
//! writers for `bless`.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The benchmark's own directory (where `Cargo.toml` sits).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn expected_path(rel: &str) -> PathBuf {
    bench_dir().join("expected").join(rel)
}

/// Read `expected/<rel>`.
pub fn load(rel: &str) -> Result<String, String> {
    let p = expected_path(rel);
    std::fs::read_to_string(&p)
        .map_err(|e| format!("reference {}: {e} (run `bless` to create it)", p.display()))
}

/// Write `expected/<rel>`, creating directories.
pub fn store(rel: &str, text: &str) -> Result<(), String> {
    let p = expected_path(rel);
    if let Some(dir) = p.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&p, text).map_err(|e| format!("{}: {e}", p.display()))
}

/// Expected verdict of one scenario module: polarity name and class keys.
pub type DetectRef = (String, Vec<String>);

/// `expected/detect_stream.tsv`: `index<TAB>polarity<TAB>key[,key…]`, one
/// line per scenario module of the seed-42 corpus, keyed by the module's
/// index in the seed stream (so any subset — the smoke corpus — checks
/// against the same file).
pub fn parse_detect_tsv(text: &str) -> Result<BTreeMap<u64, DetectRef>, String> {
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("detect_stream.tsv line {}: `{line}`", n + 1);
        let mut cols = line.split('\t');
        let (Some(idx), Some(pol), Some(keys), None) =
            (cols.next(), cols.next(), cols.next(), cols.next())
        else {
            return Err(bad());
        };
        let idx: u64 = idx.parse().map_err(|_| bad())?;
        let keys = keys.split(',').map(str::to_string).collect();
        if out.insert(idx, (pol.to_string(), keys)).is_some() {
            return Err(format!("detect_stream.tsv: duplicate index {idx}"));
        }
    }
    Ok(out)
}

pub fn render_detect_tsv(rows: &BTreeMap<u64, DetectRef>) -> String {
    let mut out = String::from(
        "# scenario modules of the seed-42 detect_stream corpus: stream index, polarity, class keys\n",
    );
    for (idx, (pol, keys)) in rows {
        out.push_str(&format!("{idx}\t{pol}\t{}\n", keys.join(",")));
    }
    out
}

/// The disagreement classes a campaign may surface, from the repo's
/// hand-maintained `FUZZ_expected.txt` (comments and blank lines skipped).
pub fn known_disagreement_classes() -> Vec<&'static str> {
    include_str!("../../FUZZ_expected.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_tsv_round_trips() {
        let mut rows = BTreeMap::new();
        rows.insert(
            3,
            ("agreed-clean".to_string(), vec!["agreed-clean".to_string()]),
        );
        rows.insert(
            17,
            (
                "static-only".to_string(),
                vec!["static-only:a".to_string(), "static-only:b".to_string()],
            ),
        );
        let text = render_detect_tsv(&rows);
        assert_eq!(parse_detect_tsv(&text).unwrap(), rows);
    }

    #[test]
    fn detect_tsv_rejects_bad_lines() {
        assert!(parse_detect_tsv("x\tagreed-clean\tagreed-clean\n").is_err());
        assert!(parse_detect_tsv("1\tagreed-clean\n").is_err());
        assert!(parse_detect_tsv("1\ta\tb\tc\n").is_err());
        assert!(parse_detect_tsv("1\ta\tb\n1\ta\tb\n").is_err());
        assert!(parse_detect_tsv("# only a comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn known_classes_are_the_pinned_three() {
        let k = known_disagreement_classes();
        assert!(k.contains(&"static-only:collective-mismatch"));
        assert!(k
            .iter()
            .all(|c| c.starts_with("static-only:") || c.starts_with("dynamic-only:")));
    }

    #[test]
    fn checked_in_references_load() {
        for rel in [
            "cold_check/hera_b.txt",
            "cold_check/hera_c.txt",
            "sim_run/epcc_a.out",
            "detect_stream.tsv",
        ] {
            assert!(!load(rel).unwrap().is_empty(), "{rel}");
        }
        assert!(load("nope.txt").unwrap_err().contains("bless"));
        assert!(!parse_detect_tsv(&load("detect_stream.tsv").unwrap())
            .unwrap()
            .is_empty());
    }
}
