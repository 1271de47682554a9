//! Campaign summaries: polarity counts, per-class statistics, the
//! precision/recall estimate, a deterministic JSON rendering, and the
//! expected-classes file the replay test and CI gate check against.

use crate::campaign::{CampaignConfig, CampaignResult, ModuleRecord};
use crate::classify::is_disagreement;
use std::collections::{BTreeMap, BTreeSet};

/// Aggregate for one class key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassStat {
    /// Modules contributing this key.
    pub count: u64,
    /// Lowest module index exhibiting it (the canonical exemplar).
    pub example_index: u64,
    /// That module's generator seed.
    pub example_seed: u64,
}

/// Deterministic digest of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Campaign seed.
    pub seed: u64,
    /// Round budget asked for.
    pub rounds_requested: usize,
    /// Rounds actually run (dry-out may stop earlier).
    pub rounds_run: usize,
    /// Modules per round.
    pub modules_per_round: usize,
    /// Whether dry-out (not the budget) ended the campaign.
    pub dried_out: bool,
    /// Modules evaluated.
    pub modules: u64,
    /// Generator-invalid modules (always a bug; gates CI).
    pub invalid: u64,
    /// True negatives: both sides clean.
    pub agreed_clean: u64,
    /// True positives: both sides report.
    pub agreed_error: u64,
    /// False-positive candidates.
    pub static_only: u64,
    /// False-negative candidates.
    pub dynamic_only: u64,
    /// Every class key with its statistics.
    pub classes: BTreeMap<String, ClassStat>,
}

impl Summary {
    /// Fold a campaign result.
    pub fn from_result(cfg: &CampaignConfig, result: &CampaignResult) -> Summary {
        let mut s = Summary {
            seed: cfg.seed,
            rounds_requested: cfg.rounds,
            rounds_run: result.rounds_run,
            modules_per_round: cfg.modules_per_round,
            dried_out: result.dried_out,
            modules: result.records.len() as u64,
            invalid: 0,
            agreed_clean: 0,
            agreed_error: 0,
            static_only: 0,
            dynamic_only: 0,
            classes: BTreeMap::new(),
        };
        for rec in &result.records {
            match rec.polarity.as_str() {
                "agreed-clean" => s.agreed_clean += 1,
                "agreed-error" => s.agreed_error += 1,
                "static-only" => s.static_only += 1,
                "dynamic-only" => s.dynamic_only += 1,
                _ => s.invalid += 1,
            }
            for key in &rec.class_keys {
                s.classes
                    .entry(key.clone())
                    .and_modify(|c| c.count += 1)
                    .or_insert(ClassStat {
                        count: 1,
                        example_index: rec.index,
                        example_seed: rec.seed,
                    });
            }
        }
        s
    }

    /// Static precision estimate over warned modules:
    /// `agreed_error / (agreed_error + static_only)`.
    pub fn precision(&self) -> f64 {
        ratio(self.agreed_error, self.agreed_error + self.static_only)
    }

    /// Static recall estimate over dynamically-failing modules:
    /// `agreed_error / (agreed_error + dynamic_only)`.
    pub fn recall(&self) -> f64 {
        ratio(self.agreed_error, self.agreed_error + self.dynamic_only)
    }

    /// The disagreement class keys, ascending.
    pub fn disagreement_classes(&self) -> Vec<&str> {
        self.classes
            .keys()
            .filter(|k| is_disagreement(k))
            .map(|k| k.as_str())
            .collect()
    }

    /// Disagreement classes present here but absent from `expected`.
    pub fn unexpected_classes(&self, expected: &BTreeSet<String>) -> Vec<&str> {
        self.disagreement_classes()
            .into_iter()
            .filter(|k| !expected.contains(*k))
            .collect()
    }

    /// Deterministic JSON (sorted keys, fixed float formatting) — the
    /// byte-identical replay artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"rounds_requested\": {},\n",
            self.rounds_requested
        ));
        out.push_str(&format!("  \"rounds_run\": {},\n", self.rounds_run));
        out.push_str(&format!(
            "  \"modules_per_round\": {},\n",
            self.modules_per_round
        ));
        out.push_str(&format!("  \"dried_out\": {},\n", self.dried_out));
        out.push_str(&format!("  \"modules\": {},\n", self.modules));
        out.push_str(&format!("  \"invalid\": {},\n", self.invalid));
        out.push_str(&format!("  \"agreed_clean\": {},\n", self.agreed_clean));
        out.push_str(&format!("  \"agreed_error\": {},\n", self.agreed_error));
        out.push_str(&format!("  \"static_only\": {},\n", self.static_only));
        out.push_str(&format!("  \"dynamic_only\": {},\n", self.dynamic_only));
        out.push_str(&format!("  \"precision\": {:.4},\n", self.precision()));
        out.push_str(&format!("  \"recall\": {:.4},\n", self.recall()));
        out.push_str("  \"classes\": {\n");
        let n = self.classes.len();
        for (i, (key, c)) in self.classes.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{\"count\": {}, \"example_index\": {}, \"example_seed\": {}}}{}\n",
                key,
                c.count,
                c.example_index,
                c.example_seed,
                if i + 1 < n { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Human table for the terminal.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "campaign seed {} · {} modules in {}/{} rounds ({}){}\n",
            self.seed,
            self.modules,
            self.rounds_run,
            self.rounds_requested,
            if self.dried_out {
                "dried out"
            } else {
                "budget exhausted"
            },
            if self.invalid > 0 {
                format!(" · {} INVALID", self.invalid)
            } else {
                String::new()
            },
        ));
        out.push_str(&format!(
            "  agreed-clean {:>6}   agreed-error {:>6}   static-only {:>5}   dynamic-only {:>5}\n",
            self.agreed_clean, self.agreed_error, self.static_only, self.dynamic_only
        ));
        out.push_str(&format!(
            "  precision {:.4}   recall {:.4}\n",
            self.precision(),
            self.recall()
        ));
        out.push_str(&format!("  {:<54} {:>7}  exemplar\n", "class", "count"));
        for (key, c) in &self.classes {
            out.push_str(&format!(
                "  {:<54} {:>7}  #{} (seed {})\n",
                key, c.count, c.example_index, c.example_seed
            ));
        }
        out
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Parse an expected-classes file: one class key per line, `#` comments
/// and blank lines ignored.
pub fn parse_expected(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(|l| l.trim())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.to_string())
        .collect()
}

/// Serialize records as tab-separated lines (`--records-out`; one module
/// per line: index, seed, round, polarity, class keys, static codes,
/// dynamic codes, compile diagnostic with tabs and newlines blanked).
pub fn records_to_tsv(records: &[ModuleRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let flat = |v: &[String]| v.join(",");
        let diag = r
            .invalid
            .as_deref()
            .unwrap_or("")
            .replace(['\t', '\n'], " ");
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            r.index,
            r.seed,
            r.round,
            r.polarity,
            flat(&r.class_keys),
            flat(&r.static_codes),
            flat(&r.dyn_codes),
            diag
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(index: u64, polarity: &str, keys: &[&str]) -> ModuleRecord {
        ModuleRecord {
            index,
            seed: index * 10 + 1,
            round: index as usize / 2,
            polarity: polarity.to_string(),
            class_keys: keys.iter().map(|k| k.to_string()).collect(),
            static_codes: Vec::new(),
            dyn_codes: Vec::new(),
            invalid: None,
        }
    }

    fn sample() -> (CampaignConfig, CampaignResult) {
        let cfg = CampaignConfig {
            rounds: 2,
            modules_per_round: 2,
            ..CampaignConfig::default()
        };
        let result = CampaignResult {
            records: vec![
                rec(0, "agreed-clean", &["agreed-clean"]),
                rec(1, "agreed-error", &["agreed-error:collective-mismatch"]),
                rec(2, "static-only", &["static-only:unmatched-p2p"]),
                rec(3, "dynamic-only", &["dynamic-only:deadlock"]),
            ],
            rounds_run: 2,
            dried_out: false,
        };
        (cfg, result)
    }

    #[test]
    fn counts_and_rates() {
        let (cfg, result) = sample();
        let s = Summary::from_result(&cfg, &result);
        assert_eq!(
            (
                s.agreed_clean,
                s.agreed_error,
                s.static_only,
                s.dynamic_only
            ),
            (1, 1, 1, 1)
        );
        assert_eq!(s.precision(), 0.5);
        assert_eq!(s.recall(), 0.5);
        assert_eq!(
            s.disagreement_classes(),
            vec!["dynamic-only:deadlock", "static-only:unmatched-p2p"]
        );
        let expected = parse_expected("# known\nstatic-only:unmatched-p2p\n");
        assert_eq!(
            s.unexpected_classes(&expected),
            vec!["dynamic-only:deadlock"]
        );
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let (cfg, result) = sample();
        let s = Summary::from_result(&cfg, &result);
        let j = s.to_json();
        assert_eq!(j, Summary::from_result(&cfg, &result).to_json());
        let ac = j.find("\"agreed-clean\"").unwrap();
        let dy = j.find("\"dynamic-only:deadlock\"").unwrap();
        let st = j.find("\"static-only:unmatched-p2p\"").unwrap();
        assert!(ac < dy && dy < st, "classes must be sorted");
    }

    #[test]
    fn records_round_trip_through_tsv() {
        let (_cfg, result) = sample();
        let mut with_invalid = result.records.clone();
        with_invalid.push(ModuleRecord {
            invalid: Some("parse error:\n\tunexpected token".to_string()),
            polarity: "invalid".to_string(),
            class_keys: Vec::new(),
            ..rec(4, "", &[])
        });
        let tsv = records_to_tsv(&with_invalid);
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), with_invalid.len());
        assert_eq!(
            lines[2],
            "2\t21\t1\tstatic-only\tstatic-only:unmatched-p2p\t\t\t"
        );
        // The diagnostic stays on its line, whitespace-sanitized.
        assert_eq!(
            lines[4],
            "4\t41\t2\tinvalid\t\t\t\tparse error:  unexpected token"
        );
    }

    #[test]
    fn empty_denominators_read_as_perfect() {
        let cfg = CampaignConfig::default();
        let result = CampaignResult {
            records: vec![rec(0, "agreed-clean", &["agreed-clean"])],
            rounds_run: 1,
            dried_out: true,
        };
        let s = Summary::from_result(&cfg, &result);
        assert_eq!(s.precision(), 1.0);
        assert_eq!(s.recall(), 1.0);
    }
}
