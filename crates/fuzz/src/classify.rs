//! Verdict diffing: polarity (agreed / static-only / dynamic-only) and
//! the disagreement-class keys a campaign's dry-out criterion tracks.

use crate::oracle::Observation;

/// Module-level polarity of the static-vs-dynamic diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// Both sides clean: a true negative for the static phases.
    AgreedClean,
    /// Both sides report: a true positive (module-level — the codes
    /// need not describe the same statement).
    AgreedError,
    /// Static warning, clean instrumented run: false-positive
    /// candidate.
    StaticOnly,
    /// Clean static report, failing run: false-negative candidate.
    DynamicOnly,
}

impl Polarity {
    /// Stable lowercase name (summary JSON, records files).
    pub fn name(self) -> &'static str {
        match self {
            Polarity::AgreedClean => "agreed-clean",
            Polarity::AgreedError => "agreed-error",
            Polarity::StaticOnly => "static-only",
            Polarity::DynamicOnly => "dynamic-only",
        }
    }
}

/// Coarse family of a dynamic error code. Families — not raw codes —
/// key the dynamic-only classes, because one root cause surfaces under
/// different codes depending on which detector reaches it first (e.g.
/// a deadlock via the wait-for-graph census on one rank and the
/// operation timeout on another).
pub fn dyn_family(code: &str) -> &'static str {
    match code {
        "cc-mismatch"
        | "mpi-mismatch"
        | "monothread-violation"
        | "concurrent-regions"
        | "thread-barrier" => "collective",
        "p2p-imbalance" => "p2p",
        "wait-cycle" | "mpi-deadlock" | "mpi-timeout" | "mpi-early-exit" => "deadlock",
        "thread-level" => "thread-level",
        "hang" => "hang",
        _ => "fault",
    }
}

/// Priority when several ranks report different families (highest
/// wins): the more specific diagnosis names the class.
fn family_rank(family: &str) -> u8 {
    match family {
        "collective" => 6,
        "p2p" => 5,
        "thread-level" => 4,
        "deadlock" => 3,
        "hang" => 2,
        _ => 1, // fault
    }
}

/// The highest-priority family among a run's error codes.
pub fn top_family(dyn_codes: &[String]) -> Option<&'static str> {
    dyn_codes
        .iter()
        .map(|c| dyn_family(c))
        .max_by_key(|f| family_rank(f))
}

/// Is this class key a disagreement (the dry-out / CI-gate signal)?
pub fn is_disagreement(key: &str) -> bool {
    key.starts_with("static-only:") || key.starts_with("dynamic-only:")
}

/// A classified module: its polarity and the class keys it contributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classified {
    /// Module-level diff polarity.
    pub polarity: Polarity,
    /// Class keys: `agreed-clean`, `agreed-error:<codes>`,
    /// `static-only:<code>` (one per warning code), or
    /// `dynamic-only:<family>`.
    pub class_keys: Vec<String>,
}

/// Diff one observation into polarity + class keys.
pub fn classify(obs: &Observation) -> Classified {
    let static_err = !obs.static_codes.is_empty();
    let dyn_err = !obs.dyn_codes.is_empty();
    match (static_err, dyn_err) {
        (false, false) => Classified {
            polarity: Polarity::AgreedClean,
            class_keys: vec!["agreed-clean".to_string()],
        },
        (true, true) => Classified {
            polarity: Polarity::AgreedError,
            class_keys: vec![format!("agreed-error:{}", obs.static_codes.join("+"))],
        },
        (true, false) => Classified {
            polarity: Polarity::StaticOnly,
            class_keys: obs
                .static_codes
                .iter()
                .map(|c| format!("static-only:{c}"))
                .collect(),
        },
        (false, true) => Classified {
            polarity: Polarity::DynamicOnly,
            class_keys: vec![format!(
                "dynamic-only:{}",
                top_family(&obs.dyn_codes).expect("non-empty dyn codes")
            )],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(st: &[&str], dy: &[&str]) -> Observation {
        Observation {
            static_codes: st.iter().map(|s| s.to_string()).collect(),
            dyn_codes: dy.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn four_polarities() {
        assert_eq!(classify(&obs(&[], &[])).polarity, Polarity::AgreedClean);
        assert_eq!(
            classify(&obs(&["collective-mismatch"], &["cc-mismatch"])).polarity,
            Polarity::AgreedError
        );
        assert_eq!(
            classify(&obs(&["collective-mismatch"], &[])).polarity,
            Polarity::StaticOnly
        );
        assert_eq!(
            classify(&obs(&[], &["wait-cycle"])).polarity,
            Polarity::DynamicOnly
        );
    }

    #[test]
    fn static_only_contributes_one_class_per_code() {
        let c = classify(&obs(&["collective-mismatch", "unmatched-p2p"], &[]));
        assert_eq!(
            c.class_keys,
            vec![
                "static-only:collective-mismatch".to_string(),
                "static-only:unmatched-p2p".to_string()
            ]
        );
        assert!(c.class_keys.iter().all(|k| is_disagreement(k)));
    }

    #[test]
    fn dynamic_family_priority_prefers_specific_diagnoses() {
        // A mismatch detected on one rank while another timed out is a
        // collective-class disagreement, not a deadlock-class one.
        let c = classify(&obs(&[], &["cc-mismatch", "mpi-timeout"]));
        assert_eq!(c.class_keys, vec!["dynamic-only:collective".to_string()]);
    }

    #[test]
    fn agreed_keys_are_not_disagreements() {
        assert!(!is_disagreement("agreed-clean"));
        assert!(!is_disagreement("agreed-error:collective-mismatch"));
        assert!(is_disagreement("dynamic-only:deadlock"));
    }
}
