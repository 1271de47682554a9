//! Tier-1 replay gate for the differential fuzzing campaign (E11).
//!
//! A pinned-seed campaign prefix must (a) replay byte-identically,
//! (b) produce zero generator-invalid modules, and (c) surface no
//! disagreement class missing from the checked-in `FUZZ_expected.txt`.
//! Budgets scale with `PARCOACH_PROP_BUDGET` like the other property
//! suites.

use parcoach_fuzz::{
    classify, minimize, module_seed, observe, parse_expected, run_campaign, CampaignConfig,
    OracleConfig, OracleOutcome, Summary,
};
use parcoach_pool::{Pool, PoolConfig};
use parcoach_testutil::{case_budget, Scenario};
use std::collections::BTreeSet;

fn pool(jobs: usize) -> Pool {
    Pool::new(PoolConfig {
        jobs,
        deterministic: true,
        seed: 42,
    })
}

fn expected_classes() -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../FUZZ_expected.txt");
    parse_expected(&std::fs::read_to_string(path).expect("FUZZ_expected.txt at the repo root"))
}

/// Pinned-seed replay: same seed, same summary — and every disagreement
/// class is already recorded. Because module seeds depend only on
/// `(campaign_seed, index)`, this prefix is a strict subset of the
/// canonical 2000-module run that produced `FUZZ_expected.txt`.
#[test]
fn replay_campaign_stays_within_recorded_classes() {
    let cfg = CampaignConfig {
        seed: 42,
        rounds: case_budget(2) as usize,
        dry_rounds: 0,
        ..CampaignConfig::default()
    };
    let p = pool(2);
    let a = Summary::from_result(&cfg, &run_campaign(&cfg, &p, |_, _, _| {}));
    let b = Summary::from_result(&cfg, &run_campaign(&cfg, &p, |_, _, _| {}));
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "same seed must replay byte-identically"
    );
    assert_eq!(a.invalid, 0, "generator produced invalid modules");
    assert_eq!(a.modules, (cfg.rounds * cfg.modules_per_round) as u64);
    let unexpected = a.unexpected_classes(&expected_classes());
    assert!(
        unexpected.is_empty(),
        "disagreement classes missing from FUZZ_expected.txt: {unexpected:?}"
    );
}

/// In-process sharding must not change results: a single-lane pool and
/// a four-lane pool produce byte-identical summaries.
#[test]
fn pool_shape_does_not_change_results() {
    let cfg = CampaignConfig {
        rounds: 1,
        dry_rounds: 0,
        ..CampaignConfig::default()
    };
    let s1 = Summary::from_result(&cfg, &run_campaign(&cfg, &pool(1), |_, _, _| {}));
    let s4 = Summary::from_result(&cfg, &run_campaign(&cfg, &pool(4), |_, _, _| {}));
    assert_eq!(s1.to_json(), s4.to_json());
}

/// Every generated module must pass the front end and the IR verifier:
/// an `Invalid` oracle outcome is always a generator bug, never noise.
#[test]
fn every_generated_module_is_frontend_valid() {
    for i in 0..case_budget(200) {
        let seed = module_seed(0xF00D, i);
        let src = Scenario::generate(seed).render();
        let unit = parcoach_front::parse_and_check("gen.mh", &src)
            .unwrap_or_else(|(d, sm)| panic!("seed {seed}: {}", d.render(&sm)));
        let module = parcoach_ir::lower::lower_program(&unit.program, &unit.signatures);
        let errs = parcoach_ir::verify_module(&module);
        assert!(errs.is_empty(), "seed {seed}: {errs:?}");
    }
}

/// Scenario rendering is pure: the same seeds pushed through
/// differently shaped pools yield byte-identical sources.
#[test]
fn generation_is_independent_of_pool_shape() {
    let idx: Vec<u64> = (0..64).collect();
    let render = |p: &Pool| {
        p.par_map(&idx, |&i| Scenario::generate(module_seed(42, i)).render())
            .concat()
    };
    assert_eq!(render(&pool(1)), render(&pool(4)));
}

/// The minimizer must shrink the canonical uniform-guard FP exemplar
/// (module #5 of the seed-42 campaign) while preserving its
/// disagreement class.
#[test]
fn minimizer_preserves_class_while_shrinking() {
    let key = "static-only:collective-mismatch";
    let sc = Scenario::generate(module_seed(42, 5));
    let (min, probes) = minimize(&sc, key, &OracleConfig::default());
    assert!(probes > 0);
    assert!(min.stmt_count() <= sc.stmt_count());
    match observe("min.mh", &min.render(), &OracleConfig::default()) {
        OracleOutcome::Valid(o) => {
            let keys = classify(&o).class_keys;
            assert!(keys.iter().any(|k| k == key), "lost {key}: {keys:?}");
        }
        OracleOutcome::Invalid(e) => panic!("minimized module no longer compiles: {e}"),
    }
}

/// The flags that selected the paths retired in PR 13 are gone: the
/// driver rejects them like any unknown flag (usage on stderr, exit 3)
/// before running anything.
#[test]
fn retired_mode_flags_are_rejected_as_unknown() {
    for flag in [
        "--legacy-fixpoint",
        "--no-module-memo",
        "--legacy-world-lock",
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_fuzz_differential"))
            .args(["--rounds", "1", "--modules", "1", flag])
            .output()
            .expect("fuzz_differential runs");
        assert_eq!(out.status.code(), Some(3), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
        assert!(err.contains("usage: fuzz_differential"), "{err}");
        assert!(out.stdout.is_empty(), "{flag}: nothing ran");
    }
}
