//! Seeded property test: the static half of the differential oracle's
//! verdict does not depend on the pool width the sweep runs at.
//!
//! 100 scenario-generator modules go through the full differential
//! pipeline at pool widths 1 and 4. The dynamic half is deliberately
//! *not* pinned across widths — a racing module's dynamic verdict is a
//! sample of a schedule distribution, and pool width is part of the
//! schedule; the dynamic side's reference is the campaign's pinned
//! class list (`FUZZ_expected.txt`, `fuzz_differential_replay.rs`).

use parcoach_fuzz::{module_seed, observe, OracleConfig, OracleOutcome};
use parcoach_pool::{Pool, PoolConfig};
use parcoach_testutil::Scenario;

const SEED: u64 = 4242;
const MODULES: u64 = 100;

/// The static codes of every module, observed on a `jobs`-lane pool.
fn static_codes_at(jobs: usize) -> Vec<Vec<String>> {
    let pool = Pool::new(PoolConfig {
        jobs,
        ..PoolConfig::default()
    });
    let indices: Vec<u64> = (0..MODULES).collect();
    pool.par_map(&indices, |&i| {
        let src = Scenario::generate(module_seed(SEED, i)).render();
        match observe(&format!("eq_{i}.mh"), &src, &OracleConfig::default()) {
            OracleOutcome::Valid(obs) => obs.static_codes,
            OracleOutcome::Invalid(diag) => panic!("generator produced invalid module {i}: {diag}"),
        }
    })
}

#[test]
fn static_side_is_jobs_independent() {
    // The analysis is deterministic: a width-dependent static code would
    // mean the sweep layout leaks into the verdict.
    let narrow = static_codes_at(1);
    let wide = static_codes_at(4);
    for (i, (n, w)) in narrow.iter().zip(wide.iter()).enumerate() {
        assert_eq!(n, w, "module {i}: static codes changed with pool width");
    }
}
