//! Campaign driver: rounds of generated modules through the oracle,
//! spread over threads, with the loop-until-dry stopping criterion.

use crate::classify::{classify, is_disagreement};
use crate::oracle::{observe, OracleConfig, OracleOutcome};
use parcoach_sync::thread_cache;
use parcoach_testutil::Scenario;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign seed; module seeds derive from `(seed, index)`.
    pub seed: u64,
    /// Maximum rounds.
    pub rounds: usize,
    /// Modules per round (the dry-out granularity).
    pub modules_per_round: usize,
    /// Stop after this many consecutive rounds with no new
    /// disagreement class; `0` disables early stopping.
    pub dry_rounds: usize,
    /// Oracle knobs.
    pub oracle: OracleConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 42,
            rounds: 5,
            modules_per_round: 40,
            dry_rounds: 3,
            oracle: OracleConfig::default(),
        }
    }
}

/// One module's differential record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleRecord {
    /// Global module index (`round * modules_per_round + position`).
    pub index: u64,
    /// Derived generator seed — the reproduction handle.
    pub seed: u64,
    /// Round this module belongs to.
    pub round: usize,
    /// Polarity name, or `invalid` for generator bugs.
    pub polarity: String,
    /// Class keys ([`crate::classify::classify`]); empty when invalid.
    pub class_keys: Vec<String>,
    /// Sorted static warning codes.
    pub static_codes: Vec<String>,
    /// Sorted dynamic error codes (`hang` for a watchdog kill).
    pub dyn_codes: Vec<String>,
    /// Compile diagnostics when the module was invalid.
    pub invalid: Option<String>,
}

/// Mix a campaign seed and a module index into a generator seed.
/// Depends on nothing else — not jobs, not the round count — which is
/// what makes every thread count equivalent and smaller campaigns strict
/// prefixes of larger ones.
pub fn module_seed(campaign_seed: u64, index: u64) -> u64 {
    let mut z = campaign_seed
        .rotate_left(17)
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generate, observe and classify one module.
pub fn evaluate_module(cfg: &CampaignConfig, index: u64, round: usize) -> ModuleRecord {
    let seed = module_seed(cfg.seed, index);
    let src = Scenario::generate(seed).render();
    match observe(&format!("fuzz_{index}.mh"), &src, &cfg.oracle) {
        OracleOutcome::Valid(obs) => {
            let c = classify(&obs);
            ModuleRecord {
                index,
                seed,
                round,
                polarity: c.polarity.name().to_string(),
                class_keys: c.class_keys,
                static_codes: obs.static_codes,
                dyn_codes: obs.dyn_codes,
                invalid: None,
            }
        }
        OracleOutcome::Invalid(diag) => ModuleRecord {
            index,
            seed,
            round,
            polarity: "invalid".to_string(),
            class_keys: Vec::new(),
            static_codes: Vec::new(),
            dyn_codes: Vec::new(),
            invalid: Some(diag),
        },
    }
}

/// Dry-out bookkeeping: the set of disagreement classes seen so far and
/// the streak of rounds that added nothing.
#[derive(Debug, Default)]
pub struct DryTracker {
    seen: BTreeSet<String>,
    streak: usize,
}

impl DryTracker {
    /// Fresh tracker.
    pub fn new() -> DryTracker {
        DryTracker::default()
    }

    /// Fold one round's class keys; returns `true` if the round
    /// surfaced a new disagreement class.
    pub fn observe_round<'a>(&mut self, keys: impl Iterator<Item = &'a String>) -> bool {
        let mut any_new = false;
        for k in keys {
            if is_disagreement(k) && self.seen.insert(k.clone()) {
                any_new = true;
            }
        }
        if any_new {
            self.streak = 0;
        } else {
            self.streak += 1;
        }
        any_new
    }

    /// Has the campaign gone `dry_rounds` rounds without news?
    pub fn is_dry(&self, dry_rounds: usize) -> bool {
        dry_rounds > 0 && self.streak >= dry_rounds
    }

    /// Disagreement classes seen so far.
    pub fn seen(&self) -> &BTreeSet<String> {
        &self.seen
    }
}

/// Campaign outcome: records in module-index order plus how it stopped.
#[derive(Debug)]
pub struct CampaignResult {
    /// Records of every evaluated module, ascending index.
    pub records: Vec<ModuleRecord>,
    /// Rounds actually executed.
    pub rounds_run: usize,
    /// Whether the dry-out criterion (rather than the round budget)
    /// ended the campaign.
    pub dried_out: bool,
}

/// Run a campaign on up to `jobs` threads (the round's modules fan out
/// over [`par_map`], whose results keep index order).
/// `progress` is called once per completed round.
pub fn run_campaign(
    cfg: &CampaignConfig,
    jobs: usize,
    mut progress: impl FnMut(usize, &[ModuleRecord], &DryTracker),
) -> CampaignResult {
    let mut tracker = DryTracker::new();
    let mut records = Vec::new();
    let mut rounds_run = 0;
    let mut dried_out = false;
    for round in 0..cfg.rounds {
        let lo = (round * cfg.modules_per_round) as u64;
        let indices: Vec<u64> = (lo..lo + cfg.modules_per_round as u64).collect();
        let batch = par_map(jobs, &indices, |&i| evaluate_module(cfg, i, round));
        tracker.observe_round(batch.iter().flat_map(|m| m.class_keys.iter()));
        rounds_run = round + 1;
        progress(round, &batch, &tracker);
        records.extend(batch);
        if tracker.is_dry(cfg.dry_rounds) {
            dried_out = true;
            break;
        }
    }
    CampaignResult {
        records,
        rounds_run,
        dried_out,
    }
}

/// Map `f` over `items` on up to `jobs` lanes of the thread cache, for
/// items that are each a module's worth of work. Lane 0 is the caller;
/// every lane takes the next index from one shared cursor, so a slow
/// item holds up no other, and the results come back in index order
/// whatever the schedule. One lane (or one item) runs on the caller
/// alone. A panic in `f` is resumed here once every lane has finished.
///
/// ```
/// let squares = parcoach_fuzz::par_map(3, &[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]); // index order, any schedule
/// ```
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let lanes = jobs.clamp(1, items.len().max(1));
    let cursor = AtomicUsize::new(0);
    let per_lane = thread_cache().run_map(lanes, |_| {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    });
    let mut all: Vec<(usize, R)> = per_lane.into_iter().flatten().collect();
    all.sort_unstable_by_key(|&(i, _)| i);
    all.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_seed_ignores_layout() {
        // Only (campaign seed, index) matter.
        assert_eq!(module_seed(42, 17), module_seed(42, 17));
        assert_ne!(module_seed(42, 17), module_seed(42, 18));
        assert_ne!(module_seed(42, 17), module_seed(43, 17));
    }

    #[test]
    fn dry_tracker_counts_consecutive_quiet_rounds() {
        let mut t = DryTracker::new();
        let keys = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(t.observe_round(keys(&["static-only:x", "agreed-clean"]).iter()));
        assert!(!t.observe_round(keys(&["static-only:x"]).iter()));
        assert!(!t.observe_round(keys(&["agreed-clean"]).iter()));
        assert!(t.is_dry(2));
        assert!(!t.is_dry(3));
        // A new class resets the streak.
        assert!(t.observe_round(keys(&["dynamic-only:deadlock"]).iter()));
        assert!(!t.is_dry(2));
    }
}
