//! # parcoach-fuzz — differential fuzzing of the checker itself
//!
//! The paper evaluates PARCOACH on a handful of hand-picked benchmarks;
//! the catalogue inherits that limitation. This crate measures the
//! checker instead of the programs: it generates thousands of random
//! MiniHPC scenarios ([`parcoach_testutil::scenario`]), runs the static
//! phases *and* the instrumented simulator on each, and diffs the two
//! verdicts:
//!
//! * **agreed** — both clean, or both report an error;
//! * **static-only** — a warning with a clean instrumented run: a
//!   false-positive candidate (or a latent error the schedule cannot
//!   reach — the census narrows those);
//! * **dynamic-only** — a clean static report but a failing run: a
//!   false-negative candidate, the interesting soundness signal.
//!
//! Disagreements are bucketed into **classes** (warning code for
//! static-only, error family for dynamic-only), a campaign loops until
//! `K` consecutive rounds surface no new class (*dry-out*), and a
//! delta-debugging [`minimize()`] pass shrinks one exemplar per class to
//! a minimal reproducer fit for the catalogue.
//!
//! Everything is deterministic: module seeds derive from
//! `(campaign seed, module index)` only, so a campaign's records are
//! identical at any `--jobs` width and any round budget that covers the
//! same indices.

pub mod campaign;
pub mod classify;
pub mod minimize;
pub mod oracle;
pub mod summary;

pub use campaign::{
    module_seed, run_campaign, CampaignConfig, CampaignResult, DryTracker, ModuleRecord,
};
pub use classify::{classify, dyn_family, is_disagreement, Classified, Polarity};
pub use minimize::minimize;
pub use oracle::{observe, observe_module, Observation, OracleConfig, OracleOutcome};
pub use summary::{parse_expected, ClassStat, Summary};
