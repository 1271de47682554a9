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
    module_seed, par_map, run_campaign, CampaignConfig, CampaignResult, DryTracker, ModuleRecord,
};
pub use classify::{classify, dyn_family, is_disagreement, Classified, Polarity};
pub use minimize::minimize;
pub use oracle::{observe, Observation, OracleConfig, OracleOutcome};
pub use summary::{parse_expected, ClassStat, Summary};

// Tests of `par_map`, the campaign's lanes.
#[cfg(test)]
mod tests {
    use crate::par_map;
    use parcoach_sync::thread_cache;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Barrier, Mutex};
    use std::thread::ThreadId;

    #[test]
    fn par_map_keeps_index_order() {
        let items: Vec<u64> = (0..100).collect();
        let expected: Vec<u64> = items
            .iter()
            .map(|x| x.wrapping_mul(31).rotate_left(7))
            .collect();
        for jobs in [1, 3, 8] {
            // The first `jobs` items wait for one another, so each lane
            // holds one of them and the lanes' results interleave.
            let first = Barrier::new(jobs);
            let got = par_map(jobs, &items, |&x| {
                if x < jobs as u64 {
                    first.wait();
                }
                x.wrapping_mul(31).rotate_left(7)
            });
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    /// Uneven items (every seventh spins far longer) shuffle which lane
    /// takes which index; the output is still the one-lane output.
    #[test]
    fn par_map_identical_across_job_counts() {
        let items: Vec<u64> = (0..64).collect();
        let work = |&x: &u64| {
            let spins = if x % 7 == 0 { 20_000 } else { 10 };
            (0..spins).fold(x, |acc, _| {
                std::hint::black_box(acc.wrapping_mul(31).rotate_left(7))
            })
        };
        let expected = par_map(1, &items, work);
        for jobs in [2, 3, 8] {
            assert_eq!(par_map(jobs, &items, work), expected, "jobs={jobs}");
        }
    }

    #[test]
    fn par_map_one_lane_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let ran_on = par_map(1, &[0u8; 16], |_| std::thread::current().id());
        assert!(ran_on.iter().all(|&id| id == caller));
    }

    /// More lanes than items: one lane per item at most, and every item
    /// still lands in its slot.
    #[test]
    fn par_map_wider_than_its_items() {
        let threads: Mutex<HashSet<ThreadId>> = Mutex::default();
        let out = par_map(8, &[10, 20, 30], |&x: &i32| {
            threads.lock().unwrap().insert(std::thread::current().id());
            x + 1
        });
        assert_eq!(out, vec![11, 21, 31]);
        assert!(threads.into_inner().unwrap().len() <= 3);
        assert!(par_map(4, &[] as &[u8], |&x| x).is_empty());
    }

    #[test]
    fn par_map_borrows_locals() {
        let data = vec![String::from("a"), String::from("bb"), String::from("ccc")];
        let lens = par_map(3, &data, |s| s.len());
        assert_eq!(lens, vec![1, 2, 3]);
        drop(data); // still owned here: every lane finished inside par_map
    }

    /// One item panics as soon as it has told the other (over a channel,
    /// so the other is provably still inside `f`), which then dawdles:
    /// the caller may unwind only after that lane finished, since `f` and
    /// what it borrows die with `par_map`'s frame.
    #[test]
    fn par_map_panic_waits_for_every_lane() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let finished = AtomicBool::new(false);
        let res = catch_unwind(AssertUnwindSafe(|| {
            par_map(2, &[0, 1], |&i: &i32| {
                if i == 0 {
                    tx.lock().unwrap().send(()).unwrap();
                    panic!("item 0 down");
                }
                rx.lock().unwrap().recv().unwrap();
                std::thread::sleep(std::time::Duration::from_millis(20));
                finished.store(true, Ordering::SeqCst);
            })
        }));
        assert!(res.is_err());
        assert!(
            finished.load(Ordering::SeqCst),
            "par_map unwound while a lane was still running"
        );
        // The cache still serves later maps.
        assert_eq!(par_map(2, &[1, 2, 3], |&x: &i32| x * 2), vec![2, 4, 6]);
    }

    /// The fuzz campaign's shape: a map whose items fork thread sets of
    /// their own, called from inside a member of a set.
    #[test]
    fn par_map_nests_inside_a_run_set_member() {
        let items: Vec<usize> = (0..20).collect();
        let results = thread_cache().run_map(2, |member| {
            par_map(3, &items, |&x| {
                let inner = thread_cache().run_map(2, |k| x + k);
                inner.iter().sum::<usize>() + member
            })
        });
        for (member, got) in results.iter().enumerate() {
            let want: Vec<usize> = items.iter().map(|x| 2 * x + 1 + member).collect();
            assert_eq!(got, &want, "member {member}");
        }
    }
}
