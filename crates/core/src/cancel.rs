//! Cooperative cancellation for in-flight analyses.
//!
//! `parcoachd` serves many clients from one process; a client that edits
//! again mid-check (or disconnects) should not pin a worker on a result
//! nobody will read. A [`CancelToken`] is handed to
//! [`AnalysisSession::check_module_in`](crate::session::AnalysisSession::check_module_in)
//! and observed at the pipeline's phase boundaries — the coarsest
//! granularity that needs no unwinding: a cancelled check may leave
//! freshly computed facts in the caller's memo table, but they were
//! derived from the reconciled IR and stay valid, so the next check
//! simply starts warmer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable cancellation handle: cloned to the requesting side (which
/// calls [`CancelToken::cancel`]) while the analysis polls
/// [`CancelToken::is_cancelled`] at phase boundaries. An optional
/// deadline cancels the token by itself — the daemon's per-request
/// `deadlineMs` rides on this.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels on an explicit [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally cancels itself once `budget` elapses.
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken {
            flag: Arc::default(),
            deadline: Instant::now().checked_add(budget),
        }
    }

    /// A view of this token that *additionally* expires once `budget`
    /// elapses. The flag is shared — cancelling either side cancels
    /// both — but the deadline tightens only the view, which is what a
    /// per-request `deadlineMs` riding on a per-connection token needs.
    pub fn bounded(&self, budget: Duration) -> CancelToken {
        let at = Instant::now().checked_add(budget);
        CancelToken {
            flag: Arc::clone(&self.flag),
            deadline: match (self.deadline, at) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        }
    }

    /// Request cancellation (idempotent, safe from any thread).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested, or the deadline passed?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// The analysis observed a cancellation request at a phase boundary and
/// stopped; no report was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "analysis cancelled")
    }
}

impl std::error::Error for Cancelled {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_cancels_once_and_shares_state() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled(), "cancel must be visible through clones");
    }

    #[test]
    fn bounded_shares_the_flag_and_tightens_the_deadline() {
        let t = CancelToken::new();
        let b = t.bounded(Duration::ZERO);
        assert!(b.is_cancelled(), "bounded view expires on its own");
        assert!(!t.is_cancelled(), "the parent token does not");
        let c = t.bounded(Duration::from_secs(3600));
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled(), "flag is shared both ways");
    }

    #[test]
    fn deadline_expires() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
    }
}
