//! Run-time errors and the run report.
//!
//! The interesting distinction for the paper's evaluation is *who caught
//! the bug*: a PARCOACH dynamic check (clean, before the collective, with
//! source lines — [`RunErrorKind::is_check_detection`]) versus the
//! substrate's last-line-of-defence (matcher mismatch, deadlock census,
//! timeout — what an uninstrumented run degenerates to).

use parcoach_front::span::Span;
use parcoach_mpisim::MpiError;
use std::fmt;

/// Classified run-time error.
#[derive(Debug, Clone, PartialEq)]
pub enum RunErrorKind {
    /// PARCOACH `CC` detected a collective mismatch *before* it happened:
    /// ranks disagree on the next collective.
    CcMismatch {
        /// Per-rank color names (`MPI_Barrier`, `<return/exit>`, …).
        per_rank: Vec<String>,
    },
    /// PARCOACH monothread assert fired: several threads reached a
    /// collective (or communicator-management operation) that must be
    /// monothreaded.
    MonothreadViolation {
        /// MPI name of the guarded operation.
        what: &'static str,
    },
    /// PARCOACH concurrency counter fired: two collective-bearing
    /// monothreaded regions (or two iterations of one) overlapped.
    ConcurrentRegions {
        /// The static site id.
        site: u32,
    },
    /// PARCOACH p2p epoch census fired: a communicator's total sends
    /// and receives differ at the epoch's final synchronization point
    /// (unmatched point-to-point traffic).
    P2pImbalance {
        /// Per unbalanced communicator: (handle, sent, received).
        comms: Vec<(usize, u64, u64)>,
    },
    /// The wait-for-graph detector fired at a blocked `MPI_Wait`/
    /// `MPI_Recv`: the graph of "who awaits a message from whom" is
    /// cyclic, so the deadlock is genuine (and reported with the ranks
    /// on the cycle instead of hanging until the operation timeout).
    /// Classified as a check detection: like the `CC`, it names the
    /// exact error before the run degenerates into a silent hang.
    WaitForCycle {
        /// Global ranks on the cycle, in wait-for order.
        cycle: Vec<usize>,
    },
    /// The MPI substrate reported an error (mismatch at the matcher,
    /// deadlock census, thread-level violation, …).
    Mpi(MpiError),
    /// A thread barrier diverged or was poisoned.
    ThreadBarrier(String),
    /// The OpenMP substrate refused an operation.
    Omp(String),
    /// Plain program faults.
    DivisionByZero,
    /// Array access out of bounds.
    IndexOutOfBounds {
        /// Offending index.
        index: i64,
        /// Array length.
        len: usize,
    },
    /// Non-void function fell off the end.
    MissingReturn {
        /// Function name.
        func: String,
    },
    /// Call-stack depth exceeded.
    StackOverflow,
    /// Instruction budget exhausted (infinite-loop guard).
    StepLimit,
    /// Negative or invalid array length.
    BadArrayLength(i64),
}

impl RunErrorKind {
    /// Stable machine-readable code.
    pub fn code(&self) -> &'static str {
        match self {
            RunErrorKind::CcMismatch { .. } => "cc-mismatch",
            RunErrorKind::MonothreadViolation { .. } => "monothread-violation",
            RunErrorKind::ConcurrentRegions { .. } => "concurrent-regions",
            RunErrorKind::P2pImbalance { .. } => "p2p-imbalance",
            RunErrorKind::WaitForCycle { .. } => "wait-cycle",
            RunErrorKind::Mpi(MpiError::CollectiveMismatch { .. }) => "mpi-mismatch",
            RunErrorKind::Mpi(MpiError::Deadlock { .. }) => "mpi-deadlock",
            // Normally re-classified to WaitForCycle by the executor;
            // kept addressable for raw substrate errors.
            RunErrorKind::Mpi(MpiError::WaitCycle { .. }) => "mpi-wait-cycle",
            RunErrorKind::Mpi(MpiError::RankFinishedEarly { .. }) => "mpi-early-exit",
            RunErrorKind::Mpi(MpiError::Timeout { .. }) => "mpi-timeout",
            RunErrorKind::Mpi(MpiError::ThreadLevelViolation { .. }) => "thread-level",
            RunErrorKind::Mpi(MpiError::ArgError(_)) => "mpi-args",
            RunErrorKind::Mpi(MpiError::Aborted(_)) => "aborted",
            RunErrorKind::ThreadBarrier(_) => "thread-barrier",
            RunErrorKind::Omp(_) => "omp",
            RunErrorKind::DivisionByZero => "div-zero",
            RunErrorKind::IndexOutOfBounds { .. } => "index-oob",
            RunErrorKind::MissingReturn { .. } => "missing-return",
            RunErrorKind::StackOverflow => "stack-overflow",
            RunErrorKind::StepLimit => "step-limit",
            RunErrorKind::BadArrayLength(_) => "bad-array-length",
        }
    }

    /// Was the bug intercepted by a PARCOACH dynamic check (as opposed to
    /// the substrate's fallback detection)?
    pub fn is_check_detection(&self) -> bool {
        matches!(
            self,
            RunErrorKind::CcMismatch { .. }
                | RunErrorKind::MonothreadViolation { .. }
                | RunErrorKind::ConcurrentRegions { .. }
                | RunErrorKind::P2pImbalance { .. }
                | RunErrorKind::WaitForCycle { .. }
        )
    }

    /// Is this a verification-relevant error at all (vs. a plain program
    /// fault like division by zero)?
    pub fn is_verification_error(&self) -> bool {
        self.is_check_detection()
            || matches!(
                self,
                RunErrorKind::Mpi(
                    MpiError::CollectiveMismatch { .. }
                        | MpiError::Deadlock { .. }
                        | MpiError::WaitCycle { .. }
                        | MpiError::RankFinishedEarly { .. }
                        | MpiError::Timeout { .. }
                        | MpiError::ThreadLevelViolation { .. }
                ) | RunErrorKind::ThreadBarrier(_)
            )
    }
}

/// A run-time error with its source location.
#[derive(Debug, Clone, PartialEq)]
pub struct RunError {
    /// What happened.
    pub kind: RunErrorKind,
    /// Where (span of the triggering instruction; dummy if unknown).
    pub span: Span,
    /// Rank that raised it.
    pub rank: usize,
}

impl RunError {
    /// Build an error.
    pub fn new(kind: RunErrorKind, span: Span, rank: usize) -> RunError {
        RunError { kind, span, rank }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {}: ", self.rank)?;
        match &self.kind {
            RunErrorKind::CcMismatch { per_rank } => {
                write!(
                    f,
                    "PARCOACH CC: collective mismatch about to happen; next operations: "
                )?;
                for (r, c) in per_rank.iter().enumerate() {
                    write!(f, "[rank {r}: {c}]")?;
                }
                Ok(())
            }
            RunErrorKind::MonothreadViolation { what } => write!(
                f,
                "PARCOACH: {what} executed by multiple concurrent threads"
            ),
            RunErrorKind::ConcurrentRegions { site } => write!(
                f,
                "PARCOACH: two collective-bearing monothreaded regions ran \
                 concurrently (site {site})"
            ),
            RunErrorKind::P2pImbalance { comms } => {
                write!(
                    f,
                    "PARCOACH P2P census: unmatched point-to-point traffic at \
                     finalize:"
                )?;
                for (h, sent, recvd) in comms {
                    write!(f, " [comm #{h}: {sent} sent, {recvd} received]")?;
                }
                Ok(())
            }
            RunErrorKind::WaitForCycle { cycle } => {
                write!(f, "PARCOACH wait-for graph: cyclic deadlock:")?;
                for (i, r) in cycle.iter().enumerate() {
                    let next = cycle[(i + 1) % cycle.len()];
                    write!(f, " rank {r} waits on rank {next};")?;
                }
                Ok(())
            }
            RunErrorKind::Mpi(e) => write!(f, "{e}"),
            RunErrorKind::ThreadBarrier(m) => write!(f, "thread barrier: {m}"),
            RunErrorKind::Omp(m) => write!(f, "OpenMP runtime: {m}"),
            RunErrorKind::DivisionByZero => write!(f, "division by zero"),
            RunErrorKind::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds (len {len})")
            }
            RunErrorKind::MissingReturn { func } => {
                write!(f, "function `{func}` ended without returning a value")
            }
            RunErrorKind::StackOverflow => write!(f, "call stack overflow"),
            RunErrorKind::StepLimit => write!(f, "instruction budget exhausted"),
            RunErrorKind::BadArrayLength(n) => write!(f, "invalid array length {n}"),
        }
    }
}

impl std::error::Error for RunError {}

/// What a run did, all ranks and threads together. Every simulated
/// thread counts in its own state and the counts are added up where
/// threads join, so counting costs the run no shared write; on a clean
/// run of a deterministic program every field repeats exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Interpreter steps executed (one per basic block entered and one
    /// per instruction) — what `RunConfig::max_steps` bounds.
    pub steps: u64,
    /// `parallel` regions forked.
    pub forks: u64,
    /// Waits at a team barrier, one per member per barrier. A region's
    /// end is not among them: there the join is the synchronisation.
    pub barrier_waits: u64,
    /// MPI operations the program issued (the checks' own `CC`
    /// all-reduces are not counted).
    pub mpi_calls: u64,
    /// Simulated threads that ran on an OS thread other than the one
    /// that created them: every rank but 0, every team member but 0.
    pub os_threads: u64,
}

impl RunStats {
    /// Add a joined thread's counts to this one's.
    pub(crate) fn add(&mut self, other: &RunStats) {
        self.steps += other.steps;
        self.forks += other.forks;
        self.barrier_waits += other.barrier_waits;
        self.mpi_calls += other.mpi_calls;
        self.os_threads += other.os_threads;
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} step(s), {} fork(s), {} barrier wait(s), {} MPI call(s), \
             {} thread(s) handed to another OS thread",
            self.steps, self.forks, self.barrier_waits, self.mpi_calls, self.os_threads
        )
    }
}

/// Aggregate outcome of one program run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// First error per failing rank (empty = clean run).
    pub errors: Vec<RunError>,
    /// Captured `print` output, in arrival order, prefixed by rank.
    pub output: Vec<String>,
    /// What the run did.
    pub stats: RunStats,
}

impl RunReport {
    /// Did the program complete without any error?
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// The primary (first) error.
    pub fn first_error(&self) -> Option<&RunError> {
        self.errors.first()
    }

    /// Was the failure intercepted by a PARCOACH check?
    pub fn detected_by_check(&self) -> bool {
        self.errors.iter().any(|e| e.kind.is_check_detection())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(RunErrorKind::CcMismatch { per_rank: vec![] }.is_check_detection());
        assert!(RunErrorKind::MonothreadViolation {
            what: "MPI_Barrier"
        }
        .is_check_detection());
        assert!(!RunErrorKind::DivisionByZero.is_check_detection());
        assert!(RunErrorKind::Mpi(MpiError::Deadlock { states: vec![] }).is_verification_error());
        assert!(!RunErrorKind::StepLimit.is_verification_error());
    }

    #[test]
    fn codes_distinct_for_key_kinds() {
        let kinds = [
            RunErrorKind::CcMismatch { per_rank: vec![] },
            RunErrorKind::MonothreadViolation {
                what: "MPI_Barrier",
            },
            RunErrorKind::ConcurrentRegions { site: 0 },
            RunErrorKind::DivisionByZero,
            RunErrorKind::StepLimit,
        ];
        let mut codes: Vec<_> = kinds.iter().map(|k| k.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), kinds.len());
    }

    #[test]
    fn report_helpers() {
        let clean = RunReport {
            errors: vec![],
            output: vec![],
            stats: RunStats::default(),
        };
        assert!(clean.is_clean());
        assert!(!clean.detected_by_check());
        let failing = RunReport {
            errors: vec![RunError::new(
                RunErrorKind::CcMismatch {
                    per_rank: vec!["MPI_Barrier".into(), "<return>".into()],
                },
                Span::DUMMY,
                0,
            )],
            output: vec![],
            stats: RunStats::default(),
        };
        assert!(!failing.is_clean());
        assert!(failing.detected_by_check());
        let text = failing.first_error().unwrap().to_string();
        assert!(text.contains("MPI_Barrier"), "{text}");
    }
}
