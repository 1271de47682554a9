//! MPI substrate errors — the runtime manifestations of the bugs the
//! paper's checks exist to catch (plus plain argument errors).

use crate::signature::Signature;
use parcoach_front::ast::ThreadLevel;
use std::fmt;

/// What a rank is doing when a verdict or a timeout lists it: the
/// pattern a thread of it is parked on, or the rank's running or
/// finished state. Plain data: a parked thread records it without
/// formatting anything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RankActivity {
    /// Executing user code.
    Running,
    /// Blocked in collective number `seq` (0-based per-communicator
    /// order).
    InCollective {
        /// Per-communicator sequence number.
        seq: u64,
        /// The collective it waits in.
        sig: Signature,
        /// Communicator handle it waits on (0 = world).
        comm: usize,
    },
    /// Blocked in a receive: `MPI_Recv`, or `MPI_Wait`/`MPI_Waitall` on
    /// a receive request.
    InRecv {
        /// Request handle being waited on (None = a blocking `MPI_Recv`).
        request: Option<usize>,
        /// Communicator handle the receive is posted on (0 = world).
        comm: usize,
        /// Source rank awaited (local to `comm`; None = `MPI_ANY_SOURCE`).
        src: Option<usize>,
        /// Tag awaited (None = `MPI_ANY_TAG`).
        tag: Option<i64>,
    },
    /// The rank's program has terminated.
    Finished,
}

/// Render an optional source/tag as its value or the wildcard name.
fn opt_field(f: &mut fmt::Formatter<'_>, name: &str, v: Option<impl fmt::Display>) -> fmt::Result {
    match v {
        Some(x) => write!(f, "{name}={x}"),
        None => write!(f, "{name}=ANY"),
    }
}

/// Name a communicator other than the world.
fn on_comm(f: &mut fmt::Formatter<'_>, comm: usize) -> fmt::Result {
    if comm != 0 {
        write!(f, " on comm #{comm}")?;
    }
    Ok(())
}

impl fmt::Display for RankActivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RankActivity::Running => write!(f, "running"),
            RankActivity::InCollective { seq, sig, comm } => {
                write!(f, "blocked in collective #{seq} ({sig}")?;
                on_comm(f, comm)?;
                write!(f, ")")
            }
            RankActivity::InRecv {
                request,
                comm,
                src,
                tag,
            } => {
                match request {
                    None => write!(f, "blocked in MPI_Recv(")?,
                    Some(r) => write!(f, "blocked in MPI_Wait(req #{r}: ")?,
                }
                opt_field(f, "src", src)?;
                write!(f, ", ")?;
                opt_field(f, "tag", tag)?;
                write!(f, ")")?;
                on_comm(f, comm)
            }
            RankActivity::Finished => write!(f, "finished"),
        }
    }
}

/// Errors surfaced by the MPI substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum MpiError {
    /// Two ranks issued different collectives as their n-th operation
    /// on one communicator (MUST-style signature mismatch). The two
    /// ranks are in rank order, whichever arrived first.
    CollectiveMismatch {
        /// Communicator handle the mismatch happened on (0 = world).
        comm: usize,
        /// Per-communicator collective index at which they diverged.
        seq: u64,
        /// The lower of the two ranks.
        first_rank: usize,
        /// Its signature.
        first: Signature,
        /// The higher of the two ranks.
        second_rank: usize,
        /// Its signature, incompatible with `first`.
        second: Signature,
    },
    /// A rank finished while others still wait in a collective it never
    /// entered.
    RankFinishedEarly {
        /// The lowest rank that left.
        finished_rank: usize,
        /// Activities of all ranks at detection time.
        states: Vec<RankActivity>,
    },
    /// All live ranks are blocked and no collective can complete.
    Deadlock {
        /// Activities of all ranks.
        states: Vec<RankActivity>,
    },
    /// The wait-for graph (built over blocked receives and waits when
    /// the liveness census fires) contains a genuine cycle: every rank
    /// on it waits for a message only the next rank on the cycle could
    /// send, and that rank is itself blocked.
    WaitCycle {
        /// Global ranks on the cycle, in wait-for order (the last
        /// waits for the first).
        cycle: Vec<usize>,
        /// Activities of all ranks.
        states: Vec<RankActivity>,
    },
    /// A blocking operation exceeded the configured timeout.
    Timeout {
        /// Description of the stuck operation.
        what: String,
        /// Activities of all ranks at the timeout.
        states: Vec<RankActivity>,
    },
    /// The requested MPI thread level was violated (e.g. concurrent MPI
    /// calls under `MPI_THREAD_SERIALIZED`).
    ThreadLevelViolation {
        /// Level granted at init.
        provided: ThreadLevel,
        /// Description of the violation.
        detail: String,
    },
    /// Malformed arguments (root out of range, short scatter array, …).
    ArgError(String),
    /// The world was aborted (by a failed dynamic check or another
    /// rank's error) under an operation whose outcome was not decided:
    /// the calling thread is stopped, it did not fault. Carries the
    /// original reason.
    Aborted(String),
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::CollectiveMismatch {
                comm,
                seq,
                first_rank,
                first,
                second_rank,
                second,
            } => {
                write!(
                    f,
                    "collective mismatch at operation #{seq}: rank {first_rank} \
                     entered {first} but rank {second_rank} entered {second}"
                )?;
                if *comm != 0 {
                    write!(f, " (communicator #{comm})")?;
                }
                Ok(())
            }
            MpiError::RankFinishedEarly {
                finished_rank,
                states,
            } => {
                write!(
                    f,
                    "rank {finished_rank} finished while collectives are pending:"
                )?;
                for (r, s) in states.iter().enumerate() {
                    write!(f, " [rank {r}: {s}]")?;
                }
                Ok(())
            }
            MpiError::Deadlock { states } => {
                write!(f, "deadlock: all ranks blocked:")?;
                for (r, s) in states.iter().enumerate() {
                    write!(f, " [rank {r}: {s}]")?;
                }
                Ok(())
            }
            MpiError::WaitCycle { cycle, states } => {
                write!(f, "wait-for cycle:")?;
                for (i, r) in cycle.iter().enumerate() {
                    let next = cycle[(i + 1) % cycle.len()];
                    write!(f, " rank {r} waits on rank {next};")?;
                }
                for (r, s) in states.iter().enumerate() {
                    write!(f, " [rank {r}: {s}]")?;
                }
                Ok(())
            }
            MpiError::Timeout { what, states } => {
                write!(f, "timeout in {what}:")?;
                for (r, s) in states.iter().enumerate() {
                    write!(f, " [rank {r}: {s}]")?;
                }
                Ok(())
            }
            MpiError::ThreadLevelViolation { provided, detail } => {
                write!(f, "thread level violation under {provided}: {detail}")
            }
            MpiError::ArgError(m) => write!(f, "invalid MPI argument: {m}"),
            MpiError::Aborted(reason) => write!(f, "aborted: {reason}"),
        }
    }
}

impl std::error::Error for MpiError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::CollectiveOp;

    #[test]
    fn errors_render() {
        let e = MpiError::CollectiveMismatch {
            comm: 0,
            seq: 3,
            first_rank: 0,
            first: Signature::collective(CollectiveOp::Barrier, None, None, None),
            second_rank: 2,
            second: Signature::collective(
                CollectiveOp::Bcast,
                None,
                Some(0),
                Some(crate::value::MpiType::Int),
            ),
        };
        let s = e.to_string();
        assert!(s.contains("rank 0"), "{s}");
        assert!(s.contains("MPI_Barrier"), "{s}");
        assert!(s.contains("MPI_Bcast"), "{s}");

        let d = MpiError::Deadlock {
            states: vec![
                RankActivity::InCollective {
                    seq: 1,
                    sig: Signature::collective(CollectiveOp::Barrier, None, None, None),
                    comm: 0,
                },
                RankActivity::Finished,
            ],
        };
        let s = d.to_string();
        assert!(s.contains("rank 0"), "{s}");
        assert!(s.contains("finished"), "{s}");
    }
}
