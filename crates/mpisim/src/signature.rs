//! Collective signatures — what the matcher compares across ranks.
//!
//! Following MUST's checks, a collective only matches if all ranks agree
//! on the *operation*, the *root* (for rooted collectives), the
//! *reduction operator* (for reducing collectives) and the *payload
//! type*. The PARCOACH `CC` control operation is itself a signature so
//! instrumented and uninstrumented call sites can never be confused.

use crate::value::MpiType;
use parcoach_front::ast::{CollectiveKind, ReduceOp};
use std::fmt;

/// The operation field of a signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveOp {
    /// `MPI_Barrier`
    Barrier,
    /// `MPI_Bcast`
    Bcast,
    /// `MPI_Reduce`
    Reduce,
    /// `MPI_Allreduce`
    Allreduce,
    /// `MPI_Gather`
    Gather,
    /// `MPI_Allgather`
    Allgather,
    /// `MPI_Scatter`
    Scatter,
    /// `MPI_Alltoall`
    Alltoall,
    /// `MPI_Scan`
    Scan,
    /// `MPI_Reduce_scatter`
    ReduceScatter,
    /// PARCOACH `CC` control all-reduce (color min/max).
    ControlCc,
    /// `MPI_Finalize` acts as a final synchronizing collective.
    Finalize,
    /// `MPI_Comm_split` — communicator-management collective.
    CommSplit,
    /// `MPI_Comm_dup` — communicator-management collective.
    CommDup,
    /// PARCOACH point-to-point epoch census (world-synchronizing
    /// control collective exchanging per-communicator traffic totals).
    P2pCensus,
}

impl From<CollectiveKind> for CollectiveOp {
    fn from(k: CollectiveKind) -> Self {
        match k {
            CollectiveKind::Barrier => CollectiveOp::Barrier,
            CollectiveKind::Bcast => CollectiveOp::Bcast,
            CollectiveKind::Reduce => CollectiveOp::Reduce,
            CollectiveKind::Allreduce => CollectiveOp::Allreduce,
            CollectiveKind::Gather => CollectiveOp::Gather,
            CollectiveKind::Allgather => CollectiveOp::Allgather,
            CollectiveKind::Scatter => CollectiveOp::Scatter,
            CollectiveKind::Alltoall => CollectiveOp::Alltoall,
            CollectiveKind::Scan => CollectiveOp::Scan,
            CollectiveKind::ReduceScatter => CollectiveOp::ReduceScatter,
        }
    }
}

impl fmt::Display for CollectiveOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CollectiveOp::Barrier => "MPI_Barrier",
            CollectiveOp::Bcast => "MPI_Bcast",
            CollectiveOp::Reduce => "MPI_Reduce",
            CollectiveOp::Allreduce => "MPI_Allreduce",
            CollectiveOp::Gather => "MPI_Gather",
            CollectiveOp::Allgather => "MPI_Allgather",
            CollectiveOp::Scatter => "MPI_Scatter",
            CollectiveOp::Alltoall => "MPI_Alltoall",
            CollectiveOp::Scan => "MPI_Scan",
            CollectiveOp::ReduceScatter => "MPI_Reduce_scatter",
            CollectiveOp::ControlCc => "CC (PARCOACH check)",
            CollectiveOp::Finalize => "MPI_Finalize",
            CollectiveOp::CommSplit => "MPI_Comm_split",
            CollectiveOp::CommDup => "MPI_Comm_dup",
            CollectiveOp::P2pCensus => "P2P census (PARCOACH check)",
        };
        write!(f, "{name}")
    }
}

/// The full matched signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Operation.
    pub op: CollectiveOp,
    /// Reduction operator for reducing collectives.
    pub reduce_op: Option<ReduceOp>,
    /// Root rank for rooted collectives.
    pub root: Option<usize>,
    /// Payload type tag.
    pub ty: Option<MpiType>,
}

impl Signature {
    /// Build a collective signature.
    pub fn collective(
        op: CollectiveOp,
        reduce_op: Option<ReduceOp>,
        root: Option<usize>,
        ty: Option<MpiType>,
    ) -> Signature {
        Signature {
            op,
            reduce_op,
            root,
            ty,
        }
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.op)?;
        if let Some(op) = self.reduce_op {
            write!(f, " op={}", op.name())?;
        }
        if let Some(r) = self.root {
            write!(f, " root={r}")?;
        }
        if let Some(t) = self.ty {
            write!(f, " type={t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_conversion_total() {
        for k in CollectiveKind::ALL {
            let op: CollectiveOp = k.into();
            assert!(!op.to_string().is_empty());
        }
    }

    #[test]
    fn signature_equality_sensitive_to_fields() {
        let a = Signature::collective(CollectiveOp::Bcast, None, Some(0), Some(MpiType::Int));
        let b = Signature::collective(CollectiveOp::Bcast, None, Some(1), Some(MpiType::Int));
        let c = Signature::collective(CollectiveOp::Bcast, None, Some(0), Some(MpiType::Float));
        assert_ne!(a, b, "root differs");
        assert_ne!(a, c, "type differs");
        assert_eq!(
            a,
            Signature::collective(CollectiveOp::Bcast, None, Some(0), Some(MpiType::Int))
        );
    }

    #[test]
    fn display_forms() {
        let s = Signature::collective(
            CollectiveOp::Reduce,
            Some(ReduceOp::Max),
            Some(2),
            Some(MpiType::Float),
        );
        let text = s.to_string();
        assert!(text.contains("MPI_Reduce"));
        assert!(text.contains("op=MAX"));
        assert!(text.contains("root=2"));
        assert!(text.contains("type=float"));
    }
}
