//! Static communicator classes: `MPI_COMM_WORLD`, each
//! `MPI_Comm_split(...)` call site and each `MPI_Comm_dup(...)` call site
//! form one class; [`crate::handle`] resolves every `comm`-typed
//! register to one. Subcommunicators created by one split site match
//! among themselves and never against another site's. Handles flowing
//! through control-flow merges or function boundaries degrade to
//! [`CommId::UNKNOWN`], which conservatively groups with everything.

use crate::handle::ClassTable;
use parcoach_ir::Locator;
use std::fmt;

/// An interned static communicator class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommId(pub u32);

impl CommId {
    /// `MPI_COMM_WORLD`.
    pub const WORLD: CommId = CommId(0);
    /// A handle the analysis could not resolve to one creation site
    /// (merged control flow, function parameter, call result).
    pub const UNKNOWN: CommId = CommId(1);

    /// True for the world communicator.
    pub fn is_world(self) -> bool {
        self == CommId::WORLD
    }

    /// True for the unresolved class.
    pub fn is_unknown(self) -> bool {
        self == CommId::UNKNOWN
    }

    /// Can collectives on `self` and `other` meet at run time? Equal
    /// classes always can; the unknown class conservatively meets
    /// everything.
    pub fn may_alias(self, other: CommId) -> bool {
        self == other || self.is_unknown() || other.is_unknown()
    }
}

/// How a static communicator class was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommDef {
    /// `MPI_COMM_WORLD`.
    World,
    /// Unresolvable handle.
    Unknown,
    /// One `MPI_Comm_split` call site.
    Split(Locator),
    /// One `MPI_Comm_dup` call site.
    Dup(Locator),
}

impl ClassTable<CommDef> {
    /// Human label for warnings: `MPI_COMM_WORLD`, `split communicator
    /// #2`, ….
    pub fn label(&self, id: CommId) -> CommLabel<'_> {
        CommLabel { table: self, id }
    }
}

/// Display adapter for communicator labels in warnings.
pub struct CommLabel<'a> {
    table: &'a ClassTable<CommDef>,
    id: CommId,
}

impl fmt::Display for CommLabel<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.table.def(self.id.0) {
            CommDef::World => write!(f, "MPI_COMM_WORLD"),
            CommDef::Unknown => write!(f, "an unresolved communicator"),
            CommDef::Split(_) => write!(f, "split communicator #{}", self.id.0),
            CommDef::Dup(_) => write!(f, "duplicated communicator #{}", self.id.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::{compute_handles, ModuleHandles};
    use parcoach_front::parse_and_check;
    use parcoach_ir::func::Module;
    use parcoach_ir::instr::{Instr, MpiOp};
    use parcoach_ir::lower::lower_program;

    fn comms(src: &str) -> (Module, ModuleHandles) {
        let unit = parse_and_check("t.mh", src).expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        let c = compute_handles(&m);
        (m, c)
    }

    /// Comm classes of every collective in `main`, in program order.
    fn collective_comms(src: &str) -> Vec<CommId> {
        let (m, mc) = comms(src);
        let f = m.main().unwrap();
        let fc = mc.func(m.index("main").unwrap());
        let mut out = Vec::new();
        for b in f.block_ids() {
            for (i, _) in f.instrs(b) {
                if let Instr::Mpi {
                    op: MpiOp::Collective { comm, .. },
                    ..
                } = i
                {
                    out.push(fc.comm(*comm));
                }
            }
        }
        out
    }

    #[test]
    fn default_comm_is_world() {
        let ids = collective_comms("fn main() { MPI_Barrier(); }");
        assert_eq!(ids, vec![CommId::WORLD]);
    }

    #[test]
    fn explicit_world_is_world() {
        let ids = collective_comms("fn main() { MPI_Barrier(MPI_COMM_WORLD); }");
        assert_eq!(ids, vec![CommId::WORLD]);
    }

    #[test]
    fn split_sites_distinct() {
        let ids = collective_comms(
            "fn main() {
                let a = MPI_Comm_split(MPI_COMM_WORLD, 0, rank());
                let b = MPI_Comm_split(MPI_COMM_WORLD, 0, rank());
                MPI_Barrier(a);
                MPI_Barrier(b);
                MPI_Barrier();
            }",
        );
        assert_eq!(ids.len(), 3);
        assert_ne!(ids[0], ids[1], "two split sites are distinct classes");
        assert_eq!(ids[2], CommId::WORLD);
        assert!(!ids[0].may_alias(ids[1]));
    }

    #[test]
    fn dup_and_copy_propagate() {
        let ids = collective_comms(
            "fn main() {
                let c = MPI_Comm_dup(MPI_COMM_WORLD);
                let d = c;
                MPI_Barrier(c);
                MPI_Barrier(d);
            }",
        );
        assert_eq!(ids[0], ids[1], "copies keep the class");
        assert!(!ids[0].is_world());
        assert!(!ids[0].is_unknown());
    }

    #[test]
    fn merged_assignment_degrades_to_unknown() {
        let ids = collective_comms(
            "fn main() {
                let c = MPI_Comm_dup(MPI_COMM_WORLD);
                if (rank() == 0) { c = MPI_Comm_split(MPI_COMM_WORLD, 0, 0); }
                MPI_Barrier(c);
            }",
        );
        assert_eq!(ids, vec![CommId::UNKNOWN]);
        assert!(CommId::UNKNOWN.may_alias(CommId::WORLD));
    }

    #[test]
    fn labels_render() {
        let (_m, mc) = comms(
            "fn main() {
                let a = MPI_Comm_split(MPI_COMM_WORLD, 0, rank());
                MPI_Barrier(a);
            }",
        );
        assert_eq!(mc.comms.label(CommId::WORLD).to_string(), "MPI_COMM_WORLD");
        let split = CommId(2);
        assert!(mc.comms.label(split).to_string().contains("split"));
    }
}
