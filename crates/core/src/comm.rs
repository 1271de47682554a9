//! Static communicator abstraction: a small interned communicator table
//! plus a per-register resolution pass.
//!
//! The analysis does not know the *runtime* communicator objects, but it
//! can distinguish their *creation sites*: `MPI_COMM_WORLD`, each
//! `MPI_Comm_split(...)` call site and each `MPI_Comm_dup(...)` call
//! site form one static communicator class. Every rank executing the
//! same (SPMD) program creates its communicators at the same sites, so
//! two collectives resolve to the same class exactly when they can meet
//! at run time — subcommunicators created by one split site match among
//! themselves and never against another site's. Handles flowing through
//! control-flow merges or function boundaries degrade to
//! [`CommId::UNKNOWN`], which conservatively groups with everything.

use crate::query::Locator;
use parcoach_front::ast::Type;
use parcoach_ir::func::{FuncIr, Module};
use parcoach_ir::instr::{Instr, MpiIr};
use parcoach_ir::types::Value;
use std::collections::HashMap;
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

/// The module-wide interned communicator table.
#[derive(Debug, Clone, Default)]
pub struct CommTable {
    defs: Vec<CommDef>,
    by_def: HashMap<CommDef, CommId>,
}

impl CommTable {
    fn new() -> CommTable {
        let mut t = CommTable::default();
        let w = t.intern(CommDef::World);
        let u = t.intern(CommDef::Unknown);
        debug_assert_eq!(w, CommId::WORLD);
        debug_assert_eq!(u, CommId::UNKNOWN);
        t
    }

    /// Intern a definition, returning its stable id.
    pub fn intern(&mut self, def: CommDef) -> CommId {
        if let Some(&id) = self.by_def.get(&def) {
            return id;
        }
        let id = CommId(self.defs.len() as u32);
        self.defs.push(def);
        self.by_def.insert(def, id);
        id
    }

    /// The definition of an interned id.
    pub fn def(&self, id: CommId) -> CommDef {
        self.defs[id.0 as usize]
    }

    /// Number of interned classes (including world and unknown).
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True when only the two built-in classes exist.
    pub fn is_empty(&self) -> bool {
        self.defs.len() <= 2
    }

    /// Human label for warnings: `COMM_WORLD`, `comm split at <lo>`, ….
    pub fn label(&self, id: CommId) -> CommLabel<'_> {
        CommLabel { table: self, id }
    }
}

/// Display adapter for communicator labels in warnings.
pub struct CommLabel<'a> {
    table: &'a CommTable,
    id: CommId,
}

impl fmt::Display for CommLabel<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.table.def(self.id) {
            CommDef::World => write!(f, "MPI_COMM_WORLD"),
            CommDef::Unknown => write!(f, "an unresolved communicator"),
            CommDef::Split(_) => write!(f, "split communicator #{}", self.id.0),
            CommDef::Dup(_) => write!(f, "duplicated communicator #{}", self.id.0),
        }
    }
}

/// Per-register communicator lattice value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegComm {
    /// Not yet assigned (bottom).
    Bottom,
    /// Exactly this class along every def.
    One(CommId),
    /// Multiple classes merge here (top → [`CommId::UNKNOWN`]).
    Many,
}

impl RegComm {
    fn join(self, other: CommId) -> RegComm {
        match self {
            RegComm::Bottom => RegComm::One(other),
            RegComm::One(c) if c == other => self,
            _ => RegComm::Many,
        }
    }
}

/// Resolved communicator classes for one function's registers.
#[derive(Debug, Clone, Default)]
pub struct FuncComms {
    /// Class per register index; None for non-comm registers.
    per_reg: Vec<Option<CommId>>,
}

impl FuncComms {
    /// The class a comm-typed operand resolves to (None operand = world).
    pub fn of_operand(&self, v: Option<Value>) -> CommId {
        match v {
            None => CommId::WORLD,
            Some(Value::Reg(r)) => self
                .per_reg
                .get(r.index())
                .copied()
                .flatten()
                .unwrap_or(CommId::UNKNOWN),
            // Comm operands are never constants (sema enforces the type).
            Some(Value::Const(_)) => CommId::UNKNOWN,
        }
    }
}

/// Module-wide result: the interned table + per-function resolution.
#[derive(Debug, Clone, Default)]
pub struct ModuleComms {
    /// The interned table.
    pub table: CommTable,
    /// Per function name: register resolution.
    pub per_func: HashMap<String, FuncComms>,
}

/// Shared empty resolution for functions absent from the map.
static EMPTY_FUNC_COMMS: FuncComms = FuncComms {
    per_reg: Vec::new(),
};

impl ModuleComms {
    /// Borrowed resolution for one function (a shared empty resolution
    /// when absent) — the analysis phases read this through
    /// [`crate::facts::AnalysisCx`].
    pub fn func(&self, name: &str) -> &FuncComms {
        self.per_func.get(name).unwrap_or(&EMPTY_FUNC_COMMS)
    }

    /// All that code reading the table through function `func` can see
    /// of it: the class of each of the function's `comm`-typed registers,
    /// with how the class was created ([`CommTable::label`] prints both).
    /// Empty for a function without such registers.
    pub fn view(&self, func: &str) -> Vec<(CommId, CommDef)> {
        let classes = self.func(func).per_reg.iter().flatten();
        classes.map(|&id| (id, self.table.def(id))).collect()
    }

    /// Resolve a comm operand of an instruction in `func`.
    pub fn resolve(&self, func: &str, v: Option<Value>) -> CommId {
        match self.per_func.get(func) {
            Some(fc) => fc.of_operand(v),
            None => match v {
                None => CommId::WORLD,
                Some(_) => CommId::UNKNOWN,
            },
        }
    }
}

/// Compute the communicator table and per-function register resolution
/// for a whole module. Deterministic: functions are visited in module
/// order and instructions in block order, so interned ids are stable.
pub fn compute_comms(m: &Module) -> ModuleComms {
    let mut table = CommTable::new();
    let mut per_func = HashMap::new();
    for (fidx, f) in m.funcs.iter().enumerate() {
        per_func.insert(f.name.clone(), resolve_func(fidx, f, &mut table));
    }
    ModuleComms { table, per_func }
}

/// Flow-insensitive per-register fixpoint over one function.
///
/// Registers are not SSA: a register assigned communicators from two
/// different creation sites (or any non-MPI definition, e.g. a call
/// result or parameter) degrades to [`CommId::UNKNOWN`]. Copy chains of
/// comm-typed registers propagate; the loop iterates until stable
/// (bounded by the register count, in practice two rounds).
fn resolve_func(fidx: usize, f: &FuncIr, table: &mut CommTable) -> FuncComms {
    let n = f.reg_types.len();
    // Fast path: a function with no comm-typed register can neither
    // create a communicator class (creation sites define comm-typed
    // destinations) nor carry one — the fixpoint below would do one
    // full instruction walk only to conclude exactly this.
    if !f.reg_types.contains(&Type::Comm) {
        return FuncComms {
            per_reg: vec![None; n],
        };
    }
    let mut state: Vec<RegComm> = (0..n)
        .map(|i| {
            if f.reg_types[i] == Type::Comm {
                RegComm::Bottom
            } else {
                RegComm::Many // non-comm registers are never queried
            }
        })
        .collect();
    // Comm-typed parameters come from unknown callers.
    for &p in &f.params {
        if f.reg_types[p.index()] == Type::Comm {
            state[p.index()] = RegComm::Many;
        }
    }
    loop {
        let mut changed = false;
        let set = |state: &mut Vec<RegComm>, r: parcoach_ir::types::Reg, c: CommId| {
            let next = state[r.index()].join(c);
            if next != state[r.index()] {
                state[r.index()] = next;
                true
            } else {
                false
            }
        };
        for (bid, b) in f.iter_blocks() {
            for (iidx, i) in b.instrs.iter().enumerate() {
                match i {
                    Instr::Mpi {
                        dest: Some(d), op, ..
                    } => {
                        let def = match op {
                            MpiIr::CommWorld => Some(CommDef::World),
                            MpiIr::CommSplit { .. } => {
                                Some(CommDef::Split(Locator::Instr(fidx, bid, iidx)))
                            }
                            MpiIr::CommDup { .. } => {
                                Some(CommDef::Dup(Locator::Instr(fidx, bid, iidx)))
                            }
                            _ => None,
                        };
                        if let Some(def) = def {
                            let id = table.intern(def);
                            changed |= set(&mut state, *d, id);
                        }
                    }
                    Instr::Copy {
                        dest,
                        src: Value::Reg(s),
                    } if f.reg_types[dest.index()] == Type::Comm => match state[s.index()] {
                        RegComm::Bottom => {}
                        RegComm::One(c) => changed |= set(&mut state, *dest, c),
                        RegComm::Many => {
                            changed |= set(&mut state, *dest, CommId::UNKNOWN);
                            if state[dest.index()] != RegComm::Many {
                                state[dest.index()] = RegComm::Many;
                            }
                        }
                    },
                    // Any other definition of a comm-typed register
                    // (call result, constant copy) is unresolvable.
                    _ => {
                        if let Some(d) = i.dest() {
                            if f.reg_types[d.index()] == Type::Comm
                                && !matches!(
                                    i,
                                    Instr::Mpi { .. }
                                        | Instr::Copy {
                                            src: Value::Reg(_),
                                            ..
                                        }
                                )
                                && state[d.index()] != RegComm::Many
                            {
                                state[d.index()] = RegComm::Many;
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    FuncComms {
        per_reg: (0..n)
            .map(|i| {
                if f.reg_types[i] != Type::Comm {
                    None
                } else {
                    Some(match state[i] {
                        RegComm::Bottom => CommId::UNKNOWN, // never assigned
                        RegComm::One(c) => c,
                        RegComm::Many => CommId::UNKNOWN,
                    })
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcoach_front::parse_and_check;
    use parcoach_ir::lower::lower_program;

    fn comms(src: &str) -> (Module, ModuleComms) {
        let unit = parse_and_check("t.mh", src).expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        let c = compute_comms(&m);
        (m, c)
    }

    /// Comm classes of every collective in `main`, in program order.
    fn collective_comms(src: &str) -> Vec<CommId> {
        let (m, mc) = comms(src);
        let f = m.main().unwrap();
        let fc = mc.func("main");
        let mut out = Vec::new();
        for b in &f.blocks {
            for i in &b.instrs {
                if let Instr::Mpi {
                    op: MpiIr::Collective { comm, .. },
                    ..
                } = i
                {
                    out.push(fc.of_operand(*comm));
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
        assert_eq!(mc.table.label(CommId::WORLD).to_string(), "MPI_COMM_WORLD");
        let split = CommId(2);
        assert!(mc.table.label(split).to_string().contains("split"));
    }
}
