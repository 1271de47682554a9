//! Static handle resolution: every `comm`- and `request`-typed register
//! resolved to the creation site of the handle it holds, in one pass.
//!
//! The analysis does not know the *runtime* handle objects, but it can
//! distinguish their *creation sites*. `MPI_COMM_WORLD`, each
//! `MPI_Comm_split(...)` and each `MPI_Comm_dup(...)` call site form one
//! static communicator class ([`crate::comm`]); each `MPI_Isend` /
//! `MPI_Irecv` call site forms one static request class
//! ([`crate::request`]). Every rank executing the same (SPMD) program
//! creates its handles at the same sites, so two operations resolve to
//! the same class exactly when their handles can be the same at run time.
//!
//! Both families are resolved by one flow-insensitive per-register
//! fixpoint over each function that has a handle-typed register.
//! Registers are not SSA: a register assigned handles from two different
//! creation sites, or by any non-MPI definition (a call result, a
//! parameter), degrades to the family's unknown class, which
//! conservatively aliases everything. Request handles cannot cross
//! function boundaries in MiniHPC (no `request` parameters or returns),
//! so requests resolve purely per function.

use crate::comm::{CommDef, CommId};
use crate::request::{ReqDef, ReqId, ReqResolution};
use parcoach_front::ast::Type;
use parcoach_ir::func::{FuncIr, Module};
use parcoach_ir::instr::{Instr, MpiOp};
use parcoach_ir::types::Value;
use parcoach_ir::Locator;
use std::collections::HashMap;
use std::hash::Hash;

/// Is `t` a handle type the resolution tracks?
pub(crate) fn is_handle(t: Type) -> bool {
    matches!(t, Type::Comm | Type::Request)
}

/// A module-wide interning table of static classes: the `n`-th distinct
/// definition interned gets id `n`.
#[derive(Debug, Clone)]
pub struct ClassTable<D> {
    defs: Vec<D>,
    by_def: HashMap<D, u32>,
}

impl<D: Copy + Eq + Hash> ClassTable<D> {
    /// A table holding the built-in classes, numbered in order from 0.
    fn with(builtins: &[D]) -> Self {
        let mut t = ClassTable {
            defs: Vec::new(),
            by_def: HashMap::new(),
        };
        for &d in builtins {
            t.intern(d);
        }
        t
    }

    fn intern(&mut self, def: D) -> u32 {
        let next = self.defs.len() as u32;
        let id = *self.by_def.entry(def).or_insert(next);
        if id == next {
            self.defs.push(def);
        }
        id
    }

    /// The definition of the class numbered `id`.
    pub fn def(&self, id: u32) -> D {
        self.defs[id as usize]
    }

    /// Number of interned classes, built-ins included.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.defs.len()
    }
}

/// Per-register lattice value during the fixpoint: a class id of the
/// register's own family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lattice {
    /// Not yet assigned.
    Bottom,
    /// Exactly this class along every definition.
    One(u32),
    /// Several classes, or an unresolvable definition.
    Many,
}

impl Lattice {
    fn join(self, id: u32) -> Lattice {
        match self {
            Lattice::Bottom => Lattice::One(id),
            Lattice::One(c) if c == id => self,
            _ => Lattice::Many,
        }
    }
}

/// What one register resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegHandle {
    /// Not a handle-typed register.
    None,
    Comm(CommId),
    Req(ReqResolution),
}

/// Resolved handle classes of one function's registers.
#[derive(Debug, Clone, Default)]
pub struct FuncHandles {
    /// Per register index; empty for a function without handle-typed
    /// registers, which reads the same.
    per_reg: Vec<RegHandle>,
}

impl FuncHandles {
    fn at(&self, v: Value) -> RegHandle {
        match v {
            Value::Reg(r) => self
                .per_reg
                .get(r.index())
                .copied()
                .unwrap_or(RegHandle::None),
            // Handle operands are never constants (sema enforces the
            // type); a constant here is hand-built IR.
            Value::Const(_) => RegHandle::None,
        }
    }

    /// The class a comm-typed operand resolves to (no operand = world).
    pub fn comm(&self, v: Option<Value>) -> CommId {
        match v.map(|v| self.at(v)) {
            None => CommId::WORLD,
            Some(RegHandle::Comm(c)) => c,
            Some(_) => CommId::UNKNOWN,
        }
    }

    /// The resolution of a request-typed operand.
    pub fn req(&self, v: Value) -> ReqResolution {
        match self.at(v) {
            RegHandle::Req(r) => r,
            _ => ReqResolution::Unknown,
        }
    }
}

/// Module-wide result: the two interned tables and every function's
/// register resolution.
#[derive(Debug, Clone)]
pub struct ModuleHandles {
    /// Interned communicator classes.
    pub comms: ClassTable<CommDef>,
    /// Interned request classes.
    pub reqs: ClassTable<ReqDef>,
    /// Indexed like `Module::funcs`.
    per_func: Vec<FuncHandles>,
}

impl ModuleHandles {
    /// The register resolution of function `fidx`.
    pub fn func(&self, fidx: usize) -> &FuncHandles {
        &self.per_func[fidx]
    }

    /// All that code reading the communicator table through function
    /// `fidx` can see of it: the class of each of the function's
    /// `comm`-typed registers, with how the class was created (the label
    /// prints both). Empty for a function without such registers.
    pub fn view(&self, fidx: usize) -> Vec<(CommId, CommDef)> {
        let regs = self.per_func[fidx].per_reg.iter();
        regs.filter_map(|h| match *h {
            RegHandle::Comm(c) => Some((c, self.comms.def(c.0))),
            _ => None,
        })
        .collect()
    }
}

/// Resolve every handle register of a whole module. Deterministic:
/// functions are visited in module order and instructions in block
/// order, so interned ids are stable — [`CommId::WORLD`] and
/// [`CommId::UNKNOWN`] first, then split/dup sites; [`ReqId::UNKNOWN`]
/// first, then post sites.
pub fn compute_handles(m: &Module) -> ModuleHandles {
    let mut comms = ClassTable::with(&[CommDef::World, CommDef::Unknown]);
    let mut reqs = ClassTable::with(&[ReqDef::Unknown]);
    // A function with no handle-typed register can neither create a
    // handle (creation sites define handle-typed destinations) nor carry
    // one: it resolves to the empty vector.
    let per_func = m.funcs.iter().enumerate().map(|(fidx, f)| {
        if f.reg_types.iter().any(|&t| is_handle(t)) {
            resolve(fidx, f, &mut comms, &mut reqs)
        } else {
            FuncHandles::default()
        }
    });
    let per_func = per_func.collect();
    ModuleHandles {
        comms,
        reqs,
        per_func,
    }
}

/// The per-register fixpoint over one function. Copy chains propagate;
/// the loop iterates until stable (bounded by the register count, in
/// practice two rounds).
fn resolve(
    fidx: usize,
    f: &FuncIr,
    comms: &mut ClassTable<CommDef>,
    reqs: &mut ClassTable<ReqDef>,
) -> FuncHandles {
    let mut state: Vec<Lattice> = f
        .reg_types
        .iter()
        .map(|&t| {
            if is_handle(t) {
                Lattice::Bottom
            } else {
                Lattice::Many
            }
        })
        .collect();
    // Handle-typed parameters come from unknown callers. (Request
    // parameters cannot exist in type-checked source; hand-built IR gets
    // the conservative treatment.)
    for &p in &f.params {
        state[p.index()] = Lattice::Many;
    }
    loop {
        let mut changed = false;
        for bid in f.block_ids() {
            for (iidx, (i, _)) in f.instrs(bid).iter().enumerate() {
                let Some(d) = i.dest().filter(|d| is_handle(f.reg_types[d.index()])) else {
                    continue;
                };
                let at = Locator::Instr(fidx, bid, iidx);
                let now = state[d.index()];
                let next = match i {
                    Instr::Mpi { op, .. } => match op {
                        MpiOp::CommWorld => now.join(comms.intern(CommDef::World)),
                        MpiOp::CommSplit { .. } => now.join(comms.intern(CommDef::Split(at))),
                        MpiOp::CommDup { .. } => now.join(comms.intern(CommDef::Dup(at))),
                        MpiOp::Isend { .. } => now.join(reqs.intern(ReqDef::Isend(at))),
                        MpiOp::Irecv { .. } => now.join(reqs.intern(ReqDef::Irecv(at))),
                        _ => now,
                    },
                    Instr::Copy {
                        src: Value::Reg(s), ..
                    } => match state[s.index()] {
                        Lattice::Bottom => now,
                        Lattice::One(c) => now.join(c),
                        Lattice::Many => Lattice::Many,
                    },
                    // Any other definition (call result, constant copy)
                    // is unresolvable.
                    _ => Lattice::Many,
                };
                if next != now {
                    state[d.index()] = next;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // The end-of-fixpoint mapping is per family: a comm register never
    // assigned reads as unknown, a request register never assigned is
    // never posted (which the life-cycle pass reports).
    let per_reg = f.reg_types.iter().zip(state).map(|(t, s)| match (t, s) {
        (Type::Comm, Lattice::One(c)) => RegHandle::Comm(CommId(c)),
        (Type::Comm, _) => RegHandle::Comm(CommId::UNKNOWN),
        (Type::Request, Lattice::Bottom) => RegHandle::Req(ReqResolution::NeverPosted),
        (Type::Request, Lattice::One(c)) => RegHandle::Req(ReqResolution::One(ReqId(c))),
        (Type::Request, Lattice::Many) => RegHandle::Req(ReqResolution::Unknown),
        _ => RegHandle::None,
    });
    FuncHandles {
        per_reg: per_reg.collect(),
    }
}
