//! Core identifier and operand types for the IR.

use parcoach_front::ast::{Operand, Type};
use std::fmt;

/// A virtual register (three-address temporary or named local).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl Reg {
    /// Index into per-function register tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A basic-block id, dense per function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Index into the block table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Id of an OpenMP region *instance* within a function.
///
/// This is the `i` of the paper's `P_i` / `S_i` tokens: "parallel regions
/// are denoted by `P i`, with `i` the id of the node with the OpenMP
/// construct".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A compile-time constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Const {
    /// Integer constant.
    Int(i64),
    /// Float constant.
    Float(f64),
    /// Boolean constant.
    Bool(bool),
}

impl Const {
    /// Static type of the constant.
    pub fn ty(self) -> Type {
        match self {
            Const::Int(_) => Type::Int,
            Const::Float(_) => Type::Float,
            Const::Bool(_) => Type::Bool,
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Int(v) => write!(f, "{v}"),
            Const::Float(v) => write!(f, "{v}"),
            Const::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// An instruction operand: a register or an immediate constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Read a register.
    Reg(Reg),
    /// Immediate.
    Const(Const),
}

impl Value {
    /// Integer immediate helper.
    pub fn int(v: i64) -> Value {
        Value::Const(Const::Int(v))
    }

    /// Bool immediate helper.
    pub fn bool(v: bool) -> Value {
        Value::Const(Const::Bool(v))
    }

    /// The register read, if any.
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Value::Reg(r) => Some(r),
            Value::Const(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Reg(r) => write!(f, "{r}"),
            Value::Const(c) => write!(f, "{c}"),
        }
    }
}

/// An IR operand of an MPI operation: `MPI_Waitall`'s list is a vector.
impl Operand for Value {
    type List = Vec<Value>;

    fn list(list: &Vec<Value>) -> impl Iterator<Item = Value> + '_ {
        list.iter().copied()
    }
}

impl From<Reg> for Value {
    fn from(r: Reg) -> Value {
        Value::Reg(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Reg(3).to_string(), "%3");
        assert_eq!(BlockId(7).to_string(), "bb7");
        assert_eq!(RegionId(1).to_string(), "r1");
        assert_eq!(Value::int(5).to_string(), "5");
        assert_eq!(Value::Reg(Reg(2)).to_string(), "%2");
    }

    #[test]
    fn const_types() {
        assert_eq!(Const::Int(1).ty(), Type::Int);
        assert_eq!(Const::Float(1.0).ty(), Type::Float);
        assert_eq!(Const::Bool(true).ty(), Type::Bool);
    }

    #[test]
    fn value_as_reg() {
        assert_eq!(Value::Reg(Reg(4)).as_reg(), Some(Reg(4)));
        assert_eq!(Value::int(4).as_reg(), None);
    }
}
