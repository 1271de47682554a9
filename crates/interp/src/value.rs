//! Runtime values.
//!
//! Scalars are copied; arrays are reference types, so element writes are
//! visible across threads, nested parallel regions and function calls —
//! the shared-memory semantics of the C/Fortran codes the paper analyses.
//! An array is one `Arc` of atomic elements (a float element holds its
//! bits in an `AtomicU64`) and takes no lock: its length is fixed when it
//! is created, and each element is loaded and stored on its own with
//! `Relaxed` ordering. Team barriers, joins and MPI calls synchronise
//! through the simulators' locks, which order element accesses between
//! them; a simulated program that races on an element sees the race as
//! values, as its C original would.

use parcoach_front::ast::Type;
use parcoach_ir::types::Const;
use parcoach_mpisim::MpiValue;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// An array's elements: each an `i64`'s or an `f64`'s bits, as the
/// array's static type says.
pub type Array = Arc<Vec<AtomicU64>>;

/// A runtime value, as it crosses the interpreter's boundaries: an MPI
/// payload, a `print` argument, a call's result. Inside a function a
/// register holds bits in its frame's typed banks instead.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Shared integer array.
    ArrayInt(Array),
    /// Shared float array.
    ArrayFloat(Array),
    /// An MPI communicator handle (0 = `MPI_COMM_WORLD`).
    Comm(usize),
    /// A non-blocking MPI request handle ([`Value::NULL_REQUEST`] before
    /// the register is first assigned — waiting on it is a run-time
    /// argument error).
    Request(usize),
}

impl Value {
    /// The request-register default: an invalid handle the simulator
    /// rejects, so waiting on a never-posted request cannot silently
    /// alias request #0.
    pub const NULL_REQUEST: usize = usize::MAX;

    /// The bits a scalar register of type `ty` holds before its first
    /// assignment: zero, `0.0`, `false`, `MPI_COMM_WORLD`, or the null
    /// request.
    pub(crate) fn default_bits(ty: Type) -> u64 {
        match ty {
            Type::Request => Value::NULL_REQUEST as u64,
            _ => 0,
        }
    }

    /// A constant's bits.
    pub(crate) fn const_bits(c: Const) -> u64 {
        match c {
            Const::Int(x) => x as u64,
            Const::Float(x) => x.to_bits(),
            Const::Bool(x) => x as u64,
        }
    }

    /// The value a scalar register of type `ty` holding `bits` has.
    pub(crate) fn from_bits(ty: Type, bits: u64) -> Value {
        match ty {
            Type::Int | Type::Void => Value::Int(bits as i64),
            Type::Float => Value::Float(f64::from_bits(bits)),
            Type::Bool => Value::Bool(bits != 0),
            Type::Comm => Value::Comm(bits as usize),
            Type::Request => Value::Request(bits as usize),
            Type::ArrayInt | Type::ArrayFloat => panic!("an array is not a scalar register"),
        }
    }

    /// The value an array register of type `ty` holds (`None`: never
    /// assigned, an empty array).
    pub(crate) fn from_array(ty: Type, a: Option<Array>) -> Value {
        let a = a.unwrap_or_default();
        match ty {
            Type::ArrayInt => Value::ArrayInt(a),
            Type::ArrayFloat => Value::ArrayFloat(a),
            other => panic!("{other} is not an array type"),
        }
    }

    /// A scalar's bits, as a register holds them.
    pub(crate) fn bits(&self) -> u64 {
        match *self {
            Value::Int(x) => x as u64,
            Value::Float(x) => x.to_bits(),
            Value::Bool(x) => x as u64,
            Value::Comm(h) | Value::Request(h) => h as u64,
            Value::ArrayInt(_) | Value::ArrayFloat(_) => panic!("an array is not a scalar"),
        }
    }

    /// An array's elements.
    pub(crate) fn into_array(self) -> Array {
        match self {
            Value::ArrayInt(a) | Value::ArrayFloat(a) => a,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    /// `len` copies of `bits` as an array, or `None` when the memory
    /// cannot be had (the program asked for more than the machine has,
    /// or than an address space holds).
    pub(crate) fn filled_array(len: usize, bits: u64) -> Option<Array> {
        let mut v = Vec::new();
        v.try_reserve_exact(len).ok()?;
        v.extend((0..len).map(|_| AtomicU64::new(bits)));
        Some(Arc::new(v))
    }

    /// Convert to an MPI payload (arrays are copied element by element,
    /// so a later store does not reach the message).
    pub fn to_mpi(&self) -> MpiValue {
        match self {
            Value::Int(v) => MpiValue::Int(*v),
            Value::Float(v) => MpiValue::Float(*v),
            Value::Bool(v) => MpiValue::Int(*v as i64),
            Value::ArrayInt(a) => MpiValue::ArrayInt(int_elems(a).collect()),
            Value::ArrayFloat(a) => MpiValue::ArrayFloat(float_elems(a).collect()),
            Value::Comm(_) => panic!("communicator handles are not MPI payloads"),
            Value::Request(_) => panic!("request handles are not MPI payloads"),
        }
    }

    /// Convert from an MPI result.
    pub fn from_mpi(v: MpiValue) -> Value {
        let array = |bits: Vec<u64>| Arc::new(bits.into_iter().map(AtomicU64::new).collect());
        match v {
            MpiValue::Int(x) => Value::Int(x),
            MpiValue::Float(x) => Value::Float(x),
            MpiValue::ArrayInt(a) => {
                Value::ArrayInt(array(a.into_iter().map(|x| x as u64).collect()))
            }
            MpiValue::ArrayFloat(a) => {
                Value::ArrayFloat(array(a.into_iter().map(f64::to_bits).collect()))
            }
        }
    }
}

/// An integer array's elements, each loaded on its own.
fn int_elems(a: &[AtomicU64]) -> impl Iterator<Item = i64> + '_ {
    a.iter().map(|x| x.load(Relaxed) as i64)
}

/// A float array's elements, each loaded on its own.
fn float_elems(a: &[AtomicU64]) -> impl Iterator<Item = f64> + '_ {
    a.iter().map(|x| f64::from_bits(x.load(Relaxed)))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            // The bytes a `Vec`'s `{:?}` prints: `[1, 2]`, `[0.5, 2.0]`.
            Value::ArrayInt(a) => f.debug_list().entries(int_elems(a)).finish(),
            Value::ArrayFloat(a) => f.debug_list().entries(float_elems(a)).finish(),
            Value::Comm(h) => write!(f, "comm#{h}"),
            Value::Request(h) if *h == Value::NULL_REQUEST => write!(f, "request#<null>"),
            Value::Request(h) => write!(f, "request#{h}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_types() {
        let default = |ty| Value::from_bits(ty, Value::default_bits(ty)).to_string();
        assert_eq!(default(Type::Int), "0");
        assert_eq!(default(Type::Float), "0");
        assert_eq!(default(Type::Bool), "false");
        assert_eq!(default(Type::Comm), "comm#0");
        assert_eq!(default(Type::Request), "request#<null>");
        assert_eq!(Value::from_array(Type::ArrayInt, None).to_string(), "[]");
    }

    /// An array is one thin pointer, so a value stays two words.
    #[test]
    fn a_value_is_two_words() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    #[test]
    fn arrays_are_reference_types() {
        let a = Value::filled_array(2, 0).unwrap();
        let b = Value::ArrayInt(a.clone());
        a[1].store(7, Relaxed);
        assert_eq!(b.to_string(), "[0, 7]");
        let minus_one = Value::ArrayInt(Value::filled_array(1, -1i64 as u64).unwrap());
        assert_eq!(minus_one.to_string(), "[-1]");
    }

    #[test]
    fn mpi_roundtrip() {
        let v = Value::Int(42);
        assert_eq!(v.to_mpi(), MpiValue::Int(42));
        let arr = Value::from_mpi(MpiValue::ArrayFloat(vec![1.0, 2.0]));
        assert_eq!(arr.to_mpi(), MpiValue::ArrayFloat(vec![1.0, 2.0]));
        // A copy: storing into the array after to_mpi must not alter the
        // payload.
        let payload = arr.to_mpi();
        arr.clone().into_array()[0].store(3.0f64.to_bits(), Relaxed);
        assert_eq!(payload, MpiValue::ArrayFloat(vec![1.0, 2.0]));
        assert_eq!(arr.to_mpi(), MpiValue::ArrayFloat(vec![3.0, 2.0]));
        let ints = Value::from_mpi(MpiValue::ArrayInt(vec![-3, 4]));
        assert_eq!(ints.to_mpi(), MpiValue::ArrayInt(vec![-3, 4]));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Bool(true).to_string(), "true");
        let a = Value::from_mpi(MpiValue::ArrayInt(vec![1, 2]));
        assert_eq!(a.to_string(), "[1, 2]");
        let f = Value::from_mpi(MpiValue::ArrayFloat(vec![0.5, 2.0, -0.0]));
        assert_eq!(f.to_string(), format!("{:?}", vec![0.5, 2.0, -0.0]));
        assert_eq!(Value::from_array(Type::ArrayFloat, None).to_string(), "[]");
        let x = Value::const_bits(Const::Float(-1.5));
        assert_eq!(Value::from_bits(Type::Float, x).to_string(), "-1.5");
    }
}
