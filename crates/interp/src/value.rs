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
use parcoach_mpisim::MpiValue;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Shared integer array.
    ArrayInt(Arc<Vec<AtomicI64>>),
    /// Shared float array: each element is an `f64`'s bits.
    ArrayFloat(Arc<Vec<AtomicU64>>),
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

    /// Zero-ish default for a type (registers before first assignment).
    pub fn default_for(ty: Type) -> Value {
        match ty {
            Type::Int | Type::Void => Value::Int(0),
            Type::Float => Value::Float(0.0),
            Type::Bool => Value::Bool(false),
            Type::ArrayInt => Value::ArrayInt(Arc::default()),
            Type::ArrayFloat => Value::ArrayFloat(Arc::default()),
            Type::Comm => Value::Comm(0),
            Type::Request => Value::Request(Value::NULL_REQUEST),
        }
    }

    /// `len` copies of `init` as an array, or `None` when the memory
    /// cannot be had (the program asked for more than the machine has,
    /// or than an address space holds).
    pub(crate) fn filled_array(len: usize, init: &Value) -> Option<Value> {
        fn filled<T>(len: usize, elem: impl Fn() -> T) -> Option<Arc<Vec<T>>> {
            let mut v = Vec::new();
            v.try_reserve_exact(len).ok()?;
            v.extend((0..len).map(|_| elem()));
            Some(Arc::new(v))
        }
        Some(match *init {
            Value::Int(x) => Value::ArrayInt(filled(len, || AtomicI64::new(x))?),
            Value::Float(x) => Value::ArrayFloat(filled(len, || AtomicU64::new(x.to_bits()))?),
            ref other => panic!("sema guaranteed numeric array element, got {other:?}"),
        })
    }

    /// Integer content (sema guarantees the type).
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected int, got {other:?}"),
        }
    }

    /// Float content.
    pub fn as_float(&self) -> f64 {
        match self {
            Value::Float(v) => *v,
            other => panic!("expected float, got {other:?}"),
        }
    }

    /// Bool content.
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(v) => *v,
            other => panic!("expected bool, got {other:?}"),
        }
    }

    /// Communicator handle content.
    pub fn as_comm(&self) -> usize {
        match self {
            Value::Comm(v) => *v,
            other => panic!("expected comm, got {other:?}"),
        }
    }

    /// Request handle content.
    pub fn as_request(&self) -> usize {
        match self {
            Value::Request(v) => *v,
            other => panic!("expected request, got {other:?}"),
        }
    }

    /// Convert to an MPI payload (arrays are copied element by element,
    /// so a later store does not reach the message).
    pub fn to_mpi(&self) -> MpiValue {
        match self {
            Value::Int(v) => MpiValue::Int(*v),
            Value::Float(v) => MpiValue::Float(*v),
            Value::Bool(v) => MpiValue::Int(*v as i64),
            Value::ArrayInt(a) => MpiValue::ArrayInt(a.iter().map(|x| x.load(Relaxed)).collect()),
            Value::ArrayFloat(a) => MpiValue::ArrayFloat(float_elems(a).collect()),
            Value::Comm(_) => panic!("communicator handles are not MPI payloads"),
            Value::Request(_) => panic!("request handles are not MPI payloads"),
        }
    }

    /// Convert from an MPI result.
    pub fn from_mpi(v: MpiValue) -> Value {
        match v {
            MpiValue::Int(x) => Value::Int(x),
            MpiValue::Float(x) => Value::Float(x),
            MpiValue::ArrayInt(a) => {
                Value::ArrayInt(Arc::new(a.into_iter().map(AtomicI64::new).collect()))
            }
            MpiValue::ArrayFloat(a) => Value::ArrayFloat(Arc::new(
                a.into_iter().map(|x| AtomicU64::new(x.to_bits())).collect(),
            )),
        }
    }
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
            Value::ArrayInt(a) => f
                .debug_list()
                .entries(a.iter().map(|x| x.load(Relaxed)))
                .finish(),
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
        assert_eq!(Value::default_for(Type::Int).as_int(), 0);
        assert_eq!(Value::default_for(Type::Float).as_float(), 0.0);
        assert!(!Value::default_for(Type::Bool).as_bool());
    }

    /// An array is one thin pointer, so a register stays two words.
    #[test]
    fn a_value_is_two_words() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    #[test]
    fn arrays_are_reference_types() {
        let a = Value::filled_array(2, &Value::Int(0)).unwrap();
        let b = a.clone();
        if let (Value::ArrayInt(x), Value::ArrayInt(y)) = (&a, &b) {
            x[1].store(7, Relaxed);
            assert_eq!(y[1].load(Relaxed), 7);
        } else {
            panic!();
        }
        assert_eq!(b.to_string(), "[0, 7]");
    }

    #[test]
    fn mpi_roundtrip() {
        let v = Value::Int(42);
        assert_eq!(v.to_mpi(), MpiValue::Int(42));
        let arr = Value::from_mpi(MpiValue::ArrayFloat(vec![1.0, 2.0]));
        assert_eq!(arr.to_mpi(), MpiValue::ArrayFloat(vec![1.0, 2.0]));
        // A copy: storing into the Value after to_mpi must not alter the
        // payload.
        if let Value::ArrayFloat(a) = &arr {
            let payload = arr.to_mpi();
            a[0].store(3.0f64.to_bits(), Relaxed);
            assert_eq!(payload, MpiValue::ArrayFloat(vec![1.0, 2.0]));
            assert_eq!(arr.to_mpi(), MpiValue::ArrayFloat(vec![3.0, 2.0]));
        } else {
            panic!();
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Bool(true).to_string(), "true");
        let a = Value::from_mpi(MpiValue::ArrayInt(vec![1, 2]));
        assert_eq!(a.to_string(), "[1, 2]");
        let f = Value::from_mpi(MpiValue::ArrayFloat(vec![0.5, 2.0, -0.0]));
        assert_eq!(f.to_string(), format!("{:?}", vec![0.5, 2.0, -0.0]));
        assert_eq!(Value::default_for(Type::ArrayFloat).to_string(), "[]");
    }
}
