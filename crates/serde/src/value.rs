//! The value tree the parser builds and `Deserialize` reads.

use std::fmt;

/// A JSON value. An object is its entries in the order the parser read
/// them, a repeated key once for each time it appears.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

#[derive(Debug, Clone, Copy)]
enum N {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

/// A JSON number: an unsigned or negative integer, or a finite float.
#[derive(Debug, Clone, Copy)]
pub struct Number {
    n: N,
}

impl Number {
    /// The number as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self.n {
            N::PosInt(u) => Some(u),
            N::NegInt(_) | N::Float(_) => None,
        }
    }

    /// The number as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self.n {
            N::PosInt(u) => i64::try_from(u).ok(),
            N::NegInt(i) => Some(i),
            N::Float(_) => None,
        }
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> f64 {
        match self.n {
            N::PosInt(u) => u as f64,
            N::NegInt(i) => i as f64,
            N::Float(f) => f,
        }
    }

    /// Whether the number is a float.
    pub fn is_f64(&self) -> bool {
        matches!(self.n, N::Float(_))
    }

    /// A float number; `None` for NaN and infinities, which JSON lacks.
    pub fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number { n: N::Float(f) })
    }
}

impl From<u64> for Number {
    fn from(u: u64) -> Self {
        Number { n: N::PosInt(u) }
    }
}

impl From<i64> for Number {
    fn from(i: i64) -> Self {
        match u64::try_from(i) {
            Ok(u) => Number { n: N::PosInt(u) },
            Err(_) => Number { n: N::NegInt(i) },
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.n {
            N::PosInt(u) => write!(f, "{u}"),
            N::NegInt(i) => write!(f, "{i}"),
            // `{:?}` is the shortest text that parses back to the same
            // bits, and always carries a `.` or an exponent.
            N::Float(x) => write!(f, "{x:?}"),
        }
    }
}
