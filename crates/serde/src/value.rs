//! The value tree the parser builds and `Deserialize` reads, and its
//! insertion-ordered object map.

use std::collections::HashMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
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

/// A JSON object that keeps its keys in insertion order.
#[derive(Debug, Clone)]
pub struct Map<K, V> {
    entries: Vec<(K, V)>,
}

impl Map<String, Value> {
    /// The map of `entries` in their order, where a repeated key keeps
    /// its first place and takes its last value. Linear in the entries:
    /// each key is hashed once.
    pub fn from_entries(mut entries: Vec<(String, Value)>) -> Self {
        // (first place, later place) of every repeated key.
        let mut first_place = HashMap::with_capacity(entries.len());
        let repeats: Vec<(usize, usize)> = entries
            .iter()
            .enumerate()
            .filter_map(|(i, (key, _))| {
                let first = *first_place.entry(key.as_str()).or_insert(i);
                (first != i).then_some((first, i))
            })
            .collect();
        if !repeats.is_empty() {
            for &(first, later) in &repeats {
                entries[first].1 = std::mem::replace(&mut entries[later].1, Value::Null);
            }
            let mut later = repeats.iter().map(|&(_, later)| later).peekable();
            let mut i = 0;
            entries.retain(|_| {
                i += 1;
                later.next_if_eq(&(i - 1)).is_none()
            });
        }
        Map { entries }
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(i).1)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl IntoIterator for Map<String, Value> {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}
