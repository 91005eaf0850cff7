//! The value tree, its insertion-ordered object map, and the JSON writer.

use std::fmt::{self, Write as _};

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
    /// An empty map.
    pub fn new() -> Self {
        Map {
            entries: Vec::new(),
        }
    }

    /// Insert or replace `key`.
    pub fn insert(&mut self, key: String, value: Value) {
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.entries.push((key, value)),
        }
    }

    /// Append `key`, which the caller knows is not present yet.
    #[doc(hidden)]
    pub fn push_unique(&mut self, key: String, value: Value) {
        self.entries.push((key, value));
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

    /// Entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl Default for Map<String, Value> {
    fn default() -> Self {
        Self::new()
    }
}

impl IntoIterator for Map<String, Value> {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl From<f64> for Value {
    /// NaN and infinities become `null`, as upstream.
    fn from(x: f64) -> Value {
        Number::from_f64(x).map_or(Value::Null, Value::Number)
    }
}

/// Each byte's JSON escape: 0 for a byte written as it is, `u` for
/// `\u00xx`, otherwise the character after the backslash.
const ESCAPE: [u8; 256] = {
    let mut table = [0; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = b'u';
        b += 1;
    }
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table[0x08] = b'b';
    table[0x0c] = b'f';
    table
};

/// Append `s` as a JSON string literal: `"`, `\` and the bytes below
/// 0x20 escaped (the short form where JSON has one, lowercase `\u00xx`
/// otherwise), every other byte as it is.
pub fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = ESCAPE[usize::from(b)];
        if escape == 0 {
            continue;
        }
        out.push_str(&s[start..i]);
        out.push('\\');
        out.push(char::from(escape));
        if escape == b'u' {
            out.push_str("00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

fn write_scalar(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => {
            let _ = write!(out, "{n}");
        }
        Value::String(s) => write_str(out, s),
        Value::Array(_) | Value::Object(_) => unreachable!("containers are not scalars"),
    }
}

/// Append `v` as compact JSON.
pub fn write_compact(out: &mut String, v: &Value) {
    match v {
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Value::Object(m) => {
            out.push('{');
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(out, k);
                out.push(':');
                write_compact(out, item);
            }
            out.push('}');
        }
        scalar => write_scalar(out, scalar),
    }
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Append `v` as JSON indented by two spaces per level, starting at `depth`.
pub fn write_pretty(out: &mut String, v: &Value, depth: usize) {
    match v {
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Object(m) if m.is_empty() => out.push_str("{}"),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                write_pretty(out, item, depth + 1);
            }
            newline(out, depth);
            out.push(']');
        }
        Value::Object(m) => {
            out.push('{');
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                write_str(out, k);
                out.push_str(": ");
                write_pretty(out, item, depth + 1);
            }
            newline(out, depth);
            out.push('}');
        }
        scalar => write_scalar(out, scalar),
    }
}
