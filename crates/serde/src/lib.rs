//! The workspace's one JSON crate: a direct writer for output, and a
//! parser and value tree for input.
//!
//! `Serialize` appends a value's JSON straight to a `String` through one
//! [`Writer`], compact or pretty; `#[derive(Serialize)]` writes field by
//! field with pre-escaped keys, so no tree is built on output. [`to_string`],
//! [`to_string_pretty`] and [`append`] write upstream serde's JSON shape
//! (compact, or pretty with two-space indents; struct fields in declaration
//! order; NaN and infinities as `null`), with every float as the shortest
//! text that reads back to the same bits.
//!
//! [`from_str`] and [`from_slice`] parse into a [`Value`] and hand it to
//! `Deserialize` by value. The parser rejects nesting deeper than 128
//! levels and keeps an object's entries in the order it reads them, repeats
//! included. A repeated key's last value wins, and the values it overrides
//! are never decoded: a derived struct keeps each field's last entry, an
//! internally tagged enum reads the tag key's last entry (`"type"` in this
//! workspace), and a map keeps a repeated key's last value. The derives
//! come from `serde_derive`, re-exported here, and generate code against
//! the hidden `__private` helpers below.

pub use serde_derive::{Deserialize, Serialize};

mod impls;
mod parse;
mod value;
mod writer;

use std::fmt;

pub use impls::MapKey;
pub use value::{Number, Value};
pub use writer::Writer;

/// A type that writes itself as JSON.
pub trait Serialize {
    /// Append this value's JSON to `w`, pretty when `PRETTY`.
    fn serialize<const PRETTY: bool>(&self, w: &mut Writer<'_, PRETTY>);
}

/// A type that can be built from a parsed [`Value`].
pub trait Deserialize: Sized {
    /// Build `Self` from `v`.
    fn deserialize(v: Value) -> Result<Self, Error>;
}

/// A JSON syntax error, with its position in the text, or a data error.
#[derive(Debug)]
pub struct Error {
    msg: String,
    /// 1-based line and column of a syntax error; 0 for data errors.
    line: usize,
    column: usize,
}

impl Error {
    /// A data error: the value parsed but does not fit the type.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error {
            msg: msg.to_string(),
            line: 0,
            column: 0,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            f.write_str(&self.msg)
        } else {
            write!(
                f,
                "{} at line {} column {}",
                self.msg, self.line, self.column
            )
        }
    }
}

impl std::error::Error for Error {}

/// Append `value`'s compact JSON, as [`to_string`] writes it, to `out`.
pub fn append<T: Serialize + ?Sized>(out: &mut String, value: &T) {
    value.serialize(&mut Writer::<false>::new(out));
}

/// Compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    append(&mut out, value);
    out
}

/// Indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.serialize(&mut Writer::<true>::new(&mut out));
    out
}

/// Parse JSON text into a `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    from_slice(s.as_bytes())
}

/// Parse JSON bytes into a `T`.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    T::deserialize(parse::parse(bytes)?)
}

/// Support code for the `Deserialize` derive; not a public API.
#[doc(hidden)]
pub mod __private {
    use crate::{Deserialize, Error, Value};

    /// A short name for the JSON type of `v`, for error messages.
    fn kind(v: &Value) -> &'static str {
        match v {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Number(n) if n.is_f64() => "floating point",
            Value::Number(_) => "integer",
            Value::String(_) => "string",
            Value::Array(_) => "sequence",
            Value::Object(_) => "map",
        }
    }

    /// The error for a value of the wrong JSON type.
    pub fn invalid(v: &Value, expected: &str) -> Error {
        Error::custom(format!("invalid type: {}, expected {expected}", kind(v)))
    }

    /// Unwrap an object's entries, or fail naming what was expected.
    pub fn take_object(v: Value, expected: &str) -> Result<Vec<(String, Value)>, Error> {
        match v {
            Value::Object(entries) => Ok(entries),
            other => Err(invalid(&other, expected)),
        }
    }

    /// The last value of each of `names` among `entries`, in the order of
    /// `names`; every other entry is dropped undecoded.
    pub fn fields<const N: usize>(
        entries: Vec<(String, Value)>,
        names: [&str; N],
    ) -> [Option<Value>; N] {
        let mut slots = [const { None }; N];
        for (key, v) in entries {
            if let Some(i) = names.iter().position(|name| *name == key) {
                slots[i] = Some(v);
            }
        }
        slots
    }

    /// Decode a struct field. A missing field reads as `null`, so `Option`
    /// fields default to `None`; any other type reports the field as
    /// missing.
    pub fn field<T: Deserialize>(v: Option<Value>, key: &str) -> Result<T, Error> {
        match v {
            Some(v) => T::deserialize(v).map_err(|e| Error::custom(format!("field `{key}`: {e}"))),
            None => T::deserialize(Value::Null)
                .map_err(|_| Error::custom(format!("missing field `{key}`"))),
        }
    }

    /// Decode a struct field, using `default` when it is missing.
    pub fn field_or<T: Deserialize>(
        v: Option<Value>,
        key: &str,
        default: impl FnOnce() -> T,
    ) -> Result<T, Error> {
        match v {
            Some(v) => field(Some(v), key),
            None => Ok(default()),
        }
    }

    /// Unwrap an array of exactly `len` elements.
    pub fn take_seq(
        v: Value,
        len: usize,
        expected: &str,
    ) -> Result<std::vec::IntoIter<Value>, Error> {
        match v {
            Value::Array(items) if items.len() == len => Ok(items.into_iter()),
            Value::Array(items) => Err(Error::custom(format!(
                "invalid length {}, expected {expected} of {len} elements",
                items.len()
            ))),
            other => Err(invalid(&other, expected)),
        }
    }

    /// Decode the next element of an array [`take_seq`] unwrapped.
    pub fn next_elem<T: Deserialize>(it: &mut std::vec::IntoIter<Value>) -> Result<T, Error> {
        T::deserialize(it.next().expect("take_seq checked the length"))
    }

    /// Split an externally tagged enum value into (variant, payload): a
    /// bare string is a unit variant, and an object of one key (perhaps
    /// repeated) carries its last value as the payload.
    pub fn external_variant(v: Value, expected: &str) -> Result<(String, Value), Error> {
        match v {
            Value::String(name) => Ok((name, Value::Null)),
            Value::Object(mut entries)
                if entries
                    .last()
                    .is_some_and(|(last, _)| entries.iter().all(|(k, _)| k == last)) =>
            {
                Ok(entries.pop().expect("one entry"))
            }
            other => Err(invalid(&other, expected)),
        }
    }

    /// Split an internally tagged enum value into (variant, entries): the
    /// variant is the last `tag` entry's string.
    pub fn internal_variant(
        v: Value,
        tag: &str,
        expected: &str,
    ) -> Result<(String, Vec<(String, Value)>), Error> {
        let mut entries = take_object(v, expected)?;
        let Some(i) = entries.iter().rposition(|(k, _)| k == tag) else {
            return Err(Error::custom(format!("missing field `{tag}`")));
        };
        match std::mem::replace(&mut entries[i].1, Value::Null) {
            Value::String(name) => Ok((name, entries)),
            other => Err(invalid(&other, "variant name")),
        }
    }

    /// The error for a variant name no arm matched.
    pub fn unknown_variant(name: &str, expected: &[&str]) -> Error {
        Error::custom(format!(
            "unknown variant `{name}`, expected one of {expected:?}"
        ))
    }
}
