//! The workspace's serde: a direct JSON writer for output, and a value
//! tree for input.
//!
//! `Serialize` appends a value's JSON straight to a `String` through one
//! [`Writer`], compact or pretty; `#[derive(Serialize)]` writes field by
//! field with pre-escaped keys, so no tree is built on output.
//! `Deserialize` reads a [`Value`] tree, which `serde_json`'s parser
//! builds; the derives generate that code against the hidden `__private`
//! helpers below. The names the workspace calls directly keep their
//! upstream form (`Deserialize::deserialize`, `de::Error::custom`,
//! `de::DeserializeOwned`).

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

mod impls;
mod value;
mod writer;

pub use impls::MapKey;
pub use value::{Map, Number, Value};
pub use writer::Writer;

/// Deserialization half of the data model.
pub mod de {
    pub use crate::{Deserialize, Deserializer};

    /// Errors a deserializer can raise.
    pub trait Error: Sized + std::fmt::Display + std::fmt::Debug {
        /// An error carrying a free-form message.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    /// A type that deserializes without borrowing from its input.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}

    impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}
}

/// A type that writes itself as JSON.
pub trait Serialize {
    /// Append this value's JSON to `w`, pretty when `PRETTY`.
    fn serialize<const PRETTY: bool>(&self, w: &mut Writer<'_, PRETTY>);
}

/// A type that can be built from a [`Value`].
pub trait Deserialize<'de>: Sized {
    /// Build `Self` from the tree `deserializer` holds.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A source of one [`Value`] tree.
pub trait Deserializer<'de>: Sized {
    /// What a failed deserialization returns.
    type Error: de::Error;

    /// Give up the held value tree.
    fn into_value(self) -> Result<Value, Self::Error>;
}

/// Support code for the `Deserialize` derive and `serde_json`; not a
/// public API.
#[doc(hidden)]
pub mod __private {
    use std::fmt;

    use crate::{de, Deserialize, Deserializer};
    pub use crate::{Map, Value};

    /// The error every value-tree conversion returns.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error(pub String);

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for Error {}

    impl de::Error for Error {
        fn custom<T: fmt::Display>(msg: T) -> Self {
            Error(msg.to_string())
        }
    }

    /// A deserializer over an owned tree.
    pub struct ValueDeserializer(pub Value);

    impl<'de> Deserializer<'de> for ValueDeserializer {
        type Error = Error;
        fn into_value(self) -> Result<Value, Error> {
            Ok(self.0)
        }
    }

    /// Build a `T` from a tree.
    pub fn from_value<T: for<'de> Deserialize<'de>>(v: Value) -> Result<T, Error> {
        T::deserialize(ValueDeserializer(v))
    }

    /// Convert a derive-side error into the caller's deserializer error.
    pub fn lift<'de, D: Deserializer<'de>, T>(r: Result<T, Error>) -> Result<T, D::Error> {
        r.map_err(de::Error::custom)
    }

    /// The tree a deserializer holds, with its error converted.
    pub fn take_value<'de, D: Deserializer<'de>>(d: D) -> Result<Value, Error> {
        d.into_value().map_err(|e| Error(e.to_string()))
    }

    /// A short name for the JSON type of `v`, for error messages.
    pub fn kind(v: &Value) -> &'static str {
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
        Error(format!("invalid type: {}, expected {expected}", kind(v)))
    }

    /// Unwrap an object, or fail naming what was expected.
    pub fn take_object(v: Value, expected: &str) -> Result<Map<String, Value>, Error> {
        match v {
            Value::Object(m) => Ok(m),
            other => Err(invalid(&other, expected)),
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
            Value::Array(items) => Err(Error(format!(
                "invalid length {}, expected {expected} of {len} elements",
                items.len()
            ))),
            other => Err(invalid(&other, expected)),
        }
    }

    /// Deserialize the next element of a sequence.
    pub fn next_elem<T: for<'de> Deserialize<'de>>(
        it: &mut std::vec::IntoIter<Value>,
    ) -> Result<T, Error> {
        from_value(
            it.next()
                .ok_or_else(|| Error("sequence too short".into()))?,
        )
    }

    /// Remove and deserialize a struct field. A missing field reads as
    /// `null`, so `Option` fields default to `None`; any other type
    /// reports the field as missing.
    pub fn take_field<T: for<'de> Deserialize<'de>>(
        m: &mut Map<String, Value>,
        key: &str,
    ) -> Result<T, Error> {
        match m.remove(key) {
            Some(v) => from_value(v).map_err(|e| Error(format!("field `{key}`: {e}"))),
            None => from_value(Value::Null).map_err(|_| Error(format!("missing field `{key}`"))),
        }
    }

    /// Remove and deserialize a struct field, using `default` when absent.
    pub fn take_field_or<T: for<'de> Deserialize<'de>>(
        m: &mut Map<String, Value>,
        key: &str,
        default: impl FnOnce() -> T,
    ) -> Result<T, Error> {
        match m.remove(key) {
            Some(v) => from_value(v).map_err(|e| Error(format!("field `{key}`: {e}"))),
            None => Ok(default()),
        }
    }

    /// Split an externally tagged enum value into (variant, payload): a
    /// bare string is a unit variant, a one-key object carries a payload.
    pub fn external_variant(v: Value, expected: &str) -> Result<(String, Value), Error> {
        match v {
            Value::String(name) => Ok((name, Value::Null)),
            Value::Object(m) if m.len() == 1 => {
                let (k, v) = m.into_iter().next().expect("one entry");
                Ok((k, v))
            }
            other => Err(invalid(&other, expected)),
        }
    }

    /// Split an internally tagged enum value into (variant, other fields).
    pub fn internal_variant(
        v: Value,
        tag: &str,
        expected: &str,
    ) -> Result<(String, Map<String, Value>), Error> {
        let mut m = take_object(v, expected)?;
        match m.remove(tag) {
            Some(Value::String(name)) => Ok((name, m)),
            Some(other) => Err(invalid(&other, "variant name")),
            None => Err(Error(format!("missing field `{tag}`"))),
        }
    }

    /// The error for a variant name no arm matched.
    pub fn unknown_variant(name: &str, expected: &[&str]) -> Error {
        Error(format!(
            "unknown variant `{name}`, expected one of {expected:?}"
        ))
    }
}
