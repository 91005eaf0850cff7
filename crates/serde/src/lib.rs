//! Offline stand-in for `serde`, used only to build the program under
//! benchmark while the workspace still names registry crates.
//!
//! The data model is a value tree: `Serialize` produces a [`Value`] and
//! `Deserialize` consumes one. The trait and method names the workspace
//! calls directly (`Serializer::collect_seq`, `Deserialize::deserialize`,
//! `de::Error::custom`, `de::DeserializeOwned`) keep their upstream
//! signatures; everything else goes through [`Serializer::serialize_value`]
//! and [`Deserializer::into_value`]. The derive macros in `serde_derive`
//! generate code against the hidden `__private` helpers below.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

mod impls;
mod value;

pub use value::{Map, Number, Value};

/// Serialization half of the data model.
pub mod ser {
    pub use crate::{Serialize, Serializer};

    /// Errors a serializer can raise.
    pub trait Error: Sized + std::fmt::Display + std::fmt::Debug {
        /// An error carrying a free-form message.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }
}

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

/// A type that can be turned into a [`Value`].
pub trait Serialize {
    /// Hand this value's tree to `serializer`.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A sink for one [`Value`] tree.
pub trait Serializer: Sized {
    /// What a successful serialization returns.
    type Ok;
    /// What a failed serialization returns.
    type Error: ser::Error;

    /// Accept a finished value tree.
    fn serialize_value(self, value: Value) -> Result<Self::Ok, Self::Error>;

    /// Serialize an iterator as a JSON array.
    fn collect_seq<I>(self, iter: I) -> Result<Self::Ok, Self::Error>
    where
        I: IntoIterator,
        I::Item: Serialize,
    {
        let mut items = Vec::new();
        for item in iter {
            items.push(__private::to_value(&item).map_err(ser::Error::custom)?);
        }
        self.serialize_value(Value::Array(items))
    }
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

/// Support code for the derive macros, `serde_json` and the telemetry
/// event writer; not a public API.
#[doc(hidden)]
pub mod __private {
    use std::fmt;

    pub use crate::value::{write_compact, write_pretty, write_str};
    use crate::{de, ser, Deserialize, Deserializer, Serialize, Serializer};
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

    impl ser::Error for Error {
        fn custom<T: fmt::Display>(msg: T) -> Self {
            Error(msg.to_string())
        }
    }

    impl de::Error for Error {
        fn custom<T: fmt::Display>(msg: T) -> Self {
            Error(msg.to_string())
        }
    }

    /// A serializer that returns the tree it is given.
    pub struct ValueSerializer;

    impl Serializer for ValueSerializer {
        type Ok = Value;
        type Error = Error;
        fn serialize_value(self, value: Value) -> Result<Value, Error> {
            Ok(value)
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

    /// Serialize `t` into a tree.
    pub fn to_value<T: Serialize + ?Sized>(t: &T) -> Result<Value, Error> {
        t.serialize(ValueSerializer)
    }

    /// Build a `T` from a tree.
    pub fn from_value<T: for<'de> Deserialize<'de>>(v: Value) -> Result<T, Error> {
        T::deserialize(ValueDeserializer(v))
    }

    /// Hand a derive-built tree to the caller's serializer.
    pub fn finish<S: Serializer>(s: S, v: Result<Value, Error>) -> Result<S::Ok, S::Error> {
        s.serialize_value(v.map_err(ser::Error::custom)?)
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

    /// Serialize a field into `m` under `key`.
    pub fn put_field<T: Serialize + ?Sized>(
        m: &mut Map<String, Value>,
        key: &str,
        t: &T,
    ) -> Result<(), Error> {
        m.push_unique(key.to_string(), to_value(t)?);
        Ok(())
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

    /// A one-key object `{name: payload}`.
    pub fn tagged(name: &str, payload: Value) -> Value {
        let mut m = Map::new();
        m.push_unique(name.to_string(), payload);
        Value::Object(m)
    }

    /// The error for a variant name no arm matched.
    pub fn unknown_variant(name: &str, expected: &[&str]) -> Error {
        Error(format!(
            "unknown variant `{name}`, expected one of {expected:?}"
        ))
    }
}
