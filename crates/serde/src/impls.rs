//! `Serialize` and `Deserialize` for the standard types the workspace's
//! serialized types contain, with upstream `serde_json`'s JSON mapping.

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use crate::__private::{from_value, invalid, kind, lift, take_seq, to_value, Error};
use crate::{de, ser, Deserialize, Deserializer, Map, Number, Serialize, Serializer, Value};

/// Serialize and deserialize an integer type through `Number`, rejecting
/// floats and out-of-range values as upstream does.
macro_rules! integer {
    ($wide:ty, $as:ident: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_value(Value::Number(Number::from(*self as $wide)))
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let v = d.into_value()?;
                let n = match &v {
                    Value::Number(n) if !n.is_f64() => n,
                    _ => return Err(de::Error::custom(invalid(&v, stringify!($t)))),
                };
                n.$as()
                    .and_then(|x| <$t>::try_from(x).ok())
                    .ok_or_else(|| {
                        de::Error::custom(format!(
                            "invalid value: integer `{n}`, expected {}",
                            stringify!($t)
                        ))
                    })
            }
        }
    )*};
}
integer!(u64, as_u64: u8, u16, u32, u64, usize);
integer!(i64, as_i64: i32, i64);

impl Serialize for f64 {
    /// NaN and infinities become `null`, as upstream.
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(Value::from(*self))
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_value()? {
            Value::Number(n) => Ok(n.as_f64()),
            other => Err(de::Error::custom(invalid(&other, "f64"))),
        }
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(Value::Bool(*self))
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_value()? {
            Value::Bool(b) => Ok(b),
            other => Err(de::Error::custom(invalid(&other, "a boolean"))),
        }
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(Value::String(self.to_string()))
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.as_str().serialize(s)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_value()? {
            Value::String(s) => Ok(s),
            other => Err(de::Error::custom(invalid(&other, "a string"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize + ToOwned + ?Sized> Serialize for Cow<'_, T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

/// Always owned: the value tree has nothing to borrow from.
impl<'de, T: ToOwned + ?Sized> Deserialize<'de> for Cow<'_, T>
where
    T::Owned: Deserialize<'de>,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        T::Owned::deserialize(d).map(Cow::Owned)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Arc<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        T::deserialize(d).map(Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(t) => t.serialize(s),
            None => s.serialize_value(Value::Null),
        }
    }
}

impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_value()? {
            Value::Null => Ok(None),
            v => lift::<D, _>(from_value(v)).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.collect_seq(self)
    }
}

macro_rules! sequence {
    ($($c:ident),*) => {$(
        impl<T: Serialize> Serialize for $c<T> {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.collect_seq(self)
            }
        }
        impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for $c<T> {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                match d.into_value()? {
                    Value::Array(items) => {
                        lift::<D, _>(items.into_iter().map(from_value).collect())
                    }
                    other => Err(de::Error::custom(invalid(&other, "a sequence"))),
                }
            }
        }
    )*};
}
sequence!(Vec, VecDeque);

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let items = vec![
            to_value(&self.0).map_err(ser::Error::custom)?,
            to_value(&self.1).map_err(ser::Error::custom)?,
        ];
        s.serialize_value(Value::Array(items))
    }
}

impl<'de, A: for<'a> Deserialize<'a>, B: for<'a> Deserialize<'a>> Deserialize<'de> for (A, B) {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = d.into_value()?;
        let mut it = lift::<D, _>(take_seq(v, 2, "a tuple"))?;
        let a = lift::<D, A>(crate::__private::next_elem(&mut it))?;
        let b = lift::<D, B>(crate::__private::next_elem(&mut it))?;
        Ok((a, b))
    }
}

/// A map key as JSON text: strings as they are, integers printed, as
/// upstream.
fn key_string<K: Serialize>(k: &K) -> Result<String, Error> {
    match to_value(k)? {
        Value::String(s) => Ok(s),
        Value::Number(n) if !n.is_f64() => Ok(n.to_string()),
        other => Err(Error(format!("key must be a string, got {}", kind(&other)))),
    }
}

/// Read a map key back: as a string first, then as the integer it spells.
fn key_from<K: for<'de> Deserialize<'de>>(key: String) -> Result<K, Error> {
    let number = key.parse::<u64>().map(Number::from).ok();
    match from_value(Value::String(key)) {
        Ok(k) => Ok(k),
        Err(e) => number.map_or(Err(e), |n| from_value(Value::Number(n))),
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut m = Map::new();
        for (k, v) in self {
            let key = key_string(k).map_err(ser::Error::custom)?;
            m.push_unique(key, to_value(v).map_err(ser::Error::custom)?);
        }
        s.serialize_value(Value::Object(m))
    }
}

impl<'de, K: for<'a> Deserialize<'a> + Ord, V: for<'a> Deserialize<'a>> Deserialize<'de>
    for BTreeMap<K, V>
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_value()? {
            Value::Object(m) => lift::<D, _>(
                m.into_iter()
                    .map(|(k, v)| Ok((key_from(k)?, from_value(v)?)))
                    .collect(),
            ),
            other => Err(de::Error::custom(invalid(&other, "a map"))),
        }
    }
}
