//! `Serialize` and `Deserialize` for the standard types the workspace's
//! serialized types contain, with upstream `serde_json`'s JSON mapping.

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use crate::__private::{from_value, invalid, lift, take_seq, Error};
use crate::{de, Deserialize, Deserializer, Number, Serialize, Value, Writer};

/// A type that can key a JSON object, as upstream writes map keys: a
/// string as it is, an integer as its digits in quotes.
pub trait MapKey {
    /// Write this key as a JSON string.
    fn write_key<const P: bool>(&self, w: &mut Writer<'_, P>);
}

/// Serialize an integer as it is, and deserialize it through `Number`,
/// rejecting floats and out-of-range values as upstream does.
macro_rules! integer {
    ($wide:ident, $as:ident: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
                w.$wide(*self as $wide);
            }
        }
        impl MapKey for $t {
            fn write_key<const P: bool>(&self, w: &mut Writer<'_, P>) {
                w.str(&self.to_string());
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
    fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
        w.f64(*self);
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
    fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
        w.bool(*self);
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
    fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
        w.str(self);
    }
}

impl MapKey for str {
    fn write_key<const P: bool>(&self, w: &mut Writer<'_, P>) {
        w.str(self);
    }
}

impl Serialize for String {
    fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
        w.str(self);
    }
}

impl MapKey for String {
    fn write_key<const P: bool>(&self, w: &mut Writer<'_, P>) {
        w.str(self);
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
    fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
        (**self).serialize(w);
    }
}

impl<T: Serialize + ToOwned + ?Sized> Serialize for Cow<'_, T> {
    fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
        (**self).serialize(w);
    }
}

impl<T: MapKey + ToOwned + ?Sized> MapKey for Cow<'_, T> {
    fn write_key<const P: bool>(&self, w: &mut Writer<'_, P>) {
        (**self).write_key(w);
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
    fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
        (**self).serialize(w);
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Arc<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        T::deserialize(d).map(Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
        match self {
            Some(t) => t.serialize(w),
            None => w.null(),
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

/// Write `items` as a JSON array.
fn write_seq<'a, T: Serialize + 'a, const P: bool>(
    w: &mut Writer<'_, P>,
    items: impl IntoIterator<Item = &'a T>,
) {
    w.begin('[');
    for item in items {
        w.item();
        item.serialize(w);
    }
    w.end(']');
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
        write_seq(w, self);
    }
}

macro_rules! sequence {
    ($($c:ident),*) => {$(
        impl<T: Serialize> Serialize for $c<T> {
            fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
                write_seq(w, self);
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
    fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
        w.begin('[');
        w.item();
        self.0.serialize(w);
        w.item();
        self.1.serialize(w);
        w.end(']');
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

/// Read a map key back: as a string first, then as the integer it spells.
fn key_from<K: for<'de> Deserialize<'de>>(key: String) -> Result<K, Error> {
    let number = key.parse::<u64>().map(Number::from).ok();
    match from_value(Value::String(key)) {
        Ok(k) => Ok(k),
        Err(e) => number.map_or(Err(e), |n| from_value(Value::Number(n))),
    }
}

impl<K: MapKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
        w.begin('{');
        for (k, v) in self {
            w.item();
            k.write_key(w);
            w.colon();
            v.serialize(w);
        }
        w.end('}');
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
