//! `Serialize` for the standard types the workspace's serialized types
//! contain, and `Deserialize` for those its decoded types contain, with
//! upstream serde's JSON mapping.

use std::borrow::Cow;
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::VecDeque;
use std::sync::Arc;

use crate::__private::{invalid, next_elem, take_seq};
use crate::{Deserialize, Error, Number, Serialize, Value, Writer};

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
        impl Deserialize for $t {
            fn deserialize(v: Value) -> Result<Self, Error> {
                let n = match &v {
                    Value::Number(n) if !n.is_f64() => n,
                    _ => return Err(invalid(&v, stringify!($t))),
                };
                n.$as()
                    .and_then(|x| <$t>::try_from(x).ok())
                    .ok_or_else(|| {
                        Error::custom(format!(
                            "invalid value: integer `{n}`, expected {}",
                            stringify!($t)
                        ))
                    })
            }
        }
    )*};
}
integer!(u64, as_u64: u8, u16, u32, u64, usize);
integer!(i64, as_i64: i64);

impl Serialize for f64 {
    /// NaN and infinities become `null`, as upstream.
    fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
        w.f64(*self);
    }
}

impl Deserialize for f64 {
    fn deserialize(v: Value) -> Result<Self, Error> {
        match v {
            Value::Number(n) => Ok(n.as_f64()),
            other => Err(invalid(&other, "f64")),
        }
    }
}

impl Serialize for bool {
    fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
        w.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(v: Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(b),
            other => Err(invalid(&other, "a boolean")),
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

impl Deserialize for String {
    fn deserialize(v: Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s),
            other => Err(invalid(&other, "a string")),
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
impl<T: ToOwned + ?Sized> Deserialize for Cow<'_, T>
where
    T::Owned: Deserialize,
{
    fn deserialize(v: Value) -> Result<Self, Error> {
        T::Owned::deserialize(v).map(Cow::Owned)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
        (**self).serialize(w);
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

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            v => T::deserialize(v).map(Some),
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

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
        write_seq(w, self);
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize<const P: bool>(&self, w: &mut Writer<'_, P>) {
        write_seq(w, self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.into_iter().map(T::deserialize).collect(),
            other => Err(invalid(&other, "a sequence")),
        }
    }
}

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

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize(v: Value) -> Result<Self, Error> {
        let mut it = take_seq(v, 2, "a tuple")?;
        Ok((next_elem(&mut it)?, next_elem(&mut it)?))
    }
}

/// Read a map key back: as a string first, then as the integer it spells.
fn key_from<K: Deserialize>(key: String) -> Result<K, Error> {
    let number = key.parse::<u64>().map(Number::from).ok();
    match K::deserialize(Value::String(key)) {
        Ok(k) => Ok(k),
        Err(e) => number.map_or(Err(e), |n| K::deserialize(Value::Number(n))),
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

/// A repeated key keeps its last value: the entries are read from the
/// last, so a value that a later entry overrides is never decoded.
impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(v: Value) -> Result<Self, Error> {
        let entries = match v {
            Value::Object(entries) => entries,
            other => return Err(invalid(&other, "a map")),
        };
        let mut map = BTreeMap::new();
        for (k, v) in entries.into_iter().rev() {
            if let Entry::Vacant(slot) = map.entry(key_from(k)?) {
                slot.insert(V::deserialize(v)?);
            }
        }
        Ok(map)
    }
}
