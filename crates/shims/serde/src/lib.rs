//! Workspace-local stand-in for [`serde`](https://crates.io/crates/serde).
//!
//! The build environment for this repository has no access to crates.io, so
//! the workspace vendors minimal shims for its external dependencies. Unlike
//! the original marker-only shim, this version performs **real
//! serialisation**: [`Serialize`] renders any deriving type into a JSON-like
//! [`Value`] tree and [`Deserialize`] rebuilds the type from one. The
//! `serde_derive` shim generates genuine field-wise implementations, and the
//! `serde_json` shim supplies the text format (`to_string` / `from_str`) on
//! top of [`Value`].
//!
//! Differences from real serde, all confined to this shim:
//!
//! * there is no `Serializer`/`Deserializer` abstraction — the only data
//!   model is the [`Value`] tree (which `serde_json` re-exports as its
//!   `Value`, so downstream code reads exactly like code using the real
//!   crates);
//! * unknown object keys are ignored and missing fields are hard errors
//!   (real serde's default behaviour for plain derives);
//! * enums use serde's external tagging: unit variants serialise as strings,
//!   data variants as single-key objects.
//!
//! Restoring the real crates requires no source change in the substrate
//! crates: trait names, derive names and import paths match.

pub use serde_derive::{Deserialize, Serialize};

use std::fmt;

/// Error produced when a [`Value`] cannot be decoded into the requested
/// type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error with a custom message (mirrors `serde::de::Error`).
    pub fn custom(message: impl fmt::Display) -> Self {
        Self {
            message: message.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// A JSON number: a non-lossy union of the integer and float cases,
/// normalised so that non-negative integers always take the unsigned
/// representation (as in `serde_json`).
#[derive(Debug, Clone, Copy)]
pub struct Number {
    n: N,
}

#[derive(Debug, Clone, Copy)]
enum N {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

impl Number {
    /// Wraps a float. Non-finite values have no JSON representation and are
    /// rendered as `null` by the writer, as real `serde_json` does.
    pub fn from_f64(value: f64) -> Self {
        Self { n: N::Float(value) }
    }

    /// The value as an `f64` (integers convert losslessly up to 2⁵³).
    pub fn as_f64(&self) -> f64 {
        match self.n {
            N::PosInt(v) => v as f64,
            N::NegInt(v) => v as f64,
            N::Float(v) => v,
        }
    }

    /// The value as an `i64`, if representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self.n {
            N::PosInt(v) => i64::try_from(v).ok(),
            N::NegInt(v) => Some(v),
            N::Float(v) if v.fract() == 0.0 && v >= i64::MIN as f64 && v <= i64::MAX as f64 => {
                Some(v as i64)
            }
            N::Float(_) => None,
        }
    }

    /// The value as a `u64`, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self.n {
            N::PosInt(v) => Some(v),
            N::NegInt(v) => u64::try_from(v).ok(),
            N::Float(v) if v.fract() == 0.0 && v >= 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            N::Float(_) => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self.n, other.n) {
            (N::PosInt(a), N::PosInt(b)) => a == b,
            (N::NegInt(a), N::NegInt(b)) => a == b,
            (N::Float(a), N::Float(b)) => a == b,
            _ => false,
        }
    }
}

impl From<u64> for Number {
    fn from(v: u64) -> Self {
        Self { n: N::PosInt(v) }
    }
}

impl From<i64> for Number {
    fn from(v: i64) -> Self {
        if v >= 0 {
            Self {
                n: N::PosInt(v as u64),
            }
        } else {
            Self { n: N::NegInt(v) }
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.n {
            N::PosInt(v) => write!(f, "{v}"),
            N::NegInt(v) => write!(f, "{v}"),
            N::Float(v) if v.is_finite() => {
                // `{:?}` keeps a trailing `.0` on integral floats so the text
                // round-trips back to the float representation.
                write!(f, "{v:?}")
            }
            N::Float(_) => f.write_str("null"),
        }
    }
}

/// An insertion-ordered string-keyed map, the object half of [`Value`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a key, replacing (in place) any previous value under it.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        let key = key.into();
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Looks a key up.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Whether a key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Removes a key, returning its value if it was present. Insertion order
    /// of the remaining entries is preserved.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let index = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(index).1)
    }

    /// Iterates entries mutably in insertion order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&String, &mut Value)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// Values, mutably, in insertion order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Value> {
        self.entries.iter_mut().map(|(_, v)| v)
    }
}

/// A JSON-like value tree — the single data model of the shimmed serde
/// stack. The `serde_json` shim re-exports this as `serde_json::Value`.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

impl Value {
    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integral number in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integral number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable object access.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A short name of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Types that can render themselves into a [`Value`] tree.
///
/// Real serde's `Serialize` takes a `Serializer`; the shim's single data
/// model makes the method signature simpler while keeping derive usage
/// source-identical.
pub trait Serialize {
    /// Renders `self` as a [`Value`].
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize<'de>: Sized {
    /// Decodes a [`Value`] into `Self`.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the value's shape or range does not match.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

/// Marker stand-in for `serde::de`, for completeness of common paths.
pub mod de {
    /// Stand-in for `serde::de::DeserializeOwned`.
    pub trait DeserializeOwned: for<'de> crate::Deserialize<'de> {}
    impl<T: for<'de> crate::Deserialize<'de>> DeserializeOwned for T {}
}

// ---------------------------------------------------------------------------
// Primitive and container implementations
// ---------------------------------------------------------------------------

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<'de> Deserialize<'de> for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_bool()
            .ok_or_else(|| Error::custom(format!("expected bool, found {}", value.kind())))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::custom(format!("expected string, found {}", value.kind())))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<'de> Deserialize<'de> for char {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let s = value
            .as_str()
            .ok_or_else(|| Error::custom(format!("expected char, found {}", value.kind())))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected a one-character string")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        T::from_value(value).map(Box::new)
    }
}

macro_rules! unsigned_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from(*self as u64))
            }
        }

        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let n = value.as_u64().ok_or_else(|| {
                    Error::custom(format!(
                        "expected unsigned integer, found {}",
                        value.kind()
                    ))
                })?;
                <$t>::try_from(n).map_err(|_| {
                    Error::custom(format!(
                        "{n} out of range for {}",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}
unsigned_impls!(u8, u16, u32, u64, usize);

macro_rules! signed_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from(*self as i64))
            }
        }

        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let n = value.as_i64().ok_or_else(|| {
                    Error::custom(format!(
                        "expected signed integer, found {}",
                        value.kind()
                    ))
                })?;
                <$t>::try_from(n).map_err(|_| {
                    Error::custom(format!(
                        "{n} out of range for {}",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}
signed_impls!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::from_f64(*self))
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_f64()
            .ok_or_else(|| Error::custom(format!("expected number, found {}", value.kind())))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::from_f64(f64::from(*self)))
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        f64::from_value(value).map(|v| v as f32)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        if value.is_null() {
            Ok(None)
        } else {
            T::from_value(value).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::custom(format!("expected array, found {}", value.kind())))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const LEN: usize> Serialize for [T; LEN] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: Deserialize<'de>, const LEN: usize> Deserialize<'de> for [T; LEN] {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let vec: Vec<T> = Vec::from_value(value)?;
        let found = vec.len();
        vec.try_into()
            .map_err(|_| Error::custom(format!("expected array of {LEN} elements, found {found}")))
    }
}

/// Types usable as JSON object keys (strings on the wire). Mirrors
/// `serde_json`'s behaviour of stringifying integer map keys.
pub trait MapKey: Sized {
    /// Renders the key as an object-key string.
    fn to_key(&self) -> String;
    /// Parses the key back from an object-key string.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the string does not parse as this key type.
    fn from_key(key: &str) -> Result<Self, Error>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }

    fn from_key(key: &str) -> Result<Self, Error> {
        Ok(key.to_owned())
    }
}

macro_rules! int_map_key {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }

            fn from_key(key: &str) -> Result<Self, Error> {
                key.parse().map_err(|_| {
                    Error::custom(format!(
                        "invalid {} map key `{key}`",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}
int_map_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K, V, S> Serialize for std::collections::HashMap<K, V, S>
where
    K: MapKey + Ord,
    V: Serialize,
{
    fn to_value(&self) -> Value {
        // Sort keys so serialised output is deterministic regardless of
        // hash-map iteration order.
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let mut map = Map::new();
        for (k, v) in entries {
            map.insert(k.to_key(), v.to_value());
        }
        Value::Object(map)
    }
}

impl<'de, K, V, S> Deserialize<'de> for std::collections::HashMap<K, V, S>
where
    K: MapKey + std::hash::Hash + Eq,
    V: Deserialize<'de>,
    S: std::hash::BuildHasher + Default,
{
    fn from_value(value: &Value) -> Result<Self, Error> {
        let object = value
            .as_object()
            .ok_or_else(|| Error::custom(format!("expected object, found {}", value.kind())))?;
        object
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?)))
            .collect()
    }
}

impl<K: MapKey, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        for (k, v) in self {
            map.insert(k.to_key(), v.to_value());
        }
        Value::Object(map)
    }
}

impl<'de, K: MapKey + Ord, V: Deserialize<'de>> Deserialize<'de>
    for std::collections::BTreeMap<K, V>
{
    fn from_value(value: &Value) -> Result<Self, Error> {
        let object = value
            .as_object()
            .ok_or_else(|| Error::custom(format!("expected object, found {}", value.kind())))?;
        object
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?)))
            .collect()
    }
}

macro_rules! tuple_impls {
    ($(($($name:ident : $idx:tt),+)),*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }

        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let arr = value.as_array().ok_or_else(|| {
                    Error::custom(format!("expected tuple array, found {}", value.kind()))
                })?;
                let arity = [$($idx),+].len();
                if arr.len() != arity {
                    return Err(Error::custom(format!(
                        "expected tuple of {arity} elements, found {}",
                        arr.len()
                    )));
                }
                Ok(($($name::from_value(&arr[$idx])?,)+))
            }
        }
    )*};
}
tuple_impls!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3)
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_normalise_and_round_trip() {
        assert_eq!(Number::from(5i64), Number::from(5u64));
        assert_eq!(
            u32::from_value(&Value::Number(Number::from(7u64))).unwrap(),
            7
        );
        assert!(u8::from_value(&Value::Number(Number::from(700u64))).is_err());
        assert_eq!(
            i64::from_value(&Value::Number(Number::from(-3i64))).unwrap(),
            -3
        );
        assert_eq!(
            f64::from_value(&Value::Number(Number::from(2u64))).unwrap(),
            2.0
        );
    }

    #[test]
    fn map_insert_replaces_in_place() {
        let mut map = Map::new();
        map.insert("a", Value::Bool(true));
        map.insert("b", Value::Null);
        let old = map.insert("a", Value::Bool(false));
        assert_eq!(old, Some(Value::Bool(true)));
        assert_eq!(map.len(), 2);
        assert_eq!(map.keys().collect::<Vec<_>>(), ["a", "b"]);
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u32, -2i64), (3, -4)];
        let value = v.to_value();
        let back: Vec<(u32, i64)> = Vec::from_value(&value).unwrap();
        assert_eq!(back, v);

        let opt: Option<String> = None;
        assert!(opt.to_value().is_null());
        let some: Option<String> = Option::from_value(&Value::String("x".into())).unwrap();
        assert_eq!(some.as_deref(), Some("x"));
    }

    #[test]
    fn float_display_keeps_fraction_marker() {
        assert_eq!(Number::from_f64(1.0).to_string(), "1.0");
        assert_eq!(Number::from_f64(0.5).to_string(), "0.5");
        assert_eq!(Number::from(3u64).to_string(), "3");
    }
}
