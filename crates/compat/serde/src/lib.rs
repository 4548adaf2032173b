//! Offline stand-in for `serde`.
//!
//! The build environment has no access to crates.io, so this workspace vendors a compact
//! serialization framework with the same spelling as serde: `Serialize` / `Deserialize`
//! traits plus `#[derive(Serialize, Deserialize)]` macros (re-exported from the companion
//! `serde_derive` proc-macro crate).
//!
//! Unlike upstream serde's visitor architecture, this implementation serializes through an
//! explicit self-describing [`Value`] tree, which `serde_json` then prints/parses. That is
//! a deliberate simplification: the pliant workspace only needs deterministic JSON
//! round-tripping of plain data types.
//!
//! The derives cover structs with named fields and enums, generic or not (a generic
//! item's declared bounds are copied into the impl). Supported field attributes:
//! `#[serde(skip)]`, `#[serde(default)]`, `#[serde(default = "path")]`,
//! `#[serde(rename = "name")]`, `#[serde(skip_serializing_if = "path")]`. The container
//! attribute `#[serde(validate = "path")]` makes `Deserialize` call `path(&value)` after
//! reading the fields and turn an `Err(e)` into the error `invalid <noun>: <e>`, the
//! noun being the type name in lower-case words. Enums serialize externally tagged: unit
//! variants as strings, data variants as single-entry objects.

#![forbid(unsafe_code)]

// Lets this crate's own tests use the derives, whose output names `::serde`.
extern crate self as serde;

use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing serialized value (the JSON data model, with integers kept exact).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Negative or signed integer.
    Int(i64),
    /// Non-negative integer (kept separate so `u64` round-trips exactly).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object; insertion order is preserved so serialization is deterministic.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric value coerced to `f64`, if this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Numeric value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// Numeric value as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::UInt(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            _ => None,
        }
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The single `(key, value)` entry, if this is a one-entry object (externally tagged
    /// enum data variants serialize this way).
    pub fn as_single_entry(&self) -> Option<(&str, &Value)> {
        match self.as_object() {
            Some([(k, v)]) => Some((k.as_str(), v)),
            _ => None,
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// Creates an error with an arbitrary message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }

    /// A required field was missing from the serialized object.
    pub fn missing_field(ty: &str, field: &str) -> Self {
        Error(format!("missing field `{field}` while deserializing {ty}"))
    }

    /// The value had an unexpected shape.
    pub fn unexpected(ty: &str, value: &Value) -> Self {
        let shape = match value {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Int(_) | Value::UInt(_) => "an integer",
            Value::Float(_) => "a number",
            Value::Str(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        };
        Error(format!("expected {ty}, found {shape}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Serializes `self` into a value tree.
    fn to_value(&self) -> Value;
}

/// Types that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserializes from a value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// The value to use when a field is absent from the serialized object (`Some` only for
    /// types with a natural absent representation, like `Option`).
    fn absent() -> Option<Self> {
        None
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! serialize_uint {
    ($($t:ty),+) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::UInt(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let u = v.as_u64().ok_or_else(|| Error::unexpected(stringify!($t), v))?;
                <$t>::try_from(u).map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t))))
            }
        }
    )+};
}

serialize_uint!(u8, u16, u32, u64, usize);

macro_rules! serialize_int {
    ($($t:ty),+) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let i = *self as i64;
                if i >= 0 { Value::UInt(i as u64) } else { Value::Int(i) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let i = v.as_i64().ok_or_else(|| Error::unexpected(stringify!($t), v))?;
                <$t>::try_from(i).map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t))))
            }
        }
    )+};
}

serialize_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::unexpected("f64", v))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.as_f64().ok_or_else(|| Error::unexpected("f32", v))? as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::unexpected("bool", v))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.as_str()
            .ok_or_else(|| Error::unexpected("string", v))?
            .to_string())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = v.as_str().ok_or_else(|| Error::unexpected("char", v))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected a single-character string")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Box::new(T::from_value(v)?))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::unexpected("array", v))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for std::collections::VecDeque<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::unexpected("array", v))?
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

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_value(a)?, B::from_value(b)?)),
            _ => Err(Error::unexpected("2-element array", v)),
        }
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.as_array() {
            Some([a, b, c]) => Ok((A::from_value(a)?, B::from_value(b)?, C::from_value(c)?)),
            _ => Err(Error::unexpected("3-element array", v)),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::unexpected("object", v))?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
            .collect()
    }
}

impl<V: Serialize, S: std::hash::BuildHasher> Serialize for HashMap<String, V, S> {
    fn to_value(&self) -> Value {
        // Sort keys so serialization is deterministic regardless of hasher state.
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::unexpected("object", v))?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(()),
            other => Err(Error::unexpected("null", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Vec::<u8>::from_value(&vec![1u8, 2].to_value()).unwrap(),
            vec![1, 2]
        );
    }

    #[test]
    fn u64_round_trips_exactly() {
        let big = u64::MAX - 3;
        assert_eq!(u64::from_value(&big.to_value()).unwrap(), big);
    }

    #[test]
    fn absent_fields_only_default_for_option() {
        assert_eq!(<Option<u32> as Deserialize>::absent(), Some(None));
        assert_eq!(<u32 as Deserialize>::absent(), None);
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    #[serde(validate = "Percent::validate")]
    struct Percent {
        value: f64,
    }

    impl Percent {
        fn validate(&self) -> Result<(), String> {
            if (0.0..=100.0).contains(&self.value) {
                Ok(())
            } else {
                Err(format!("{} lies outside [0, 100]", self.value))
            }
        }
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    #[serde(validate = "Bound::check")]
    enum Bound {
        Open,
        At { limit: i64 },
    }

    impl Bound {
        fn check(&self) -> Result<(), &'static str> {
            match self {
                Bound::At { limit } if *limit < 0 => Err("limits are non-negative"),
                _ => Ok(()),
            }
        }
    }

    #[test]
    fn validate_hook_accepts_valid_values_and_names_the_type_on_rejection() {
        let ok = Percent { value: 42.0 };
        assert_eq!(Percent::from_value(&ok.to_value()).unwrap(), ok);
        let err = Percent::from_value(&Percent { value: 140.0 }.to_value()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid percent: 140 lies outside [0, 100]"
        );

        assert_eq!(
            Bound::from_value(&Bound::Open.to_value()).unwrap(),
            Bound::Open
        );
        let at = Bound::At { limit: 3 };
        assert_eq!(Bound::from_value(&at.to_value()).unwrap(), at);
        let err = Bound::from_value(&Bound::At { limit: -1 }.to_value()).unwrap_err();
        assert_eq!(err.to_string(), "invalid bound: limits are non-negative");
        // Shape errors come from the field reads, before the hook runs.
        assert!(Percent::from_value(&Value::Null).is_err());
    }

    trait Unit: Serialize + Deserialize {
        type Scale: Serialize + Deserialize;
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Metres {
        Metre,
    }

    impl Unit for Metres {
        type Scale = u32;
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Reading<U: Unit = Metres, const N: usize = 2> {
        unit: U,
        scales: Vec<U::Scale>,
        label: Option<String>,
    }

    #[test]
    fn generic_derive_copies_bounds_and_drops_defaults() {
        let reading: Reading = Reading {
            unit: Metres::Metre,
            scales: vec![1, 1000],
            label: None,
        };
        let value = reading.to_value();
        assert_eq!(
            value.get("scales"),
            Some(&Value::Array(vec![Value::UInt(1), Value::UInt(1000)]))
        );
        assert_eq!(Reading::<Metres, 2>::from_value(&value).unwrap(), reading);
    }

    #[test]
    fn single_entry_object_access() {
        let v = Value::Object(vec![("Cores".to_string(), Value::UInt(2))]);
        let (k, inner) = v.as_single_entry().unwrap();
        assert_eq!(k, "Cores");
        assert_eq!(inner.as_u64(), Some(2));
    }
}
