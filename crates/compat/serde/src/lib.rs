//! Offline, in-workspace stand-in for `serde`.
//!
//! The build environment has no crates.io access, so this crate provides
//! the thin slice of serde the workspace uses: [`Serialize`] /
//! [`Deserialize`] traits with `#[derive(..)]` support (via the sibling
//! `serde_derive` stand-in), modelled over a JSON-like [`Value`] tree
//! instead of serde's visitor machinery. `serde_json` builds its text
//! format on the same [`Value`].
//!
//! The public trait names and import paths match upstream
//! (`use serde::{Serialize, Deserialize};`,
//! `use serde::de::DeserializeOwned;`), so swapping the real crates back
//! in later only requires restoring the registry dependencies.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

pub use serde_derive::{Deserialize, Serialize};

mod value;

pub use value::{Number, Value};

/// A deserialization/validation error with a context trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    message: String,
}

impl DeError {
    /// Creates an error from a message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// Wraps the error with a `where` context (e.g. a field path).
    #[must_use]
    pub fn context(self, location: &str) -> Self {
        Self {
            message: format!("{location}: {}", self.message),
        }
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for DeError {}

/// Serialization into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` into a [`Value`] tree.
    fn to_value(&self) -> Value;
}

/// Deserialization from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a [`Value`] tree.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] if the value does not match the expected shape.
    fn from_value(value: &Value) -> Result<Self, DeError>;
}

/// Deserialization-related items, mirroring `serde::de`.
pub mod de {
    /// Marker for types deserializable without borrowing from the input.
    /// In this stand-in every [`crate::Deserialize`] qualifies.
    pub trait DeserializeOwned: crate::Deserialize {}

    impl<T: crate::Deserialize> DeserializeOwned for T {}
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        T::from_value(value).map(Arc::new)
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::new(format!("expected bool, got {}", other.kind()))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::String(s) => Ok(s.clone()),
            other => Err(DeError::new(format!(
                "expected string, got {}",
                other.kind()
            ))),
        }
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from_u64(*self as u64))
            }
        }

        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let n = value
                    .as_u64()
                    .ok_or_else(|| DeError::new(format!(
                        "expected unsigned integer, got {}",
                        value.kind()
                    )))?;
                <$t>::try_from(n).map_err(|_| {
                    DeError::new(format!("{n} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from_i64(*self as i64))
            }
        }

        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let n = value
                    .as_i64()
                    .ok_or_else(|| DeError::new(format!(
                        "expected integer, got {}",
                        value.kind()
                    )))?;
                <$t>::try_from(n).map_err(|_| {
                    DeError::new(format!("{n} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::from_f64(*self))
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_f64()
            .ok_or_else(|| DeError::new(format!("expected number, got {}", value.kind())))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        // f32 -> f64 is exact; the shortest-roundtrip printer preserves
        // enough digits that casting back recovers the original bits.
        Value::Number(Number::from_f64(f64::from(*self)))
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(f64::from_value(value)? as f32)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
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

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, v)| T::from_value(v).map_err(|e| e.context(&format!("[{i}]"))))
                .collect(),
            other => Err(DeError::new(format!("expected array, got {}", other.kind()))),
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
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Object(map) => map
                .iter()
                .map(|(k, v)| {
                    V::from_value(v)
                        .map(|v| (k.clone(), v))
                        .map_err(|e| e.context(&format!(".{k}")))
                })
                .collect(),
            other => Err(DeError::new(format!(
                "expected object, got {}",
                other.kind()
            ))),
        }
    }
}

impl<V: Serialize, S> Serialize for std::collections::HashMap<String, V, S> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize, S: std::hash::BuildHasher + Default> Deserialize
    for std::collections::HashMap<String, V, S>
{
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Object(map) => map
                .iter()
                .map(|(k, v)| {
                    V::from_value(v)
                        .map(|v| (k.clone(), v))
                        .map_err(|e| e.context(&format!(".{k}")))
                })
                .collect(),
            other => Err(DeError::new(format!(
                "expected object, got {}",
                other.kind()
            ))),
        }
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+) of $len:expr;)*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }

        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::Array(items) if items.len() == $len => Ok((
                        $($name::from_value(&items[$idx])
                            .map_err(|e| e.context(concat!("tuple.", stringify!($idx))))?,)+
                    )),
                    other => Err(DeError::new(format!(
                        "expected {}-element array, got {}",
                        $len,
                        other.kind()
                    ))),
                }
            }
        }
    )*};
}

impl_serde_tuple! {
    (A: 0) of 1;
    (A: 0, B: 1) of 2;
    (A: 0, B: 1, C: 2) of 3;
    (A: 0, B: 1, C: 2, D: 3) of 4;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-42i64).to_value()).unwrap(), -42);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(bool::from_value(&true.to_value()).unwrap(), true);
    }

    #[test]
    fn collections_roundtrip() {
        let v = vec![vec![1.0f32, 2.0], vec![3.0]];
        let back: Vec<Vec<f32>> = Deserialize::from_value(&v.to_value()).unwrap();
        assert_eq!(back, v);

        let mut m = BTreeMap::new();
        m.insert("a".to_string(), "x".to_string());
        let back: BTreeMap<String, String> = Deserialize::from_value(&m.to_value()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn option_and_tuple_roundtrip() {
        let some: Option<u32> = Some(7);
        let none: Option<u32> = None;
        assert_eq!(Option::<u32>::from_value(&some.to_value()).unwrap(), some);
        assert_eq!(Option::<u32>::from_value(&none.to_value()).unwrap(), none);
        let t = ("k".to_string(), 2.5f64);
        let back: (String, f64) = Deserialize::from_value(&t.to_value()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn arc_is_transparent() {
        let shared = Arc::new(vec![true, false]);
        assert_eq!(shared.to_value(), vec![true, false].to_value());
        let back: Arc<Vec<bool>> = Deserialize::from_value(&shared.to_value()).unwrap();
        assert_eq!(back, shared);
    }

    #[test]
    fn type_mismatch_is_reported() {
        let err = u64::from_value(&Value::String("x".into())).unwrap_err();
        assert!(err.to_string().contains("expected unsigned integer"));
    }
}
