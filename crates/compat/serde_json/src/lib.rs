//! Offline, in-workspace stand-in for `serde_json`.
//!
//! Provides the JSON text format over the [`Value`] model shared with the
//! `serde` stand-in: [`to_string`], [`to_string_pretty`], [`from_str`],
//! [`to_value`], [`from_value`] and the [`json!`] macro. Numbers preserve
//! their integer/float kind; floats print with the shortest
//! representation that round-trips exactly, so `f32`/`f64` payloads
//! survive a save/load cycle bit-identically.

#![forbid(unsafe_code)]

use std::fmt;

use serde::de::DeserializeOwned;
use serde::Serialize;

pub use serde::{Number, Value};

mod parse;

/// A serialization or parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// A `Result` alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Converts a serializable value into a [`Value`] tree.
///
/// # Errors
///
/// Never fails in this stand-in; the `Result` keeps the upstream
/// signature.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

/// Reconstructs `T` from a [`Value`] tree.
///
/// # Errors
///
/// Returns [`Error`] if the value does not match `T`'s shape.
pub fn from_value<T: DeserializeOwned>(value: Value) -> Result<T> {
    T::from_value(&value).map_err(Error::from)
}

/// Serializes a value to compact JSON text.
///
/// # Errors
///
/// Never fails in this stand-in; the `Result` keeps the upstream
/// signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes a value to human-readable, two-space-indented JSON text.
///
/// # Errors
///
/// Never fails in this stand-in; the `Result` keeps the upstream
/// signature.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into `T`.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T> {
    let value = parse::parse(text)?;
    T::from_value(&value).map_err(Error::from)
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => write_seq(out, indent, level, items.iter(), '[', ']', |out, v, l| {
            write_value(out, v, indent, l);
        }),
        Value::Object(map) => write_seq(out, indent, level, map.iter(), '{', '}', |out, (k, v), l| {
            write_escaped(out, k);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            write_value(out, v, indent, l);
        }),
    }
}

fn write_seq<I: ExactSizeIterator>(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    items: I,
    open: char,
    close: char,
    mut write_item: impl FnMut(&mut String, I::Item, usize),
) {
    out.push(open);
    let len = items.len();
    if len == 0 {
        out.push(close);
        return;
    }
    for (i, item) in items.enumerate() {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat(' ').take(width * (level + 1)));
        }
        write_item(out, item, level + 1);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(width * level));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[doc(hidden)]
pub fn value_from_serialize<T: Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Builds a [`Value`] from a JSON-like literal. Object values and array
/// elements may be arbitrary serializable Rust expressions.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $( $elem:expr ),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::value_from_serialize(&$elem) ),* ])
    };
    ({ $( $key:literal : $val:expr ),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut map = ::std::collections::BTreeMap::new();
        $( map.insert($key.to_string(), $crate::value_from_serialize(&$val)); )*
        $crate::Value::Object(map)
    }};
    ($other:expr) => { $crate::value_from_serialize(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_output_matches_expectations() {
        let v = json!({"b": 1, "a": json!([true, json!(null), "x"]), "f": 0.5});
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"a":[true,null,"x"],"b":1,"f":0.5}"#
        );
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = json!({"name": "net", "weights": [1.5, -2.0], "epochs": 12});
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for x in [0.1f64, 1.0 / 3.0, f64::MIN_POSITIVE, 12345.678e-9, -0.0] {
            let text = to_string(&x).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {text}");
        }
        for x in [0.1f32, 2.0 / 3.0, f32::MIN_POSITIVE] {
            let text = to_string(&x).unwrap();
            let back: f32 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {text}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line1\nline2\t\"quoted\" \\ \u{1}".to_string();
        let text = to_string(&s).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(from_str::<Value>("{\"a\": ").is_err());
        assert!(from_str::<Value>("[1, 2,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("{} trailing").is_err());
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    }
}
