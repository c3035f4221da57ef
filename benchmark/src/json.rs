//! JSON through the vendored serde shim, whose interchange type
//! [`serde::Value`] implements neither of its own traits.

use serde::{Deserialize, Error, Serialize, Value};

struct Doc(Value);

impl Serialize for Doc {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Doc {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(Doc(value.clone()))
    }
}

pub fn render(value: &Value) -> String {
    serde_json::to_string(&Doc(value.clone())).expect("a value tree always renders")
}

pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Doc>(text)
        .map(|doc| doc.0)
        .map_err(|e| e.to_string())
}

pub fn map<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The elements of an array (none for any other value).
pub fn items(value: &Value) -> &[Value] {
    match value {
        Value::Seq(items) => items,
        _ => &[],
    }
}

pub fn text(value: &Value) -> Result<String, String> {
    match value {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!("expected a string, found {other:?}")),
    }
}

pub fn number(value: &Value) -> Result<f64, String> {
    match value {
        Value::F64(n) => Ok(*n),
        Value::I64(n) => Ok(*n as f64),
        Value::U64(n) => Ok(*n as f64),
        other => Err(format!("expected a number, found {other:?}")),
    }
}
