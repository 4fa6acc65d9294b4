//! JSON helpers on top of the workspace's own parser (`dcl1_obs::json`):
//! a serializer for the documents the harness writes, and typed field
//! access for the ones it reads.

pub use dcl1_obs::json::{escape, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Serializes `value` on one line. Fails on a non-finite number: a NaN
/// written as a metric would read as "present" to a careless consumer.
pub fn render(value: &Json) -> Result<String, String> {
    let mut out = String::new();
    render_into(value, &mut out)?;
    Ok(out)
}

fn render_into(value: &Json, out: &mut String) -> Result<(), String> {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            if !n.is_finite() {
                return Err(format!("non-finite number {n}"));
            }
            let _ = write!(out, "{n}");
        }
        Json::Str(s) => {
            let _ = write!(out, "\"{}\"", escape(s));
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out)?;
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":", escape(k));
                render_into(v, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

/// Builds an object from `(key, value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn num(v: f64) -> Json {
    Json::Num(v)
}

pub fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// A `name -> number` map as a JSON object.
pub fn num_map(map: &BTreeMap<String, f64>) -> Json {
    Json::Obj(
        map.iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect(),
    )
}

pub fn get_f64(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number {key:?}"))
}

pub fn get_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string {key:?}"))
}

pub fn get_arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array {key:?}"))
}

/// The members of an object value, or an error naming `what`.
pub fn members<'a>(doc: &'a Json, what: &str) -> Result<&'a BTreeMap<String, Json>, String> {
    match doc {
        Json::Obj(map) => Ok(map),
        _ => Err(format!("{what} is not an object")),
    }
}

/// A whole number read from a JSON number (counts, ids).
pub fn get_u64(doc: &Json, key: &str) -> Result<u64, String> {
    let v = get_f64(doc, key)?;
    if v >= 0.0 && v.fract() == 0.0 && v < 9.0e15 {
        // Checked non-negative, integral and below 2^53.
        Ok(v as u64)
    } else {
        Err(format!("{key:?} is not a whole number: {v}"))
    }
}

/// Reads and parses a JSON file.
pub fn read_file(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}
