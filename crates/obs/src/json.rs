//! Minimal JSON support: string escaping for the writers and a small
//! recursive-descent parser used by tests to validate emitted output.
//!
//! The workspace is std-only by policy, so the trace and metrics writers
//! hand-roll their JSON; this module keeps the escaping rules in one place
//! and provides just enough of a parser to assert that what we wrote is
//! well-formed and has the expected shape.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` for embedding inside a JSON string literal (no quotes added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value. Object keys are sorted (BTreeMap) — fine for
/// validation, which never depends on key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogate pairs are not produced by our writers.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or escape (neither
                // byte occurs inside a multi-byte character), validating
                // only those bytes so parsing stays linear in the input.
                let rest = &bytes[*pos..];
                let run =
                    rest.iter().position(|b| matches!(b, b'"' | b'\\')).unwrap_or(rest.len());
                out.push_str(std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?);
                *pos += run;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let doc = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"name":"dcl1_hit","ph":"X","ts":12,"dur":3,"pid":0,"tid":64,
             "args":{"core":0,"line":4096,"kind":"load"}}]}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("dcl1_hit"));
        assert_eq!(events[0].get("ts").unwrap().as_f64(), Some(12.0));
        let args = events[0].get("args").unwrap();
        assert_eq!(args.get("line").unwrap().as_f64(), Some(4096.0));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,2,]").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn parse_is_linear_in_string_bytes() {
        // 2 MiB of string payload (multi-byte characters included) in one
        // long value plus many short ones. The old per-character
        // revalidation of the remaining input needed ~10^12 byte checks
        // here (minutes); one pass takes milliseconds even unoptimized.
        let long = "héllo wörld ".repeat(1 << 16);
        let mut doc = format!("{{\"long\":\"{long}\",\"items\":[");
        for i in 0..(1 << 16) {
            let _ = write!(doc, "{}\"span-{i}-αβγ\\n\"", if i == 0 { "" } else { "," });
        }
        doc.push_str("]}");
        assert!(doc.len() >= 2 << 20, "document is {} bytes", doc.len());
        let t0 = std::time::Instant::now();
        let v = Json::parse(&doc).unwrap();
        let took = t0.elapsed();
        assert!(took < std::time::Duration::from_secs(5), "parse took {took:?}");
        assert_eq!(v.get("long").unwrap().as_str(), Some(long.as_str()));
        let items = v.get("items").unwrap().as_arr().unwrap();
        assert_eq!(items.len(), 1 << 16);
        assert_eq!(items[7].as_str(), Some("span-7-αβγ\n"));
    }

    #[test]
    fn parse_string_rejects_invalid_utf8() {
        // `Json::parse` takes `&str`, so only the byte-level entry point
        // can see malformed input: a lone continuation byte, a truncated
        // two-byte sequence before the closing quote, and an escape whose
        // hex digits split a character.
        for bad in [&b"\"ab\x80cd\""[..], b"\"ab\xc3\"", "\"\\u000é\"".as_bytes()] {
            assert!(parse_string(bad, &mut 0).is_err(), "{bad:?}");
        }
        assert_eq!(parse_string("\"aé\\\\b\"".as_bytes(), &mut 0).unwrap(), "aé\\b");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("-2.5e3").unwrap(), Json::Num(-2500.0));
        assert_eq!(
            Json::parse("\"\\u0041\"").unwrap(),
            Json::Str("A".to_string())
        );
    }
}
