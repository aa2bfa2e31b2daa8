//! The workspace's one fixed-schema JSON reader.
//!
//! Three self-hosted document formats share this parser: sweep
//! checkpoints/reports (`lockss-experiments::sweep`), bench reports and
//! trajectory anchors (`lockss-bench::diff`), and declarative scenario
//! files (`lockss-experiments::spec`). All three are *fixed-schema*
//! writers — this reader supports exactly the subset they emit, no more:
//! objects, arrays, strings with simple (and `\u`) escapes, numbers,
//! `true`/`false`/`null`.
//!
//! Two properties matter to the callers:
//!
//! - **exact float round-trip** — numbers are kept as their raw text, so
//!   an `f64` written with shortest-repr formatting parses back to the
//!   same bits (the byte-level resume and encode→decode→encode identity
//!   guarantees build on this);
//! - **positioned errors** — every parse failure carries a byte offset,
//!   and [`line_col`] converts one into a `line:column` pair so CLI
//!   schema errors can point into the offending file.

use std::fmt;

/// A parse failure with the byte offset where it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the document.
    pub at: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for Error {}

impl From<Error> for String {
    fn from(e: Error) -> String {
        e.to_string()
    }
}

/// Converts a byte offset in `text` into a 1-based `(line, column)` pair
/// (column counts bytes, which equals characters for the ASCII documents
/// these schemas emit).
pub fn line_col(text: &str, at: usize) -> (usize, usize) {
    let upto = &text.as_bytes()[..at.min(text.len())];
    let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
    let col = 1 + upto.iter().rev().take_while(|&&b| b != b'\n').count();
    (line, col)
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw text for exact round-trips.
    Num(String),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A short name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    /// The object fields, or an error naming `what`.
    pub fn as_object(&self, what: &str) -> Result<&[(String, Value)], String> {
        match self {
            Value::Obj(fields) => Ok(fields),
            other => Err(format!(
                "{what}: expected object, got {}",
                other.type_name()
            )),
        }
    }

    /// The array elements, or an error naming `what`.
    pub fn as_array(&self, what: &str) -> Result<&[Value], String> {
        match self {
            Value::Arr(items) => Ok(items),
            other => Err(format!("{what}: expected array, got {}", other.type_name())),
        }
    }

    /// The string contents, or an error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!(
                "{what}: expected string, got {}",
                other.type_name()
            )),
        }
    }

    /// The number as `u64`, or an error naming `what`.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Value::Num(raw) => raw
                .parse()
                .map_err(|_| format!("{what}: '{raw}' is not a u64")),
            other => Err(format!(
                "{what}: expected number, got {}",
                other.type_name()
            )),
        }
    }

    /// The number as `f64`, or an error naming `what`.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Value::Num(raw) => raw
                .parse()
                .map_err(|_| format!("{what}: '{raw}' is not an f64")),
            other => Err(format!(
                "{what}: expected number, got {}",
                other.type_name()
            )),
        }
    }

    /// The boolean, or an error naming `what`.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("{what}: expected bool, got {}", other.type_name())),
        }
    }

    /// The value as an array of `u64` — the shape every seed list in the
    /// sweep wire format takes — or an error naming `what`.
    pub fn as_u64_array(&self, what: &str) -> Result<Vec<u64>, String> {
        self.as_array(what)?
            .iter()
            .map(|v| v.as_u64(what))
            .collect()
    }
}

/// Renders a `u64` slice in the canonical element form shared by the
/// fixed-schema writers (`", "`-separated, no brackets): the writer-side
/// counterpart of [`Value::as_u64_array`].
pub fn u64_list(xs: &[u64]) -> String {
    let strs: Vec<String> = xs.iter().map(u64::to_string).collect();
    strs.join(", ")
}

/// Looks up a field of an object parsed by this module.
pub fn get<'v>(fields: &'v [(String, Value)], key: &str) -> Result<&'v Value, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field '{key}'"))
}

/// Looks up an optional field: absent and `null` both read as `None`.
pub fn get_opt<'v>(fields: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .filter(|v| !v.is_null())
}

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err("trailing garbage", pos));
    }
    Ok(value)
}

fn err(message: &str, at: usize) -> Error {
    Error {
        message: message.to_string(),
        at,
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), Error> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(err(&format!("expected '{}'", ch as char), *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err("unexpected end of document", *pos)),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_literal(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, Error> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(err("bad literal", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    if start == *pos {
        return Err(err("expected a value", start));
    }
    let raw = std::str::from_utf8(&b[start..*pos]).map_err(|e| err(&e.to_string(), start))?;
    // Validate now so later as_f64/as_u64 errors are about type, not
    // syntax.
    raw.parse::<f64>()
        .map_err(|_| err(&format!("'{raw}' is not a number"), start))?;
    Ok(Value::Num(raw.to_string()))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, Error> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = b.get(*pos).ok_or_else(|| err("dangling escape", *pos))?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32);
                        match hex {
                            Some(c) => {
                                out.push(c);
                                *pos += 4;
                            }
                            None => return Err(err("bad \\u escape", *pos)),
                        }
                    }
                    other => {
                        return Err(err(
                            &format!("unsupported escape '\\{}'", *other as char),
                            *pos,
                        ))
                    }
                }
                *pos += 1;
            }
            _ => {
                // Multi-byte UTF-8 sequences pass through unharmed: we
                // only branch on ASCII bytes, which never occur inside a
                // continuation.
                let start = *pos;
                while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[start..*pos]).map_err(|e| err(&e.to_string(), start))?,
                );
            }
        }
    }
    Err(err("unterminated string", *pos))
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(err("expected ',' or ']'", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(err("expected ',' or '}'", *pos)),
        }
    }
}

/// Escapes a string for embedding in a JSON document written by one of
/// the fixed-schema writers (the counterpart of `parse_string`).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shared_subset() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": null, "d": true}"#).unwrap();
        let obj = v.as_object("root").unwrap();
        let a = get(obj, "a").unwrap().as_array("a").unwrap();
        assert_eq!(a[0].as_u64("a0").unwrap(), 1);
        assert_eq!(a[1].as_f64("a1").unwrap(), 2.5);
        assert_eq!(a[2].as_f64("a2").unwrap(), -300.0);
        assert_eq!(get(obj, "b").unwrap().as_str("b").unwrap(), "x\ny");
        assert!(get(obj, "c").unwrap().is_null());
        assert!(get(obj, "d").unwrap().as_bool("d").unwrap());
    }

    #[test]
    fn numbers_keep_their_raw_text() {
        let v = parse("0.30000000000000004").unwrap();
        assert_eq!(v, Value::Num("0.30000000000000004".to_string()));
        let f = v.as_f64("x").unwrap();
        assert_eq!(format!("{f}"), "0.30000000000000004", "exact round-trip");
    }

    #[test]
    fn unicode_escape_decodes() {
        let v = parse(r#""éA""#).unwrap();
        assert_eq!(v.as_str("s").unwrap(), "éA");
        assert!(parse(r#""\u00g1""#).is_err());
    }

    #[test]
    fn errors_carry_positions() {
        let e = parse("{\"a\": }").unwrap_err();
        assert!(e.at > 0, "{e}");
        assert!(parse("{} trailing").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1, ]").is_err());
    }

    #[test]
    fn line_col_is_one_based() {
        let text = "{\n  \"a\": !\n}";
        let at = text.find('!').unwrap();
        assert_eq!(line_col(text, at), (2, 8));
        assert_eq!(line_col(text, 0), (1, 1));
        assert_eq!(line_col(text, text.len() + 50), (3, 2), "clamped");
    }

    #[test]
    fn escape_round_trips() {
        let s = "a \"quoted\" line\nwith\ttabs and \\slashes";
        let doc = format!("\"{}\"", escape(s));
        assert_eq!(parse(&doc).unwrap().as_str("s").unwrap(), s);
    }

    #[test]
    fn u64_lists_round_trip() {
        let xs = [3u64, 1, 4, 1, 5];
        let doc = format!("[{}]", u64_list(&xs));
        assert_eq!(parse(&doc).unwrap().as_u64_array("xs").unwrap(), xs);
        assert_eq!(u64_list(&[]), "");
        assert!(parse("[1, -2]").unwrap().as_u64_array("xs").is_err());
        assert!(parse("3").unwrap().as_u64_array("xs").is_err());
    }

    #[test]
    fn get_opt_treats_null_as_absent() {
        let v = parse(r#"{"a": null, "b": 3}"#).unwrap();
        let obj = v.as_object("root").unwrap();
        assert!(get_opt(obj, "a").is_none());
        assert!(get_opt(obj, "missing").is_none());
        assert_eq!(get_opt(obj, "b").unwrap().as_u64("b").unwrap(), 3);
    }
}
