//! The workspace's one JSON grammar: the reader and the writer of every
//! fixed-schema document it reads or writes.
//!
//! Six versioned formats (sweep checkpoints/reports, declarative
//! scenarios, trace stats, metrics snapshots, profile span trees and
//! heartbeat lines; `docs/FORMATS.md` specifies them), the bench reports
//! and the per-scenario result files are all written through [`Writer`],
//! and those the workspace reads back are parsed by [`parse`]. Both
//! halves cover exactly the subset the writers emit, no more: objects,
//! arrays, strings with simple (and `\u`) escapes, numbers,
//! `true`/`false`/`null`.
//!
//! What the callers build on:
//!
//! - **one escaping rule, one float rule** — every key and string goes
//!   through [`escape`], and every float is the shortest text that parses
//!   back to the same bits, or `null` for NaN and the infinities;
//! - **exact float round-trip** — the reader keeps numbers as their raw
//!   text, so the byte-level resume and encode→decode→encode identity
//!   guarantees hold;
//! - **layout per container** — an object or array is [`Layout::Inline`]
//!   or [`Layout::Lines`]; the writer owns separators and indentation, so
//!   an emitter states only its document's fields and shape;
//! - **positioned errors** — every parse failure carries a byte offset,
//!   and [`line_col`] converts one into a `line:column` pair so CLI
//!   schema errors can point into the offending file. Nesting deeper
//!   than [`MAX_DEPTH`] is one of them, not a stack overflow.

use std::fmt;
use std::fmt::Write as _;

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

    fn mismatch<T>(&self, what: &str, expected: &str) -> Result<T, String> {
        Err(format!(
            "{what}: expected {expected}, got {}",
            self.type_name()
        ))
    }

    /// The object fields, or an error naming `what`.
    pub fn as_object(&self, what: &str) -> Result<&[(String, Value)], String> {
        match self {
            Value::Obj(fields) => Ok(fields),
            _ => self.mismatch(what, "object"),
        }
    }

    /// The array elements, or an error naming `what`.
    pub fn as_array(&self, what: &str) -> Result<&[Value], String> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => self.mismatch(what, "array"),
        }
    }

    /// The string contents, or an error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => self.mismatch(what, "string"),
        }
    }

    /// The number parsed as a `T` (`ty` in errors), or an error naming
    /// `what`.
    fn number<T: std::str::FromStr>(&self, what: &str, ty: &str) -> Result<T, String> {
        match self {
            Value::Num(raw) => raw
                .parse()
                .map_err(|_| format!("{what}: '{raw}' is not {ty}")),
            _ => self.mismatch(what, "number"),
        }
    }

    /// The number as `u64`, or an error naming `what`.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        self.number(what, "a u64")
    }

    /// The number as `f64`, or an error naming `what`.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        self.number(what, "an f64")
    }

    /// The boolean, or an error naming `what`.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => self.mismatch(what, "bool"),
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
    get(fields, key).ok().filter(|v| !v.is_null())
}

/// How many objects and arrays [`parse`] accepts nested inside each
/// other. The deepest document the workspace writes is a scenario whose
/// `compose` attacks nest (three levels per `compose`); a deeper one
/// comes from outside and is refused before it can exhaust the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
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

/// Parses the value at `pos`, which sits inside `depth` open containers.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err("unexpected end of document", *pos)),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err("nesting too deep", *pos)),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
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

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
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

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
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
        let value = parse_value(b, pos, depth)?;
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

/// Escapes a string for embedding in a JSON document (the counterpart of
/// `parse_string`): the one escaping rule, for keys and values alike.
/// Control characters without a short escape are written `\u00XX`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON scalar: what [`Writer::value`] and [`Writer::field`] accept.
pub trait Scalar {
    /// Appends the value's JSON text to `out`.
    fn write_to(&self, out: &mut String);
}

/// Integers and booleans are written as `Display` writes them.
macro_rules! display_scalars {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_to(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_scalars!(u32, u64, usize, bool);

/// The one float rule: the shortest text that parses back to the same
/// bits, or `null` for NaN and the infinities, which JSON cannot hold.
impl Scalar for f64 {
    fn write_to(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl Scalar for str {
    fn write_to(&self, out: &mut String) {
        out.push('"');
        out.push_str(&escape(self));
        out.push('"');
    }
}

impl Scalar for String {
    fn write_to(&self, out: &mut String) {
        self.as_str().write_to(out);
    }
}

/// `None` is `null`.
impl<T: Scalar> Scalar for Option<T> {
    fn write_to(&self, out: &mut String) {
        match self {
            Some(v) => v.write_to(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_to(&self, out: &mut String) {
        (**self).write_to(out);
    }
}

/// How a container lays out its members.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// On one line: `{"a": 1, "b": 2}`.
    Inline,
    /// One member per line, two spaces deeper than the enclosing `Lines`
    /// container; the closing bracket returns to that container's depth.
    /// Empty, it is `{}` or `[]`.
    Lines,
}

struct Open {
    close: char,
    layout: Layout,
    empty: bool,
}

/// Builds one JSON document: containers are opened with a [`Layout`] and
/// closed with [`Writer::end`], members are written with
/// [`Writer::field`] (objects) or [`Writer::value`] (arrays). Separators,
/// indentation, escaping and the float rule are the writer's.
#[derive(Default)]
pub struct Writer {
    out: String,
    open: Vec<Open>,
    /// A key was just written; its value follows on the same line.
    keyed: bool,
}

impl Writer {
    /// An empty document.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Writes the separator that goes before a member of the innermost
    /// open container.
    fn member(&mut self) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        let Some(open) = self.open.last_mut() else {
            return;
        };
        let (first, layout) = (std::mem::replace(&mut open.empty, false), open.layout);
        if !first {
            self.out.push(',');
        }
        match layout {
            Layout::Lines => self.newline(),
            Layout::Inline if !first => self.out.push(' '),
            Layout::Inline => {}
        }
    }

    /// Starts a line indented two spaces per open `Lines` container.
    fn newline(&mut self) {
        self.out.push('\n');
        for _ in self.open.iter().filter(|o| o.layout == Layout::Lines) {
            self.out.push_str("  ");
        }
    }

    fn open(&mut self, open: char, close: char, layout: Layout) -> &mut Writer {
        self.member();
        self.out.push(open);
        self.open.push(Open {
            close,
            layout,
            empty: true,
        });
        self
    }

    /// Opens an object as the next value.
    pub fn object(&mut self, layout: Layout) -> &mut Writer {
        self.open('{', '}', layout)
    }

    /// Opens an array as the next value.
    pub fn array(&mut self, layout: Layout) -> &mut Writer {
        self.open('[', ']', layout)
    }

    /// Closes the innermost open container.
    pub fn end(&mut self) -> &mut Writer {
        let open = self.open.pop().expect("end() without an open container");
        if open.layout == Layout::Lines && !open.empty {
            self.newline();
        }
        self.out.push(open.close);
        self
    }

    /// Writes an object key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        self.member();
        key.write_to(&mut self.out);
        self.out.push_str(": ");
        self.keyed = true;
        self
    }

    /// Writes a scalar as the next value.
    pub fn value(&mut self, v: impl Scalar) -> &mut Writer {
        self.member();
        v.write_to(&mut self.out);
        self
    }

    /// Writes `"key": v`.
    pub fn field(&mut self, key: &str, v: impl Scalar) -> &mut Writer {
        self.key(key).value(v)
    }

    /// Writes `"key": ` followed by `write(v)`, or by `null` when `v` is
    /// `None`: a nested document that may be absent.
    pub fn field_opt<T>(
        &mut self,
        key: &str,
        v: Option<T>,
        write: impl FnOnce(T, &mut Writer),
    ) -> &mut Writer {
        self.key(key);
        match v {
            Some(v) => write(v, self),
            None => {
                self.value(None::<u64>);
            }
        }
        self
    }

    /// Writes `items` as an inline array.
    pub fn list<T: Scalar>(&mut self, items: impl IntoIterator<Item = T>) -> &mut Writer {
        self.array(Layout::Inline);
        for item in items {
            self.value(item);
        }
        self.end()
    }

    /// Takes the finished document (no trailing newline), leaving the
    /// writer empty.
    pub fn finish(&mut self) -> String {
        assert!(self.open.is_empty(), "finish() with a container open");
        std::mem::take(&mut self.out)
    }
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
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(parse("\"\\u0001\"").unwrap().as_str("s").unwrap(), "\u{1}");
    }

    fn scalar(v: impl Scalar) -> String {
        let mut w = Writer::new();
        w.value(v);
        w.finish()
    }

    #[test]
    fn num_writes_null_for_what_json_cannot_hold() {
        assert_eq!(scalar(0.30000000000000004), "0.30000000000000004");
        assert_eq!(scalar(5.0), "5");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(scalar(v), "null");
        }
        assert_eq!(scalar(None::<f64>), "null");
        assert_eq!(scalar("a\"b"), r#""a\"b""#);
    }

    #[test]
    fn u64_lists_round_trip() {
        let xs = [3u64, 1, 4, 1, 5];
        let mut w = Writer::new();
        w.list(xs);
        let doc = w.finish();
        assert_eq!(doc, "[3, 1, 4, 1, 5]");
        assert_eq!(parse(&doc).unwrap().as_u64_array("xs").unwrap(), xs);
        let mut w = Writer::new();
        w.list::<u64>([]);
        assert_eq!(w.finish(), "[]");
        assert!(parse("[1, -2]").unwrap().as_u64_array("xs").is_err());
        assert!(parse("3").unwrap().as_u64_array("xs").is_err());
    }

    #[test]
    fn containers_lay_out_inline_or_one_member_per_line() {
        use Layout::{Inline, Lines};
        let mut w = Writer::new();
        w.object(Lines)
            .field("a\"b", 1u64)
            .key("inline")
            .object(Inline);
        w.field("x", true).key("rows").array(Lines);
        w.object(Inline).field("y", 2.5).end();
        w.array(Lines).end();
        w.end().end().key("empty").object(Lines).end();
        w.field_opt("absent", None::<u64>, |v, w| {
            w.value(v);
        });
        w.end();
        let doc = w.finish();
        assert_eq!(
            doc,
            "{\n  \"a\\\"b\": 1,\n  \"inline\": {\"x\": true, \"rows\": [\n    \
             {\"y\": 2.5},\n    []\n  ]},\n  \"empty\": {},\n  \"absent\": null\n}"
        );
        assert!(parse(&doc).is_ok());
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_an_error_not_an_overflow() {
        for open in ["[", "{\"a\":"] {
            let e = parse(&open.repeat(50_000)).unwrap_err();
            assert_eq!(e.message, "nesting too deep");
            assert_eq!(
                e.at,
                MAX_DEPTH * open.len(),
                "positioned at the first refused bracket"
            );
        }
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        let one_more = format!("[{deepest}]");
        assert_eq!(parse(&one_more).unwrap_err().message, "nesting too deep");
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
