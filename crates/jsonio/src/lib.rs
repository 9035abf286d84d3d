//! Minimal, dependency-free JSON support for the measurement exports.
//!
//! The paper's instrumented clients export their records as JSON files, and
//! this reproduction keeps that contract — but the build environment has no
//! network access, so `serde`/`serde_json` are unavailable. This crate
//! provides the small JSON surface the workspace needs:
//!
//! * [`Json`] — an ordered JSON value model (objects preserve insertion
//!   order, so exports are stable and diffable),
//! * [`Json::parse`] — a strict parser for the full JSON grammar,
//! * [`Json::to_string_compact`] / [`Json::to_string_pretty`] — writers,
//! * [`JsonError`] — the single error type for parsing and schema decoding.
//!
//! Types that need (de)serialisation implement it explicitly against this
//! model; see `measurement::dataset` for the main example.
//!
//! # Example
//!
//! ```
//! use jsonio::Json;
//!
//! let mut obj = Json::object();
//! obj.insert("client", Json::from("go-ipfs"));
//! obj.insert("pids", Json::from(42u64));
//! let text = obj.to_string_compact();
//! assert_eq!(text, r#"{"client":"go-ipfs","pids":42}"#);
//!
//! let parsed = Json::parse(&text).unwrap();
//! assert_eq!(parsed.get("pids").and_then(Json::as_u64), Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;
use std::fmt;

/// A JSON value.
///
/// Numbers are kept in three variants so that `u64` timestamps and IDs
/// round-trip exactly (an `f64`-only model would silently lose precision
/// above 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits in `u64`.
    UInt(u64),
    /// A negative integer that fits in `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`] or by schema decoding helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    /// Byte offset of the error in the input, when parsing.
    offset: Option<usize>,
}

impl JsonError {
    /// Creates a schema error (a structurally valid JSON document that does
    /// not match the expected shape).
    pub fn schema(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: None,
        }
    }

    fn parse(message: impl Into<String>, offset: usize) -> Self {
        JsonError {
            message: message.into(),
            offset: Some(offset),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "{} (at byte {offset})", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        if v >= 0 {
            Json::UInt(v as u64)
        } else {
            Json::Int(v)
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Creates an empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Creates an empty array.
    pub fn array() -> Json {
        Json::Array(Vec::new())
    }

    /// Sets a key of an object: an existing key keeps its position and gets
    /// the new value, a new key is appended.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Json {
        let Json::Object(entries) = self else {
            panic!("Json::insert called on a non-object");
        };
        let (key, value) = (key.into(), value.into());
        match entries.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1 = value,
            None => entries.push((key, value)),
        }
        self
    }

    /// Appends a value to an array.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an array.
    pub fn push(&mut self, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Array(items) => items.push(value.into()),
            _ => panic!("Json::push called on a non-array"),
        }
        self
    }

    /// Looks up a key of an object (`None` for missing keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::UInt(v) => i64::try_from(*v).ok(),
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object entries, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(entries) => Some(entries),
            _ => None,
        }
    }

    // ---- schema decoding helpers -------------------------------------------

    /// Fetches a required field of an object, with a schema error naming the
    /// missing key.
    pub fn field<'a>(&'a self, key: &str) -> Result<&'a Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::schema(format!("missing field `{key}`")))
    }

    /// Fetches a required string field.
    pub fn str_field(&self, key: &str) -> Result<&str, JsonError> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| JsonError::schema(format!("field `{key}` must be a string")))
    }

    /// Fetches a required `u64` field.
    pub fn u64_field(&self, key: &str) -> Result<u64, JsonError> {
        self.field(key)?
            .as_u64()
            .ok_or_else(|| JsonError::schema(format!("field `{key}` must be a non-negative integer")))
    }

    /// Fetches a required boolean field.
    pub fn bool_field(&self, key: &str) -> Result<bool, JsonError> {
        self.field(key)?
            .as_bool()
            .ok_or_else(|| JsonError::schema(format!("field `{key}` must be a boolean")))
    }

    /// Fetches a required array field.
    pub fn array_field<'a>(&'a self, key: &str) -> Result<&'a [Json], JsonError> {
        self.field(key)?
            .as_array()
            .ok_or_else(|| JsonError::schema(format!("field `{key}` must be an array")))
    }

    // ---- writing -----------------------------------------------------------

    /// Serialises to compact JSON (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialises to pretty-printed JSON with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(v) => {
                out.push_str(&v.to_string());
            }
            Json::Int(v) => {
                out.push_str(&v.to_string());
            }
            Json::Float(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    // ---- parsing -----------------------------------------------------------

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem for
    /// malformed input, including trailing garbage after the document and
    /// an object key that appears twice (the offset of its second copy).
    ///
    /// # Example
    ///
    /// ```
    /// use jsonio::Json;
    ///
    /// let value = Json::parse(r#"{"a": [1, -2, 3.5], "b": null}"#).unwrap();
    /// assert_eq!(value.get("a").unwrap().as_array().unwrap().len(), 3);
    /// assert!(Json::parse("{oops}").is_err());
    /// ```
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(JsonError::parse("trailing characters after document", parser.pos));
        }
        Ok(value)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..(width * depth) {
            out.push(' ');
        }
    }
}

/// Serialises a float as a JSON number.
///
/// JSON has no NaN/Infinity, so non-finite values have no faithful
/// representation. They serialise as the sentinel `null` — the document stays
/// valid JSON, but the value does **not** round-trip (it parses back as
/// [`Json::Null`]). Reports are never supposed to contain non-finite floats;
/// a debug assertion fires so an estimator emitting NaN is caught at the
/// source instead of silently shipping a rewritten report.
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let text = v.to_string();
        out.push_str(&text);
        // Keep the value a JSON *number* that parses back as Float.
        if !text.contains('.') && !text.contains('e') && !text.contains('E') {
            out.push_str(".0");
        }
    } else {
        debug_assert!(
            false,
            "serialising non-finite float {v} as the `null` sentinel; \
             it will not round-trip (parses back as Json::Null)"
        );
        out.push_str("null");
    }
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

/// Maximum container nesting [`Json::parse`] accepts. The parser recurses
/// per nesting level; the cap turns pathological inputs (`[[[[…`) into a
/// [`JsonError`] instead of a stack overflow. Measurement exports nest four
/// levels deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::parse(format!("expected `{}`", b as char), self.pos))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(JsonError::parse(format!("expected `{text}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => Err(JsonError::parse("unexpected character", self.pos)),
            None => Err(JsonError::parse("unexpected end of input", self.pos)),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(JsonError::parse(
                format!("nesting deeper than {MAX_DEPTH} levels"),
                self.pos,
            ));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(JsonError::parse("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(entries));
        }
        // A set, not a scan of `entries`, so many-key inputs stay linear.
        let mut seen = HashSet::new();
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if !seen.insert(key.clone()) {
                return Err(JsonError::parse(format!("duplicate key {key:?}"), key_at));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(entries));
                }
                _ => return Err(JsonError::parse("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(JsonError::parse("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(JsonError::parse("unpaired surrogate", start));
                                }
                                self.pos += 2;
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(JsonError::parse("invalid low surrogate", start));
                                }
                                let code =
                                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(first)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => {
                                    return Err(JsonError::parse("invalid unicode escape", start))
                                }
                            }
                            continue;
                        }
                        _ => return Err(JsonError::parse("invalid escape", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    // RFC 8259: control characters must be escaped.
                    return Err(JsonError::parse(
                        "unescaped control character in string",
                        self.pos,
                    ));
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so the
                    // bytes are valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| JsonError::parse("invalid utf-8", self.pos))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError::parse("truncated unicode escape", self.pos));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError::parse("invalid unicode escape", self.pos))?;
        let value = u32::from_str_radix(hex, 16)
            .map_err(|_| JsonError::parse("invalid unicode escape", self.pos))?;
        self.pos += 4;
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        // RFC 8259 grammar: int frac? exp? with no leading zeros and at
        // least one digit in every part.
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let int_len = self.pos - int_start;
        if int_len == 0 {
            return Err(JsonError::parse("invalid number", start));
        }
        if int_len > 1 && self.bytes[int_start] == b'0' {
            return Err(JsonError::parse("leading zeros are not allowed", start));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(JsonError::parse("expected digit after `.`", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(JsonError::parse("expected digit in exponent", self.pos));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::parse("invalid number", start))?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                // "-0" parses as 0_i64; keep the invariant that Int only
                // holds negative values.
                return Ok(if v >= 0 { Json::UInt(v as u64) } else { Json::Int(v) });
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError::parse("invalid number", start))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b & 0xE0 == 0xC0 => 2,
        b if b & 0xF0 == 0xE0 => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "42", "-7", "3.5", "1e3"] {
            let value = Json::parse(text).unwrap();
            let reparsed = Json::parse(&value.to_string_compact()).unwrap();
            assert_eq!(value, reparsed, "roundtrip failed for {text}");
        }
    }

    #[test]
    fn large_u64_roundtrips_exactly() {
        let v = Json::UInt(u64::MAX);
        assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn insert_replaces_an_existing_key_in_place() {
        let mut obj = Json::object();
        obj.insert("a", 1u64).insert("b", 2u64).insert("a", 3u64);
        assert_eq!(obj.to_string_compact(), r#"{"a":3,"b":2}"#);
    }

    #[test]
    fn duplicate_keys_are_rejected_with_their_offset() {
        let error = Json::parse(r#"{"a": 1, "b": {"c": 2}, "a": 3}"#).unwrap_err();
        assert_eq!(error.to_string(), r#"duplicate key "a" (at byte 24)"#);
        assert!(Json::parse(r#"{"x": {"a": 1, "a": 1}}"#).is_err());
        assert!(Json::parse(r#"[{"a": 1}, {"a": 1}]"#).is_ok(), "keys are per object");
    }

    #[test]
    fn object_order_is_preserved() {
        let mut obj = Json::object();
        obj.insert("z", 1u64);
        obj.insert("a", 2u64);
        assert_eq!(obj.to_string_compact(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn pretty_output_parses_back() {
        let mut obj = Json::object();
        obj.insert("list", vec![1u64, 2, 3]);
        obj.insert("name", "x \"quoted\" \n");
        let pretty = obj.to_string_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), obj);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Json::Str("tab\t nl\n quote\" back\\ unicode \u{1F600} ctrl\u{0001}".into());
        let text = original.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), original);
        // Escaped unicode also parses (surrogate pair).
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
    }

    #[test]
    fn garbage_is_rejected() {
        for text in ["", "{", "[1,", "{\"a\":}", "truex", "1 2", "\"\\q\"", "nul"] {
            assert!(Json::parse(text).is_err(), "should reject {text:?}");
        }
        // RFC 8259: raw control characters inside strings must be escaped.
        assert!(Json::parse("\"a\nb\"").is_err());
        assert!(Json::parse("\"a\tb\"").is_err());
        assert!(Json::parse(r#""a\nb""#).is_ok());
    }

    #[test]
    fn schema_helpers_report_missing_fields() {
        let obj = Json::parse(r#"{"a": 1}"#).unwrap();
        assert_eq!(obj.u64_field("a").unwrap(), 1);
        let err = obj.str_field("b").unwrap_err();
        assert!(err.to_string().contains("`b`"));
        assert!(obj.str_field("a").is_err());
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting"), "got: {err}");
        // A document at a sane depth still parses.
        let ok = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(Json::parse(&ok).is_ok());
        // Mixed object/array nesting counts too.
        let mixed = "{\"a\":".repeat(100_000);
        assert!(Json::parse(&mixed).is_err());
    }

    #[test]
    fn number_grammar_is_strict() {
        for bad in ["01", "1.", "-.5", ".5", "1e", "1e+", "-", "00", "0x1"] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
        for (good, expected) in [
            ("0", Json::UInt(0)),
            ("0.5", Json::Float(0.5)),
            ("-0", Json::UInt(0)),
            ("10", Json::UInt(10)),
            ("1e2", Json::Float(100.0)),
            ("-0.25e-1", Json::Float(-0.025)),
        ] {
            assert_eq!(Json::parse(good).unwrap(), expected, "for {good:?}");
        }
    }

    #[test]
    fn float_output_stays_a_number() {
        assert_eq!(Json::Float(2.0).to_string_compact(), "2.0");
        assert_eq!(Json::parse("2.0").unwrap(), Json::Float(2.0));
    }

    // Non-finite floats: loud in debug builds, documented `null` sentinel in
    // release builds. The sentinel deliberately does not round-trip — it
    // parses back as Json::Null — and the debug assertion is what keeps that
    // rewrite from ever happening silently.

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite float")]
    fn nan_serialisation_is_loud_in_debug() {
        let _ = Json::Float(f64::NAN).to_string_compact();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite float")]
    fn positive_infinity_serialisation_is_loud_in_debug() {
        let _ = Json::Float(f64::INFINITY).to_string_compact();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite float")]
    fn negative_infinity_serialisation_is_loud_in_debug() {
        let _ = Json::Float(f64::NEG_INFINITY).to_string_compact();
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn non_finite_floats_round_trip_to_the_null_sentinel() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = Json::Float(v).to_string_compact();
            assert_eq!(text, "null");
            assert_eq!(Json::parse(&text).unwrap(), Json::Null);
        }
    }
}
