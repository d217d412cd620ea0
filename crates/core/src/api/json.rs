//! A minimal hand-rolled JSON value, parser and printer.
//!
//! The workspace deliberately has no external dependencies, so the wire
//! protocol carries its own JSON support.  The subset is exactly what the
//! protocol needs: objects (as ordered key/value vectors, so serialization
//! is deterministic), arrays, strings with full escape handling, IEEE
//! numbers, booleans and null.  The parser is a recursive-descent reader
//! with a hard depth cap — adversarial nesting yields a structured
//! [`Error::Protocol`], never a stack overflow.

use crate::error::Error;
use std::fmt;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 128;

/// A JSON value.
///
/// Object fields keep insertion order (`Vec`, not a map): serializing the
/// same value twice yields the same bytes, which the determinism contract
/// of the wire protocol relies on.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are rendered without a fractional part).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in field order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Views this value as an object, or reports what was expected.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] if the value is not an object.
    pub fn as_obj_or<'a>(&'a self, what: &'static str) -> Result<ObjRef<'a>, Error> {
        match self {
            Json::Obj(fields) => Ok(ObjRef { what, fields }),
            other => Err(Error::Protocol(format!("{what} must be an object, got {other}"))),
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// A borrowed view of a JSON object with labelled, typed field accessors.
///
/// Every accessor error names both the object (`what`, from
/// [`Json::as_obj_or`]) and the field, so protocol errors pinpoint the
/// malformed part of a request.
#[derive(Debug, Clone, Copy)]
pub struct ObjRef<'a> {
    what: &'static str,
    fields: &'a [(String, Json)],
}

impl<'a> ObjRef<'a> {
    /// The field with the given key, if present.
    pub fn get(&self, key: &str) -> Option<&'a Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The field with the given key.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] if the field is missing.
    pub fn field(&self, key: &str) -> Result<&'a Json, Error> {
        self.get(key)
            .ok_or_else(|| Error::Protocol(format!("{} is missing field {key:?}", self.what)))
    }

    fn type_error(&self, key: &str, expected: &str, got: &Json) -> Error {
        Error::Protocol(format!("{}.{key} must be {expected}, got {got}", self.what))
    }

    /// A required string field.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] if missing or not a string.
    pub fn str_field(&self, key: &str) -> Result<&'a str, Error> {
        let value = self.field(key)?;
        value.as_str().ok_or_else(|| self.type_error(key, "a string", value))
    }

    /// A required boolean field.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] if missing or not a boolean.
    pub fn bool_field(&self, key: &str) -> Result<bool, Error> {
        match self.field(key)? {
            Json::Bool(b) => Ok(*b),
            other => Err(self.type_error(key, "a boolean", other)),
        }
    }

    /// A required non-negative integer field.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] if missing, not a number, negative or fractional.
    pub fn u64_field(&self, key: &str) -> Result<u64, Error> {
        match self.field(key)? {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => Ok(*n as u64),
            other => Err(self.type_error(key, "a non-negative integer", other)),
        }
    }

    /// An optional non-negative integer field (`null` and absence both read
    /// as `None`).
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] if present, non-null and not a valid integer.
    pub fn opt_u64_field(&self, key: &str) -> Result<Option<u64>, Error> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(_) => self.u64_field(key).map(Some),
        }
    }

    /// A required object-valued field.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] if missing or not an object.
    pub fn obj_field(&self, key: &str) -> Result<ObjRef<'a>, Error> {
        match self.field(key)? {
            Json::Obj(fields) => Ok(ObjRef { what: self.what, fields }),
            other => Err(self.type_error(key, "an object", other)),
        }
    }
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{8}' => f.write_str("\\b")?,
            '\u{c}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    /// Compact single-line JSON (the framing layer is line-delimited, so the
    /// printer never emits a newline).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    // JSON has no Inf/NaN; degrade to null rather than emit
                    // an unparseable token.
                    f.write_str("null")
                } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parses one JSON value from `input` (surrounding whitespace allowed,
/// trailing non-whitespace rejected).
///
/// # Errors
///
/// [`Error::Protocol`] with a byte offset on any syntax error, over-deep
/// nesting, bad escapes or invalid numbers.
pub fn parse_json(input: &str) -> Result<Json, Error> {
    let mut parser = Parser { bytes: input.as_bytes(), pos: 0 };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> Error {
        Error::Protocol(format!("json error at byte {}: {message}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {word}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, Error> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(&format!("unexpected character {:?}", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.error("bad \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.error("invalid utf-8 in string"))?;
            out.push_str(chunk);
            match self.peek() {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("invalid \\u escape"))?;
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ascii");
        let n: f64 = text.parse().map_err(|_| self.error(&format!("bad number {text:?}")))?;
        if !n.is_finite() {
            return Err(self.error(&format!("number {text:?} out of range")));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(value: &Json) -> Json {
        parse_json(&value.to_string()).unwrap()
    }

    #[test]
    fn scalars_round_trip() {
        for value in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::from(0u64),
            Json::from(42u64),
            Json::from(-17i64),
            Json::from(2.5),
            Json::from(1.0e-3),
            Json::from(""),
            Json::from("plain"),
            Json::from("quotes \" backslash \\ newline \n tab \t nul \u{1} emoji \u{1f600}"),
        ] {
            assert_eq!(roundtrip(&value), value, "for {value}");
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::from(7u64).to_string(), "7");
        assert_eq!(Json::from(-3i64).to_string(), "-3");
        assert_eq!(Json::from(2.5).to_string(), "2.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn containers_round_trip_and_preserve_order() {
        let value = Json::obj(vec![
            ("zeta", Json::Arr(vec![Json::from(1u64), Json::Null, Json::from("x")])),
            ("alpha", Json::obj(vec![("nested", Json::Bool(true))])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj(vec![])),
        ]);
        assert_eq!(roundtrip(&value), value);
        let text = value.to_string();
        assert!(text.find("zeta").unwrap() < text.find("alpha").unwrap());
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let parsed = parse_json(" { \"a\" : [ 1 , 2 ] , \"b\" : \"\\u0041\\u00e9\" } ").unwrap();
        let obj = parsed.as_obj_or("x").unwrap();
        assert!(!obj.u64_field("a").unwrap_err().to_string().contains("array"));
        assert_eq!(obj.str_field("b").unwrap(), "Aé");
        let pair = parse_json("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(pair.as_str().unwrap(), "😀");
    }

    #[test]
    fn malformed_input_is_a_structured_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "nul",
            "tru",
            "01a",
            "{\"a\":1,}",
            "1 2",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800x\"",
            "1e999",
            "\u{7f}",
            "[1 2]",
        ] {
            let err = parse_json(bad).unwrap_err();
            assert!(matches!(err, Error::Protocol(_)), "for {bad:?}: {err}");
        }
    }

    #[test]
    fn nesting_past_the_depth_cap_is_rejected() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        let err = parse_json(&deep).unwrap_err();
        assert!(err.to_string().contains("deep"), "{err}");
        // Depth just under the cap is fine.
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse_json(&ok).is_ok());
    }

    #[test]
    fn typed_field_accessors_report_object_and_field() {
        let value = parse_json(r#"{"n": 1.5, "s": "x", "neg": -2, "o": {"k": true}}"#).unwrap();
        let obj = value.as_obj_or("req").unwrap();
        assert!(obj.u64_field("n").unwrap_err().to_string().contains("req.n"));
        assert!(obj.u64_field("missing").unwrap_err().to_string().contains("missing"));
        assert!(obj.u64_field("neg").is_err());
        assert!(obj.bool_field("s").is_err());
        assert!(obj.obj_field("o").unwrap().bool_field("k").unwrap());
        assert_eq!(obj.opt_u64_field("missing").unwrap(), None);
        assert!(obj.opt_u64_field("s").is_err());
        assert!(value.as_obj_or("x").unwrap().get("n").is_some());
        assert!(Json::Null.as_obj_or("thing").unwrap_err().to_string().contains("thing"));
    }
}
