//! The workspace's one JSON codec: a [`Json`] value tree, its writer, and [`parse`]. Telemetry
//! snapshots, the CLI's `--json` reports and the `BENCH_*.json` files all go through it.
//!
//! `Display` writes the compact form, `{"k":v,...}`; `{:#}` expands the first two levels one
//! member per line with a two-space indent and writes deeper levels inline with `": "` and
//! `", "` — the layout of telemetry snapshots and BENCH files. A [`Number`] keeps its text, so
//! each caller picks its format ([`Json::float`], [`Json::fixed`], an integer) and a parsed
//! document re-renders byte for byte. JSON has no NaN or infinity, so those become the strings
//! `"nan"`, `"inf"` and `"-inf"`, which the snapshot reader turns back into numbers: the
//! writer never emits invalid JSON.
//!
//! [`parse`] accepts strict JSON (RFC 8259; `\u` escapes of UTF-16 surrogates excepted, which
//! this writer never produces) nested at most [`MAX_DEPTH`] deep, so adversarial input gets a
//! [`ParseError`] instead of exhausting the stack.

use std::fmt::{self, Write as _};

/// The deepest nesting of arrays and objects [`parse`] accepts. The deepest document the
/// workspace writes, a telemetry snapshot's histogram bucket pair, is 5 levels deep.
pub const MAX_DEPTH: usize = 64;

/// A JSON value. Objects keep their members in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its text.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object: `(key, value)` members in document order.
    Object(Vec<(String, Json)>),
}

/// The text of a JSON number. It always matches the JSON number grammar: it comes from an
/// integer, a finite `f64`, or [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Number(String);

macro_rules! json_from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(value: $t) -> Json {
                Json::Number(Number(value.to_string()))
            }
        }
    )*};
}
json_from_integer!(u32, u64, u128, usize, i64);

impl From<&str> for Json {
    fn from(value: &str) -> Json {
        Json::String(value.to_string())
    }
}

impl Json {
    /// An object from `(key, value)` members, in the order given.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(
            members
                .into_iter()
                .map(|(key, value)| (key.into(), value))
                .collect(),
        )
    }

    /// `value` through Rust's shortest round-tripping formatter; a non-finite value becomes
    /// the string `"nan"`, `"inf"` or `"-inf"`.
    pub fn float(value: f64) -> Json {
        Json::finite_or_sentinel(value, || value.to_string())
    }

    /// `value` with exactly `decimals` digits after the point (`{:.N}`); a non-finite value
    /// becomes the string `"nan"`, `"inf"` or `"-inf"`.
    pub fn fixed(value: f64, decimals: usize) -> Json {
        Json::finite_or_sentinel(value, || format!("{value:.decimals$}"))
    }

    fn finite_or_sentinel(value: f64, render: impl FnOnce() -> String) -> Json {
        if value.is_nan() {
            Json::from("nan")
        } else if value == f64::INFINITY {
            Json::from("inf")
        } else if value == f64::NEG_INFINITY {
            Json::from("-inf")
        } else {
            Json::Number(Number(render()))
        }
    }

    /// An unsigned integer.
    pub(crate) fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::Number(Number(raw)) => raw
                .parse::<u64>()
                .map_err(|_| format!("expected unsigned integer, got {raw:?}")),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// An `f64`, accepting the `"nan"`, `"inf"` and `"-inf"` strings [`Json::float`] writes.
    pub(crate) fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Number(Number(raw)) => raw
                .parse::<f64>()
                .map_err(|_| format!("expected number, got {raw:?}")),
            Json::String(s) if s == "nan" => Ok(f64::NAN),
            Json::String(s) if s == "inf" => Ok(f64::INFINITY),
            Json::String(s) if s == "-inf" => Ok(f64::NEG_INFINITY),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// An object's members.
    pub(crate) fn as_object(&self) -> Result<&[(String, Json)], String> {
        match self {
            Json::Object(members) => Ok(members),
            other => Err(format!("expected object, got {other:?}")),
        }
    }

    /// An array's items.
    pub(crate) fn as_array(&self) -> Result<&[Json], String> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(format!("expected array, got {other:?}")),
        }
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(value) => write!(f, "{value}"),
            Json::Number(Number(raw)) => f.write_str(raw),
            Json::String(text) => write_string(f, text),
            Json::Array(items) => {
                write_container(f, depth, ['[', ']'], items.iter().map(|item| (None, item)))
            }
            Json::Object(members) => write_container(
                f,
                depth,
                ['{', '}'],
                members
                    .iter()
                    .map(|(key, value)| (Some(key.as_str()), value)),
            ),
        }
    }
}

/// Writes an array (`key` is `None`) or an object, expanded one item per line at depths 0
/// and 1 of the alternate form.
fn write_container<'a>(
    f: &mut fmt::Formatter<'_>,
    depth: usize,
    [open, close]: [char; 2],
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) -> fmt::Result {
    let pretty = f.alternate();
    let expand = pretty && depth < 2 && items.len() > 0;
    f.write_char(open)?;
    for (i, (key, value)) in items.enumerate() {
        if i > 0 {
            f.write_str(if pretty && !expand { ", " } else { "," })?;
        }
        if expand {
            write!(f, "\n{:indent$}", "", indent = 2 * (depth + 1))?;
        }
        if let Some(key) = key {
            write_string(f, key)?;
            f.write_str(if pretty { ": " } else { ":" })?;
        }
        value.write(f, depth + 1)?;
    }
    if expand {
        write!(f, "\n{:indent$}", "", indent = 2 * depth)?;
    }
    f.write_char(close)
}

/// The one JSON string escaper: quotes, backslashes and control characters.
fn write_string(f: &mut fmt::Formatter<'_>, text: &str) -> fmt::Result {
    f.write_char('"')?;
    for ch in text.chars() {
        match ch {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    /// Compact by default; `{:#}` writes the two-level expanded layout (see the module docs).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

/// Why [`parse`] rejected a document, with the byte offset where it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Not valid JSON: what the parser expected or found.
    Syntax(usize, String),
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep(usize),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax(at, message) => {
                write!(f, "JSON parse error at byte {at}: {message}")
            }
            ParseError::TooDeep(at) => write!(
                f,
                "JSON parse error at byte {at}: nesting deeper than {MAX_DEPTH} levels"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document; surrounding whitespace is allowed, anything else is an error.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut parser = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    match parser.peek() {
        None => Ok(value),
        Some(_) => Err(parser.error("trailing content after document")),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError::Syntax(self.pos, message.to_string())
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The next byte after whitespace.
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.byte()
    }

    /// Consumes `byte` if it comes next after whitespace.
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.peek() == Some(byte);
        self.pos += usize::from(next);
        next
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.sequence(b'}', |p| {
                    if p.peek() != Some(b'"') {
                        return Err(p.error("expected a string key"));
                    }
                    let key = p.string()?;
                    if !p.eat(b':') {
                        return Err(p.error("expected ':'"));
                    }
                    members.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Object(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Array(items))
            }
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses the comma-separated items of the array or object whose opening bracket is next,
    /// through its `close` bracket, one nesting level deeper.
    fn sequence(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError::TooDeep(self.pos));
        }
        self.depth += 1;
        self.pos += 1;
        if !self.eat(close) {
            loop {
                item(self)?;
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.error(&format!("expected ',' or {:?}", close as char)));
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error(&format!("expected {word:?}")));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.byte().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        self.pos += usize::from(self.byte() == Some(b'-'));
        let leading_zero = self.byte() == Some(b'0');
        let int_digits = self.digits();
        let mut valid = int_digits == 1 || (int_digits > 1 && !leading_zero);
        if self.byte() == Some(b'.') {
            self.pos += 1;
            valid &= self.digits() > 0;
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.byte(), Some(b'+' | b'-')));
            valid &= self.digits() > 0;
        }
        let raw = &self.text[start..self.pos];
        if !valid {
            return Err(self.error(&format!("malformed number {raw:?}")));
        }
        Ok(Json::Number(Number(raw.to_string())))
    }

    /// A string whose opening quote is next.
    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(ch) = self.text[self.pos..].chars().next() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += ch.len_utf8();
            match ch {
                '"' => return Ok(out),
                '\\' => {
                    let escape = self.byte();
                    self.pos += 1;
                    out.push(match escape {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => char::from_u32(self.hex4()?)
                            .ok_or_else(|| self.error("surrogate \\u escape"))?,
                        _ => return Err(self.error("unknown escape")),
                    });
                }
                c if (c as u32) < 0x20 => return Err(self.error("control character in string")),
                c => out.push(c),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("malformed \\u escape"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_expanded_layouts() {
        let doc = Json::object([
            (
                "a",
                Json::object([("x", Json::from(1u64)), ("y", Json::Null)]),
            ),
            ("empty", Json::object::<String>([])),
            (
                "b",
                Json::object([(
                    "row",
                    Json::object([
                        ("p", Json::fixed(0.5, 3)),
                        ("q", Json::Array(vec![Json::Bool(true), Json::from("s")])),
                    ]),
                )]),
            ),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"a":{"x":1,"y":null},"empty":{},"b":{"row":{"p":0.500,"q":[true,"s"]}}}"#
        );
        assert_eq!(
            format!("{doc:#}"),
            "{\n  \"a\": {\n    \"x\": 1,\n    \"y\": null\n  },\n  \"empty\": {},\n  \"b\": {\n    \
             \"row\": {\"p\": 0.500, \"q\": [true, \"s\"]}\n  }\n}"
        );
    }

    #[test]
    fn parsed_documents_render_back_byte_for_byte() {
        let compact = r#"{"k":[1,-0.250,1e-7,2E+3,"\n\"\u0001",{},[]],"t":true,"f":false}"#;
        assert_eq!(parse(compact).unwrap().to_string(), compact);
        let expanded = "{\n  \"s\": {\n    \"row\": {\"a\": 1.500, \"b\": [[\"inf\", 2]]}\n  }\n}";
        assert_eq!(format!("{:#}", parse(expanded).unwrap()), expanded);
    }

    #[test]
    fn non_finite_floats_become_string_sentinels() {
        for (value, text) in [
            (f64::NAN, "\"nan\""),
            (f64::INFINITY, "\"inf\""),
            (f64::NEG_INFINITY, "\"-inf\""),
        ] {
            assert_eq!(Json::float(value).to_string(), text);
            assert_eq!(Json::fixed(value, 6).to_string(), text);
            let back = parse(text).unwrap().as_f64().unwrap();
            assert!(back == value || (back.is_nan() && value.is_nan()));
        }
        assert_eq!(Json::float(0.1).to_string(), "0.1");
        assert_eq!(Json::fixed(2.0, 6).to_string(), "2.000000");
    }

    #[test]
    fn rejects_what_strict_json_rejects() {
        for bad in [
            "",
            "01",
            "1.",
            ".5",
            "-",
            "+1",
            "1e",
            "NaN",
            "inf",
            "[1,]",
            "{\"a\":1,}",
            "{1:2}",
            "\"\u{1}\"",
            "\"\\x\"",
            "\"\\ud800\"",
            "\"\\u12\"",
            "[1] 2",
            "tru",
            "\"open",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
        assert_eq!(parse("\"\\u00e9\\/\"").unwrap(), Json::from("é/"));
    }

    #[test]
    fn nesting_past_the_cap_is_a_typed_error() {
        let deep = "[".repeat(100_000);
        assert!(matches!(parse(&deep), Err(ParseError::TooDeep(_))));
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let past_cap = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&past_cap), Err(ParseError::TooDeep(MAX_DEPTH)));
    }
}
