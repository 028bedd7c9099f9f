//! The workspace's one JSON layer: a value type, a strict parser, the
//! string escaper and a writer with two layouts.
//!
//! The workspace is dependency-light by constraint (no registry
//! access, no serde), so every report, heartbeat, journal record and
//! service reply is built as a [`Json`] tree and written here; nothing
//! else places separators, commas or escapes (the Perfetto
//! `trace_event` exporters in [`crate::trace`] keep their own
//! space-free layout for event streams).
//!
//! * **Value.** Objects keep insertion order, so a writer's field
//!   order is the document's field order. [`Json::get`] returns the
//!   last value of a repeated key.
//! * **Layouts.** [`Json::compact`] writes `{"k": v, "a": [1, 2]}` on
//!   one line (service replies, journal records, heartbeats and every
//!   nested value). [`Json::report`] is the `BENCH_*.json` layout: each
//!   top-level field on its own line at two spaces, each element of a
//!   top-level array of objects on its own line at four spaces, and a
//!   closing `}\n`.
//! * **Parser.** [`parse`] accepts exactly what JSON allows inside
//!   strings (no raw control characters) and refuses documents nested
//!   deeper than [`MAX_DEPTH`], so one hostile request line cannot
//!   overflow a server thread's stack.

use std::fmt::{self, Write};

/// Deepest array/object nesting [`parse`] accepts. The deepest
/// document the workspace writes is five levels; the limit leaves
/// ample room while keeping the recursive parser far from the stack
/// bottom of a default-sized thread.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer that fits `i64`.
    Int(i64),
    /// An integer above `i64::MAX` (large `u64` counters, `u128` node
    /// masks). `Json::from` picks it only when [`Json::Int`] cannot
    /// hold the value, and [`parse`] does the same, so each integer
    /// has one representation.
    Big(u128),
    /// A non-integer number, written in shortest round-trip form.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::with`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// This object with `key: value` appended.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.push(key, value);
        self
    }

    /// Append `key: value` to this object (for conditional fields).
    ///
    /// # Panics
    /// When `self` is not an object.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("Json::push on a non-object: {other:?}"),
        }
    }

    /// The value under `key` when this is an object (the last one
    /// when the key repeats).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String content, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer content, if an integer that fits `i64`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean content, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String field of an object.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Integer field of an object.
    pub fn int_field(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(Json::as_int)
    }

    /// Boolean field of an object.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(Json::as_bool)
    }

    /// The one-line layout: `{"k": v, "a": [1, 2]}`.
    pub fn compact(&self) -> String {
        self.to_string()
    }

    /// The report layout of the `BENCH_*.json` files: one top-level
    /// field per line at two spaces, each element of a top-level array
    /// of objects on its own line at four spaces, closing `}\n`. A
    /// value that is not an object is written compact with a newline.
    pub fn report(&self) -> String {
        let Json::Obj(fields) = self else {
            return format!("{self}\n");
        };
        let mut out = String::from("{\n");
        for (i, (key, value)) in fields.iter().enumerate() {
            let sep = if i + 1 < fields.len() { "," } else { "" };
            match value {
                Json::Arr(items) if items.iter().all(|v| matches!(v, Json::Obj(_))) => {
                    let _ = writeln!(out, "  \"{}\": [", json_escape(key));
                    for (j, item) in items.iter().enumerate() {
                        let isep = if j + 1 < items.len() { "," } else { "" };
                        let _ = writeln!(out, "    {item}{isep}");
                    }
                    let _ = writeln!(out, "  ]{sep}");
                }
                _ => {
                    let _ = writeln!(out, "  \"{}\": {value}{sep}", json_escape(key));
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

/// The compact layout.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Big(u) => write!(f, "{u}"),
            // `{:?}` is the shortest form that parses back to the same
            // f64 and always marks a float (`3.0`, `1e-7`); JSON has no
            // spelling for NaN or infinities.
            Json::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write!(f, "\"{}\"", json_escape(s)),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "\"{}\": {value}", json_escape(key))?;
                }
                f.write_char('}')
            }
        }
    }
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}

json_from! {
    bool => |b| Json::Bool(b),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
    &String => |s| Json::Str(s.clone()),
    f64 => |x| Json::Num(x),
    i32 => |i| Json::Int(i.into()),
    i64 => |i| Json::Int(i),
    u8 => |u| Json::Int(u.into()),
    u32 => |u| Json::Int(u.into()),
    u64 => |u| Json::from(u128::from(u)),
    usize => |u| Json::from(u as u128),
    u128 => |u| i64::try_from(u).map_or(Json::Big(u), Json::Int),
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Escape a string for embedding inside a JSON string literal:
/// quotes, backslashes, and every control or non-ASCII character
/// become escape sequences (`\uXXXX` with UTF-16 surrogate pairs for
/// astral code points), so the output is plain printable ASCII and
/// byte-stable whatever the labels hold.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (' '..='\u{7e}').contains(&c) => out.push(c),
            c => {
                let mut units = [0u16; 2];
                for u in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{u:04x}");
                }
            }
        }
    }
    out
}

/// A parse error with byte position context.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset where it went wrong.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Parse one JSON value from `text` (surrounding whitespace allowed,
/// trailing garbage is an error).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        b: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.b.len() && matches!(self.b[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn lit(&mut self, s: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') | Some(b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting deeper than MAX_DEPTH"));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'{') {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after key")?;
            let v = self.value()?;
            fields.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut a = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(a));
        }
        loop {
            a.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(a));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut s = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(e) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&unit) {
                                // A high surrogate must be followed by
                                // an escaped low one; together they
                                // name one astral code point.
                                if !self.b[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
                            } else {
                                unit
                            };
                            let ch = char::from_u32(code)
                                .ok_or_else(|| self.err("unpaired surrogate"))?;
                            s.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                0x00..=0x1f => return Err(self.err("raw control character in string")),
                _ => {
                    // Copy one whole UTF-8 code point.
                    let width = utf8_width(c);
                    let end = self.pos + width;
                    if end > self.b.len() {
                        return Err(self.err("truncated UTF-8"));
                    }
                    let chunk = std::str::from_utf8(&self.b[self.pos..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    /// The four hex digits of a `\u` escape, as one UTF-16 unit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.b.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let unit = std::str::from_utf8(&self.b[self.pos..self.pos + 4])
            .ok()
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).unwrap();
        if float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err("bad number"))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Json::Int(i))
        } else {
            text.parse::<u128>()
                .map(Json::Big)
                .map_err(|_| self.err("bad integer"))
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_service_record_shapes() {
        let v = parse(
            "{\"ev\": \"submit\", \"job\": \"j1\", \"deadline_ms\": 0, \
             \"spec\": \"schema = 1\\n[scenario]\\nname = \\\"x\\\"\\n\", \
             \"ok\": true, \"n\": -3, \"f\": 1.5, \"a\": [1, 2], \"z\": null}",
        )
        .unwrap();
        assert_eq!(v.str_field("ev"), Some("submit"));
        assert_eq!(v.int_field("deadline_ms"), Some(0));
        assert_eq!(v.bool_field("ok"), Some(true));
        assert_eq!(v.int_field("n"), Some(-3));
        assert!(v.str_field("spec").unwrap().contains("[scenario]"));
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![Json::Int(1), Json::Int(2)]))
        );
        assert_eq!(v.get("z"), Some(&Json::Null));
        assert_eq!(v.get("f"), Some(&Json::Num(1.5)));
    }

    #[test]
    fn json_escape_handles_quotes_controls_and_non_ascii() {
        assert_eq!(json_escape("plain-ascii_42"), "plain-ascii_42");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("café"), "caf\\u00e9");
        // Astral code point: UTF-16 surrogate pair.
        assert_eq!(json_escape("𝕏"), "\\ud835\\udd4f");
    }

    #[test]
    fn rejects_garbage_with_positions() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "{\"a\": 1} x",
            "\"unterminated",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        let e = parse("{\"a\": @}").unwrap_err();
        assert_eq!(e.at, 6, "{e}");
    }

    #[test]
    fn raw_control_characters_inside_strings_are_rejected() {
        let e = parse("{\"a\": \"x\ty\u{1}z\"}").unwrap_err();
        assert!(e.msg.contains("control"), "{e}");
        assert_eq!(e.at, 8, "{e}");
        assert!(parse("\"line\nbreak\"").is_err());
        // Escaped, the same characters are fine.
        assert_eq!(
            parse("\"x\\ty\\u0001z\"").unwrap(),
            Json::Str("x\ty\u{1}z".to_string())
        );
    }

    #[test]
    fn nesting_beyond_the_limit_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(1_000_000);
        let e = parse(&deep).unwrap_err();
        assert!(e.msg.contains("MAX_DEPTH"), "{e}");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
        assert!(parse(&"{\"a\": ".repeat(1_000)).is_err());
    }

    #[test]
    fn numbers_split_int_big_and_float() {
        assert_eq!(parse("9223372036854775807").unwrap(), Json::Int(i64::MAX));
        assert_eq!(parse("-1").unwrap(), Json::Int(-1));
        assert_eq!(parse("2.5e3").unwrap(), Json::Num(2500.0));
        assert_eq!(parse("18446744073709551615").unwrap(), Json::from(u64::MAX));
        assert_eq!(Json::from(u128::MAX).compact(), u128::MAX.to_string());
        assert_eq!(Json::from(7u128), Json::Int(7));
        assert_eq!(parse("18446744073709551615").unwrap().as_int(), None);
    }

    #[test]
    fn floats_are_written_shortest_and_stay_floats() {
        assert_eq!(Json::Num(12.34).compact(), "12.34");
        assert_eq!(Json::Num(3.0).compact(), "3.0");
        assert_eq!(parse("3.0").unwrap(), Json::Num(3.0));
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
    }

    #[test]
    fn objects_keep_insertion_order_and_get_takes_the_last_duplicate() {
        let v = Json::obj().with("z", 1u64).with("a", "x").with("z", 2u64);
        assert_eq!(v.compact(), "{\"z\": 1, \"a\": \"x\", \"z\": 2}");
        assert_eq!(v.int_field("z"), Some(2));
        assert_eq!(parse(&v.compact()).unwrap().int_field("z"), Some(2));
    }

    #[test]
    fn report_layout_breaks_top_level_fields_and_object_rows() {
        let doc = Json::obj()
            .with("steps", 1u64)
            .with("summary", Json::obj().with("ok", true))
            .with("ids", vec![1u64, 2])
            .with(
                "rows",
                vec![Json::obj().with("a", 1u64), Json::obj().with("a", 2u64)],
            )
            .with("empty", Vec::<Json>::new())
            .with("last", "x");
        assert_eq!(
            doc.report(),
            "{\n\
             \x20 \"steps\": 1,\n\
             \x20 \"summary\": {\"ok\": true},\n\
             \x20 \"ids\": [1, 2],\n\
             \x20 \"rows\": [\n\
             \x20   {\"a\": 1},\n\
             \x20   {\"a\": 2}\n\
             \x20 ],\n\
             \x20 \"empty\": [\n\
             \x20 ],\n\
             \x20 \"last\": \"x\"\n\
             }\n"
        );
        assert_eq!(parse(&doc.report()).unwrap(), doc);
    }
}
