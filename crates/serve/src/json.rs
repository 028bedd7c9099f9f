//! A minimal JSON reader/writer for the service's journal and wire
//! protocol.
//!
//! The workspace is dependency-light by constraint (no registry
//! access), so this is a small recursive-descent parser over the
//! subset of JSON the service emits: objects, arrays, strings with
//! the standard escapes, integers, floats, booleans, null. Everything
//! the service writes it can read back; unknown fields are preserved
//! in the tree and simply ignored by consumers.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the service's numbers are integers; floats parse
    /// into [`Json::Num`]).
    Int(i64),
    /// A non-integer number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is normalized (sorted) — the service
    /// never round-trips objects whose byte layout matters through
    /// this type; byte-pinned payloads are carried as strings.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value under `key` when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
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

    /// Integer content, if an integer.
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
}

/// Parse one JSON value from `text` (trailing whitespace allowed,
/// trailing garbage is an error).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        b: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
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
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
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
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after key")?;
            let v = self.value()?;
            m.insert(k, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
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
            self.pos += 1;
            match c {
                b'"' => return Ok(s),
                b'\\' => {
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
                _ => {
                    // Multi-byte UTF-8: copy the whole code point.
                    let start = self.pos - 1;
                    let width = utf8_width(c);
                    if width > 1 {
                        self.pos = start + width;
                        if self.pos > self.b.len() {
                            return Err(self.err("truncated UTF-8"));
                        }
                    }
                    let chunk = std::str::from_utf8(&self.b[start..start + width.max(1)])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    s.push_str(chunk);
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
        } else {
            text.parse::<i64>()
                .map(Json::Int)
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

/// The service's writer side: the workspace's one JSON string
/// escaper, whose every output [`parse`] decodes back.
pub use spp_core::json_escape as esc;

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
    fn escape_then_parse_round_trips() {
        let nasty = "line1\nline2\t\"quoted\" \\slash\\ unicode: ünïcødé \u{1}";
        let doc = format!("{{\"s\": \"{}\"}}", esc(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.str_field("s"), Some(nasty));
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
    fn numbers_split_int_and_float() {
        assert_eq!(parse("9223372036854775807").unwrap(), Json::Int(i64::MAX));
        assert_eq!(parse("-1").unwrap(), Json::Int(-1));
        assert_eq!(parse("2.5e3").unwrap(), Json::Num(2500.0));
    }
}
