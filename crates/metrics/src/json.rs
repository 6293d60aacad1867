//! The workspace's one JSON codec: a [`Json`] value that both writes and
//! parses, plus the pull [`Parser`] the streaming artifact readers drive.
//!
//! No serde: the workspace must stay offline-buildable, and all it needs
//! is deterministic serialization of its own artifacts and the exact
//! inverse. Object keys keep insertion order and numbers render via
//! Rust's shortest-roundtrip `f64` formatting, so the same value always
//! produces the same bytes — the determinism gates compare these strings
//! across worker counts — and [`parse`] reads them back to the same
//! value. Standard constructs the writer never produces (exponents,
//! `\uXXXX` outside the control range, `\/`) still parse, so hand-edited
//! documents load too.

use std::borrow::Cow;
use std::fmt;

/// A JSON value. Objects preserve insertion (document) order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (non-finite values serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// 2^53: every integer up to here is exact in an `f64`.
const EXACT: f64 = 9_007_199_254_740_992.0;

/// The one integer rule: a non-negative whole number no larger than
/// 2^53 (what [`Json::int`] writes exactly); negatives and fractions
/// read as `None`.
#[inline]
fn exact_u64(x: f64) -> Option<u64> {
    (x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x <= EXACT).then_some(x as u64)
}

impl Json {
    /// A string value.
    #[inline]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number value.
    #[inline]
    pub fn num(x: f64) -> Json {
        Json::Num(x)
    }

    /// An integer value (exact for |n| ≤ 2^53).
    #[inline]
    pub fn int(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// An object from `(key, value)` pairs.
    #[inline]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Appends a field (no-op on non-objects).
    pub fn push(&mut self, key: &str, value: Json) {
        if let Json::Obj(pairs) = self {
            pairs.push((key.to_string(), value));
        }
    }

    /// Object field by key (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as a `u64`, under the same rule the streaming reader
    /// ([`Parser::u64_number`]) applies.
    pub fn as_u64(&self) -> Option<u64> {
        exact_u64(self.as_f64()?)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, if this is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes into `out`. This is the writer the artifact paths use:
    /// byte-for-byte the same output as `Display`, but appending to a
    /// `String` directly instead of going through the formatter machinery
    /// (which costs a virtual dispatch per token — measurable on
    /// multi-megabyte trace documents).
    pub fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) if x.is_finite() => num_into(*x, out),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_into(&mut out);
        f.write_str(&out)
    }
}

/// Appends `s` JSON-escaped (quoted) to `out`. Unescaped stretches are
/// copied in bulk; only the writer's escape set (`"`, `\`, control chars)
/// goes through per-character handling.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 0xf) as usize] as char);
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Appends a finite `f64` to `out` exactly as Rust's `{}` formatting
/// renders it. Integer values (the overwhelmingly common case — every
/// counter goes through [`Json::int`]) take a manual decimal fast path;
/// fractional values fall back to the standard shortest-roundtrip
/// formatter.
pub fn num_into(x: f64, out: &mut String) {
    if x == x.trunc() && x.abs() < EXACT && !(x == 0.0 && x.is_sign_negative()) {
        let mut n = x as i64;
        if n < 0 {
            out.push('-');
            n = -n;
        }
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        let mut n = n as u64;
        loop {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
    } else {
        use fmt::Write as _;
        write!(out, "{x}").expect("writing to String cannot fail");
    }
}

/// Parses one JSON document (trailing whitespace allowed, trailing junk
/// rejected). Errors carry the byte offset they were noticed at.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

/// The pull parser behind [`parse`]. The trace reader drives it directly:
/// a `.trace.json` document holds millions of tiny event objects, and
/// materializing each as a [`Json::Obj`] (a `Vec` of owned-key pairs)
/// costs ~10 heap allocations per event. [`Parser::walk_obj`] and
/// [`Parser::walk_arr`] read the same grammar with borrowed keys instead,
/// and the tree parser is built on those same two loops.
pub struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A parser over `text`, positioned at the start.
    pub fn new(text: &'a str) -> Parser<'a> {
        Parser { bytes: text.as_bytes(), pos: 0 }
    }

    /// An error message stamped with the current byte offset.
    pub fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {}", self.pos, msg)
    }

    /// The next byte, without consuming it.
    #[inline]
    pub fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Skips JSON whitespace.
    #[inline]
    pub fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes byte `b` or fails.
    #[inline]
    pub fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// True once the whole input has been consumed.
    #[inline]
    pub fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Reads one value as a tree.
    pub fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.walk_obj(|p, key| {
                    pairs.push((key.into_owned(), p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(pairs))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.walk_arr(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number_f64().map(Json::Num),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// Consumes one value without keeping it (unknown keys in streamed
    /// documents).
    pub fn skip_value(&mut self) -> Result<(), String> {
        self.value().map(|_| ())
    }

    /// Drives `field(parser, key)` over every `"key": value` pair of the
    /// object at the parser's position (the parser is left just past the
    /// closing brace; `field` must consume exactly the value). Keys borrow
    /// from the document whenever they contain no escapes.
    pub fn walk_obj(
        &mut self,
        mut field: impl FnMut(&mut Parser<'a>, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string_ref()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            field(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Drives `item` over every element of the array at the parser's
    /// position (same contract as [`Parser::walk_obj`]).
    pub fn walk_arr(
        &mut self,
        mut item: impl FnMut(&mut Parser<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Reads a number under [`Json::as_u64`]'s rule; `what` names the
    /// field in the error.
    #[inline]
    pub fn u64_number(&mut self, what: &str) -> Result<u64, String> {
        exact_u64(self.number_f64()?).ok_or_else(|| format!("field \"{what}\" is not a u64"))
    }

    /// Reads a number as `f64`.
    #[inline]
    pub fn number_f64(&mut self) -> Result<f64, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        s.parse::<f64>().map_err(|_| self.err("invalid number"))
    }

    /// Reads a string, borrowing from the input when it contains no
    /// escapes (every key and kind the writer emits). Escaped strings
    /// fall back to the allocating reader.
    #[inline]
    pub fn string_ref(&mut self) -> Result<Cow<'a, str>, String> {
        let start = self.pos;
        self.expect(b'"')?;
        let mut i = self.pos;
        while let Some(&b) = self.bytes.get(i) {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&self.bytes[self.pos..i])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    self.pos = i + 1;
                    return Ok(Cow::Borrowed(s));
                }
                b'\\' => {
                    self.pos = start;
                    return self.string().map(Cow::Owned);
                }
                _ => i += 1,
            }
        }
        self.pos = i;
        Err(self.err("unterminated string"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates never appear in writer output
                            // (it escapes only control chars); map them to
                            // the replacement character rather than fail.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Copy one UTF-8 scalar. The input arrived as a &str,
                    // so `pos` always sits on a char boundary and the
                    // leading byte gives the sequence length — decode just
                    // those bytes (validating the whole remaining input per
                    // character would make string parsing quadratic).
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let c = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|chunk| std::str::from_utf8(chunk).ok())
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push(c);
                    self.pos += len;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_round_trips_byte_for_byte() {
        let mut j = Json::obj(vec![
            ("null", Json::Null),
            ("bools", Json::Arr(vec![Json::Bool(true), Json::Bool(false)])),
            ("escapes", Json::str("q\" b\\ n\n t\t c\u{1}")),
            ("utf8", Json::str("é ∑ 🦅")),
            (
                "nums",
                Json::Arr(vec![
                    Json::int(3),
                    Json::int(9_007_199_254_740_992),
                    Json::num(-1.5),
                    Json::num(0.30000000000000004),
                    Json::num(2.3e9),
                    Json::num(1e-12),
                    Json::num(-3.0),
                ]),
            ),
            ("empty", Json::Arr(vec![Json::obj(vec![]), Json::Arr(vec![])])),
        ]);
        j.push("pushed", Json::int(1));
        let mut arr = Json::Arr(vec![]);
        arr.push("ignored", Json::Null);
        assert_eq!(arr, Json::Arr(vec![]), "push extends objects only");

        let text = j.to_string();
        assert_eq!(
            text,
            "{\"null\":null,\"bools\":[true,false],\
             \"escapes\":\"q\\\" b\\\\ n\\n t\\t c\\u0001\",\"utf8\":\"é ∑ 🦅\",\
             \"nums\":[3,9007199254740992,-1.5,0.30000000000000004,2300000000,0.000000000001,-3],\
             \"empty\":[{},[]],\"pushed\":1}"
        );
        let mut fast = String::new();
        j.write_into(&mut fast);
        assert_eq!(fast, text, "write_into matches Display");
        let back = parse(&text).expect("writer output parses");
        assert_eq!(back, j);
        assert_eq!(back.to_string(), text, "re-serializing gives the same bytes");

        let nums = back.get("nums").and_then(Json::as_arr).expect("nums");
        assert_eq!(nums[1].as_u64(), Some(9_007_199_254_740_992));
        assert_eq!(nums[2].as_u64(), None, "fractions are not u64");
        assert_eq!(nums[3].as_u64(), None, "fractions are not u64");
        assert_eq!(nums[6].as_u64(), None, "negative whole numbers are not u64");
        // The streaming reader shares the rule: -3 must not saturate to 0.
        assert!(Parser::new("-3").u64_number("n").is_err());
        assert_eq!(Parser::new("7").u64_number("n"), Ok(7));
        assert_eq!(back.get("utf8").and_then(Json::as_str), Some("é ∑ 🦅"));

        // Non-finite numbers have no JSON form: they write `null`.
        let nan = Json::Arr(vec![Json::num(f64::NAN), Json::num(f64::INFINITY)]);
        assert_eq!(nan.to_string(), "[null,null]");
    }

    #[test]
    fn fast_number_path_matches_std_formatting() {
        // The integer fast path in `num_into` must render exactly what
        // `{}` on the f64 renders — including sign edge cases the fast
        // path declines (negative zero) and magnitudes past 2^53.
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            53253.0,
            2.3e9,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            1e300,
            -1.5,
            0.30000000000000004,
            1e-12,
            u64::MAX as f64,
        ] {
            let mut fast = String::new();
            num_into(x, &mut fast);
            assert_eq!(fast, format!("{x}"), "mismatch for {x:e}");
        }
    }

    #[test]
    fn rejects_trailing_junk_and_truncation() {
        assert!(parse("{} x").is_err());
        assert!(parse(r#"{"a":"#).is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse(r#"{"a":1 "b":2}"#).is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("").is_err());
        assert_eq!(parse(" { } ").expect("padded"), Json::obj(vec![]));
    }
}
