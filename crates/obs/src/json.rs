//! Minimal JSON writing and reading.
//!
//! The build environment is offline, so instead of `serde_json` the crate
//! ships the few hundred lines of JSON it actually needs: string escaping,
//! an append-only object writer, and a small recursive-descent reader
//! ([`parse`]). The reader decodes every `mdl-serve` request line, loads
//! the bench regression gate's baselines, and lets tests verify that
//! everything the writers emit round-trips. It runs in time linear in
//! its input: a string is copied a run of plain bytes at a time, so a
//! request line carrying a large model costs no more than its length
//! says. Output
//! is always a single line (JSONL friendly) and always valid JSON —
//! non-finite floats are emitted as `null` rather than the invalid bare
//! tokens `NaN`/`inf`.

use std::fmt::Write as _;

/// Escapes `s` per RFC 8259 and appends it to `out` (no surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Appends `v` to `out` as a JSON number, or `null` when non-finite.
///
/// Rust's `Display` for `f64` is a shortest round-trip decimal, which is
/// valid JSON for every finite value.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Builder for one flat JSON object, written left to right.
///
/// # Example
///
/// ```
/// let mut obj = mdl_obs::json::JsonObject::new();
/// obj.str("type", "span").u64("duration_ns", 1500);
/// assert_eq!(obj.close(), r#"{"type":"span","duration_ns":1500}"#);
/// ```
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) -> &mut String {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
        &mut self.buf
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        let buf = self.key(k);
        buf.push('"');
        escape_into(buf, v);
        buf.push('"');
        self
    }

    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        let buf = self.key(k);
        let _ = write!(buf, "{v}");
        self
    }

    pub fn i64(&mut self, k: &str, v: i64) -> &mut Self {
        let buf = self.key(k);
        let _ = write!(buf, "{v}");
        self
    }

    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        let buf = self.key(k);
        write_f64(buf, v);
        self
    }

    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        let buf = self.key(k);
        buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Appends `raw` verbatim as the value; the caller guarantees it is
    /// already valid JSON (e.g. a nested object built separately).
    pub fn raw(&mut self, k: &str, raw: &str) -> &mut Self {
        let buf = self.key(k);
        buf.push_str(raw);
        self
    }

    pub fn close(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers parse as `f64`; u64 baselines fit losslessly up to
    /// 2⁵³, far beyond any metric this crate records in one value.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order preserved; duplicate keys keep both entries, `get`
    /// returns the first.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// A message with the byte offset of the first problem.
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Nesting beyond this is rejected rather than risking a stack overflow.
const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the longest run of bytes that need no decoding in one
            // go. The run ends at an ASCII byte or at the end of input,
            // and it starts after one, so it is whole UTF-8 characters of
            // the `&str` being parsed: no per-character validation.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".into());
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err("lone high surrogate".into());
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(c) {
                                Some(c) => out.push(c),
                                None => return Err(format!("invalid codepoint {c:#x}")),
                            }
                        }
                        other => {
                            return Err(format!(
                                "invalid escape {:?} at byte {}",
                                other as char,
                                self.pos - 1
                            ))
                        }
                    }
                }
                _ => return Err(format!("raw control byte at {}", self.pos - 1)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "invalid \\u escape".to_string())?;
        let v = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("invalid \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn object_round_trip() {
        let mut obj = JsonObject::new();
        obj.str("name", "lump.level")
            .u64("level", 3)
            .i64("delta", -2)
            .f64("residual", 1e-9)
            .bool("ok", true)
            .raw("inner", "[1,2]");
        assert_eq!(
            obj.close(),
            r#"{"name":"lump.level","level":3,"delta":-2,"residual":0.000000001,"ok":true,"inner":[1,2]}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut obj = JsonObject::new();
        obj.f64("a", f64::NAN).f64("b", f64::INFINITY);
        assert_eq!(obj.close(), r#"{"a":null,"b":null}"#);
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObject::new().close(), "{}");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut obj = JsonObject::new();
        obj.str("name", "a\"b\\c\nd\te\u{1}")
            .u64("big", u64::MAX >> 12)
            .i64("neg", -42)
            .f64("x", 1.5e-9)
            .bool("ok", true)
            .raw("arr", "[1,2,3]");
        let parsed = parse(&obj.close()).unwrap();
        assert_eq!(
            parsed.get("name").and_then(Json::as_str),
            Some("a\"b\\c\nd\te\u{1}")
        );
        assert_eq!(
            parsed.get("big").and_then(Json::as_u64),
            Some(u64::MAX >> 12)
        );
        assert_eq!(parsed.get("neg").and_then(Json::as_f64), Some(-42.0));
        assert_eq!(parsed.get("x").and_then(Json::as_f64), Some(1.5e-9));
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            parsed
                .get("arr")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn parse_handles_nesting_unicode_and_literals() {
        let v = parse(r#"{"a":[{"b":null},true,false,"π–é"], "empty":{}, "e":[]}"#).unwrap();
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a[0].get("b"), Some(&Json::Null));
        assert_eq!(a[3].as_str(), Some("π–é"));
        assert_eq!(v.get("empty"), Some(&Json::Obj(vec![])));
        assert_eq!(v.get("e"), Some(&Json::Arr(vec![])));
    }

    #[test]
    fn parse_decodes_surrogate_pairs() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "\"\u{1}\"",
            "{\"a\":1}x",
            "--1",
            "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn parse_rejects_pathological_nesting() {
        let deep = "[".repeat(300) + &"]".repeat(300);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }

    /// A 256 KiB request line with a multi-byte character every 30 bytes
    /// and an escaped newline about every 100. A decoder that validates
    /// the rest of the input per character needs tens of seconds for it
    /// in a debug build; a linear one needs milliseconds.
    #[test]
    fn long_strings_decode_in_linear_time() {
        let filler = b"event work_high rate 1.5 factor workers 0 1 1.0 ";
        let mut model = String::new();
        let mut k = 0usize;
        while model.len() < 256 * 1024 {
            k += 1;
            if k % 100 == 0 {
                model.push('\n');
            } else if k % 30 == 0 {
                model.push('λ');
            } else {
                model.push(filler[k % filler.len()] as char);
            }
        }
        let mut obj = JsonObject::new();
        obj.str("cmd", "solve").str("model", &model);
        let line = obj.close();

        let t0 = std::time::Instant::now();
        let parsed = parse(&line).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(
            parsed.get("model").and_then(Json::as_str),
            Some(model.as_str())
        );
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "decoding {} bytes took {elapsed:?}",
            line.len()
        );
    }

    use proptest::prelude::*;

    /// One character from ASCII, `"`, `\`, control characters, or the
    /// 2-, 3- and 4-byte UTF-8 ranges.
    fn any_char() -> impl Strategy<Value = char> {
        (0u32..6, any::<u32>()).prop_map(|(class, r)| {
            let code = match class {
                0 => 0x20 + r % 0x60,
                1 => [0x22, 0x5C][(r % 2) as usize],
                2 => r % 0x20,
                3 => 0x80 + r % 0x780,
                4 => 0x800 + r % 0xD000,
                _ => 0x10000 + r % 0x100000,
            };
            char::from_u32(code).expect("every class is a scalar value")
        })
    }

    fn any_string() -> impl Strategy<Value = String> {
        prop::collection::vec(any_char(), 0..64).prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        /// Whatever the writer escapes, the reader decodes back unchanged,
        /// as a key and as a value.
        #[test]
        fn strings_round_trip_through_the_writer(s in any_string(), t in any_string()) {
            let mut obj = JsonObject::new();
            obj.str(&s, &t);
            let parsed = parse(&obj.close()).unwrap();
            prop_assert_eq!(parsed, Json::Obj(vec![(s, Json::Str(t))]));
        }

        /// A raw control byte inside a string literal is rejected at its
        /// own byte offset, whatever precedes it.
        #[test]
        fn raw_control_bytes_are_rejected_at_their_offset(
            s in any_string(),
            t in any_string(),
            control in 0u8..0x20,
        ) {
            let mut head = JsonObject::new();
            head.str("model", &s);
            // Drop the closing quote and brace: the literal is still open.
            let mut line = head.close();
            line.truncate(line.len() - 2);
            let offset = line.len();
            line.push(char::from(control));
            escape_into(&mut line, &t);
            line.push_str("\"}");
            prop_assert_eq!(parse(&line), Err(format!("raw control byte at {offset}")));
        }
    }
}
