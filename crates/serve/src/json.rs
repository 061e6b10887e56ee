//! Hand-rolled JSON encoding and decoding — the minimal subset the serving
//! protocol needs (objects, arrays, numbers, strings, booleans, null), with
//! no external dependencies.
//!
//! Numbers round-trip losslessly: values are emitted with Rust's shortest
//! round-trip float formatting, so a score serialised here and parsed back
//! with `str::parse::<f32>` reproduces the exact bit pattern — the property
//! the serving parity test relies on.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as f64; integers up to 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. BTreeMap keeps encoding deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a finite number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) if n.is_finite() => Some(*n),
            _ => None,
        }
    }

    /// This value as a non-negative integer (rejects fractions).
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= u32::MAX as f64 {
            Some(n as usize)
        } else {
            None
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The request
/// protocol needs 2 and `/metrics` 3; the bound keeps a hostile body from
/// recursing a connection thread off the end of its stack.
pub const MAX_DEPTH: usize = 32;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage and nesting deeper than [`MAX_DEPTH`] rejected).
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        s,
        b: s.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

/// A cursor over the document. `i` only ever advances past ASCII bytes or
/// whole `char`s, so it always sits on a `char` boundary of `s`.
struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
    /// Arrays and objects open at the cursor.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.i)),
        }
    }

    /// Parse one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.i
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = &self.s[start..self.i];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.i += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one code point: O(1) off the `&str`, never a
                    // re-validation of the rest of the document.
                    let ch = self.s[self.i..].chars().next().expect("peeked non-empty");
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            map.insert(key, v);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }
}

/// Escape and quote a string for JSON output.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// Format an f32 with shortest round-trip representation (Rust's `Display`),
/// mapping non-finite values to `null` (JSON has no NaN/inf).
pub fn f32_to_json(x: f32) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Format an f64 the same way.
pub fn f64_to_json(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_shape() {
        let v = parse(r#"{"user": 7, "seq": [3, 1, 4], "k": 10}"#).unwrap();
        assert_eq!(v.get("user").unwrap().as_usize(), Some(7));
        let seq: Vec<usize> = v
            .get("seq")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|j| j.as_usize().unwrap())
            .collect();
        assert_eq!(seq, vec![3, 1, 4]);
        assert_eq!(v.get("k").unwrap().as_usize(), Some(10));
    }

    #[test]
    fn parses_nested_and_strings() {
        let v = parse(r#"{"a":[{"b":"x\ny"},true,null,-1.5e2]}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(arr[1], Json::Bool(true));
        assert_eq!(arr[2], Json::Null);
        assert_eq!(arr[3].as_f64(), Some(-150.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":1} x"#).is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for x in [0.1f32, -3.25e-7, 1.0 / 3.0, f32::MIN_POSITIVE, 12345.678] {
            let enc = f32_to_json(x);
            let back: f32 = enc.parse().unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{enc}");
        }
    }

    #[test]
    fn quote_escapes() {
        assert_eq!(quote("a\"b\\c\n"), r#""a\"b\\c\n""#);
    }

    #[test]
    fn as_usize_rejects_fractions_and_negatives() {
        assert_eq!(parse("1.5").unwrap().as_usize(), None);
        assert_eq!(parse("-2").unwrap().as_usize(), None);
        assert_eq!(parse("42").unwrap().as_usize(), Some(42));
    }

    // ------------------------------------------------------------------
    // The hostile-input wall: whatever a client sends as a body, `parse`
    // answers with a value or a typed error — never a panic, a stack
    // overflow or a scan quadratic in the body's length.
    // ------------------------------------------------------------------

    use ssdrec_testkit::{gens, property, Gen, Rng};

    /// Whitespace a client may put between two tokens.
    fn ws(rng: &mut Rng) -> &'static str {
        const WS: &[&str] = &["", "", " ", "\n\t", " \r\n "];
        WS[rng.below(WS.len())]
    }

    /// A `/recommend` body as a client might write it: the protocol fields
    /// plus optional extras (escapes, non-ASCII text, nested values), keys
    /// in any order, whitespace between tokens — and none after the closing
    /// brace, so every strict prefix is incomplete.
    fn arb_body() -> Gen<String> {
        Gen::from_fn(|rng| {
            let seq: Vec<String> = (0..rng.between(1, 12))
                .map(|_| rng.between(1, 99_999).to_string())
                .collect();
            let mut fields = vec![
                format!("\"user\"{}:{}", ws(rng), rng.below(1_000_000)),
                format!(
                    "\"seq\":{}[{}]",
                    ws(rng),
                    seq.join(&format!(",{}", ws(rng)))
                ),
            ];
            if rng.bernoulli(0.5) {
                fields.push(format!("\"k\":{}", rng.between(1, 100)));
            }
            if rng.bernoulli(0.5) {
                let text: String = (0..rng.between(0, 24))
                    .map(|_| {
                        *rng.choice(&["a", "é", "日本", "\\\"", "\\\\", "\\n", "\\u00e9", " "])
                    })
                    .collect();
                fields.push(format!("\"note\":\"{text}\""));
            }
            if rng.bernoulli(0.3) {
                fields.push("\"extra\":{\"a\":[true, null, -1.5e2, {}], \"b\":[]}".into());
            }
            rng.shuffle(&mut fields);
            let mut body = String::from("{");
            for (i, f) in fields.iter().enumerate() {
                if i > 0 {
                    body += ",";
                }
                body += ws(rng);
                body += f;
                body += ws(rng);
            }
            body + "}"
        })
    }

    property! {
        cases = 64;

        /// A body parses whole, and every strict prefix of it is an `Err`.
        fn every_strict_prefix_of_a_body_is_an_error(body in arb_body()) {
            let v = parse(&body).expect("the whole body parses");
            assert!(v.get("user").and_then(Json::as_usize).is_some(), "{body}");
            assert!(v.get("seq").and_then(Json::as_arr).is_some(), "{body}");
            for cut in (0..body.len()).filter(|&c| body.is_char_boundary(c)) {
                assert!(parse(&body[..cut]).is_err(), "prefix {cut} of {body:?} parsed");
            }
        }

        /// A body with 1–6 bytes flipped may parse or may not; it never
        /// panics (bytes that are no longer UTF-8 reach the parser the way
        /// a lossy decoder would pass them on).
        fn flipped_bodies_never_panic(
            body in arb_body(),
            flips in gens::vecs(gens::u64s(), 1, 6)
        ) {
            let mut bytes = body.into_bytes();
            for f in flips {
                let at = (f >> 8) as usize % bytes.len();
                bytes[at] ^= (f as u8).max(1);
            }
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn nesting_at_the_bound_parses_and_one_level_deeper_is_rejected() {
        let arrays = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        for nest in [arrays, objects] {
            assert!(parse(&nest(MAX_DEPTH)).is_ok());
            let err = parse(&nest(MAX_DEPTH + 1)).expect_err("one level too deep");
            assert!(err.contains("nesting"), "{err}");
        }
        // What would otherwise recurse once per byte: rejected at the bound.
        let err = parse(&"[".repeat(10_000)).expect_err("far too deep");
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn a_one_mib_string_body_parses_in_linear_time() {
        let note = "é日ab\\n".repeat(1 << 17); // 1.1 MiB: past the HTTP body cap
        let body = format!("{{\"user\":1,\"seq\":[2],\"note\":\"{note}\"}}");
        let t0 = std::time::Instant::now();
        let v = parse(&body).expect("a 1 MiB body parses");
        // A rescan of the rest of the document per character takes tens of
        // seconds here; one pass takes milliseconds.
        assert!(t0.elapsed().as_secs() < 5, "took {:?}", t0.elapsed());
        let parsed = v.get("note").and_then(Json::as_str).expect("note");
        assert_eq!(parsed.chars().count(), 5 << 17);
    }
}
