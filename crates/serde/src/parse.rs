//! The JSON parser: text to a [`Value`], with exact f64 round trips, a
//! nesting limit of 128 levels, and objects kept as the entries it reads.

use crate::{Error, Number, Value};

/// Nesting deeper than this is rejected, as upstream.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document: a value, with nothing but whitespace around it.
pub(crate) fn parse(bytes: &[u8]) -> Result<Value, Error> {
    Parser::new(bytes).parse_document()
}

/// A recursive-descent JSON parser with a nesting limit.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Parser {
            bytes,
            pos: 0,
            depth: 0,
        }
    }

    fn error(&self, msg: &str) -> Error {
        let before = &self.bytes[..self.pos.min(self.bytes.len())];
        let line = before.iter().filter(|&&b| b == b'\n').count() + 1;
        let column = before.iter().rev().take_while(|&&b| b != b'\n').count() + 1;
        Error {
            msg: msg.to_string(),
            line,
            column,
        }
    }

    fn eof(&self, what: &str) -> Error {
        self.error(&format!("EOF while parsing {what}"))
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn parse_document(mut self) -> Result<Value, Error> {
        self.skip_ws();
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos < self.bytes.len() {
            return Err(self.error("trailing characters"));
        }
        Ok(v)
    }

    fn expect_word(&mut self, word: &[u8], v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else if word.starts_with(&self.bytes[self.pos..]) {
            self.pos = self.bytes.len();
            Err(self.eof("a value"))
        } else {
            Err(self.error("expected value"))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.bytes.get(self.pos) {
            None => Err(self.eof("a value")),
            Some(b'n') => self.expect_word(b"null", Value::Null),
            Some(b't') => self.expect_word(b"true", Value::Bool(true)),
            Some(b'f') => self.expect_word(b"false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(_) => Err(self.error("expected value")),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                None => return Err(self.eof("a list")),
                Some(_) => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b'"') => {}
                None => return Err(self.eof("an object")),
                Some(_) => return Err(self.error("key must be a string")),
            }
            let key = self.parse_string()?;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b':') => self.pos += 1,
                None => return Err(self.eof("an object")),
                Some(_) => return Err(self.error("expected `:`")),
            }
            self.skip_ws();
            let v = self.parse_value()?;
            entries.push((key, v));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                None => return Err(self.eof("an object")),
                Some(_) => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.eof("a string"))?;
        // Exactly four hex digits: `u32::from_str_radix` would also take a
        // leading `+`.
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.error("invalid escape"));
        }
        let v = digits.iter().fold(0, |v, &d| {
            v << 4 | char::from(d).to_digit(16).expect("a hex digit")
        });
        self.pos += 4;
        Ok(v)
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.extend_from_slice(&self.bytes[start..self.pos]);
            match self.bytes.get(self.pos) {
                None => return Err(self.eof("a string")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map_err(|_| self.error("invalid unicode code point"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.eof("a string"))?;
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err(self.error("lone leading surrogate in hex escape"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.error("invalid unicode code point"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            char::from_u32(code)
                                .ok_or_else(|| self.error("invalid unicode code point"))?
                        }
                        _ => return Err(self.error("invalid escape")),
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                }
                Some(_) => {
                    return Err(self
                        .error("control character (\\u0000-\\u001F) found while parsing a string"))
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            let s = p.pos;
            while p.bytes.get(p.pos).is_some_and(u8::is_ascii_digit) {
                p.pos += 1;
            }
            p.pos - s
        };
        if self.bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        let int_start = self.pos;
        match digits(self) {
            0 if self.pos >= self.bytes.len() => return Err(self.eof("a number")),
            0 => return Err(self.error("invalid number")),
            n if n > 1 && self.bytes[int_start] == b'0' => return Err(self.error("invalid number")),
            _ => {}
        }
        let mut is_float = false;
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            is_float = true;
            if digits(self) == 0 {
                return Err(self.error("invalid number"));
            }
        }
        if let Some(b'e' | b'E') = self.bytes.get(self.pos) {
            self.pos += 1;
            is_float = true;
            if let Some(b'+' | b'-') = self.bytes.get(self.pos) {
                self.pos += 1;
            }
            if digits(self) == 0 {
                return Err(self.error("invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::from(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::from(i)));
            }
        }
        let f: f64 = text.parse().map_err(|_| self.error("invalid number"))?;
        Number::from_f64(f)
            .map(Value::Number)
            .ok_or_else(|| self.error("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_slice, from_str, to_string};

    fn parse(text: impl AsRef<[u8]>) -> Result<Value, Error> {
        super::parse(text.as_ref())
    }

    fn f64_round_trip(x: f64) {
        let text = to_string(&x);
        let back: f64 = from_str(&text).unwrap();
        assert_eq!(back.to_bits(), x.to_bits(), "{x:?} wrote {text}");
    }

    #[test]
    fn f64_round_trips_are_bit_exact() {
        for x in [
            0.0,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            1e16,
            1e-7,
            0.1,
            1.0 / 3.0,
        ] {
            f64_round_trip(x);
        }
        // Random bit patterns (splitmix64), so every exponent and mantissa
        // shape turns up; NaN and the infinities have no JSON form.
        let mut state = 0u64;
        let mut finite = 0;
        while finite < 100_000 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let x = f64::from_bits(z ^ (z >> 31));
            if x.is_finite() {
                f64_round_trip(x);
                finite += 1;
            }
        }
    }

    #[test]
    fn non_finite_floats_write_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(to_string(&x), "null");
        }
        assert_eq!(to_string(&vec![1.5, f64::NAN]), "[1.5,null]");
    }

    #[test]
    fn strings_escape_exactly_and_read_back() {
        for b in 0u8..=0x7f {
            let s = char::from(b).to_string();
            let escaped = match b {
                b'"' => r#"\""#.to_string(),
                b'\\' => r"\\".to_string(),
                b'\n' => r"\n".to_string(),
                b'\r' => r"\r".to_string(),
                b'\t' => r"\t".to_string(),
                0x08 => r"\b".to_string(),
                0x0c => r"\f".to_string(),
                0..=0x1f => format!(r"\u{b:04x}"),
                // Everything else, `/` and DEL included, is literal.
                _ => s.clone(),
            };
            let text = to_string(&s);
            assert_eq!(text, format!("\"{escaped}\""), "byte {b:#04x}");
            assert_eq!(from_str::<String>(&text).unwrap(), s, "byte {b:#04x}");
        }
        for (s, text) in [
            ("é", r#""é""#),
            ("€", r#""€""#),
            ("😀", r#""😀""#),
            (
                "a\"é\\\u{1f}€\n😀/\u{7f}",
                "\"a\\\"é\\\\\\u001f€\\n😀/\u{7f}\"",
            ),
        ] {
            assert_eq!(to_string(s), text, "{s:?}");
            assert_eq!(from_str::<String>(text).unwrap(), s, "{s:?}");
        }
    }

    #[test]
    fn nesting_is_limited_to_128_levels() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(nested(MAX_DEPTH)).is_ok());
        let bombs = [
            nested(MAX_DEPTH + 1),
            "[".repeat(100_000),
            r#"{"a":"#.repeat(100_000),
        ];
        for bomb in bombs {
            let err = parse(&bomb).unwrap_err();
            assert!(
                err.to_string().contains("recursion limit exceeded"),
                "{err}"
            );
        }
    }

    #[test]
    fn malformed_input_is_an_error() {
        for text in [
            "01",
            "1.",
            "-",
            "tru",
            "[1,]",
            "[1] 2",
            "\"\\ud800\"",
            r#""\u+041""#,
            "",
        ] {
            assert!(parse(text).is_err(), "{text:?} parsed");
        }
        for bytes in [&b"\"\xff\""[..], b"\xff", b"[\"a\xc3\"]"] {
            assert!(parse(bytes).is_err(), "{bytes:?} parsed");
            assert!(from_slice::<String>(bytes).is_err(), "{bytes:?} parsed");
        }
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<u32>("-1").is_err());
        assert!(from_str::<u64>("1.5").is_err());
        assert_eq!(from_str::<u8>("255").unwrap(), 255);
        assert_eq!(from_str::<i64>("-1").unwrap(), -1);
    }
}
