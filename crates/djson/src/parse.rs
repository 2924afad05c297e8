//! Strict recursive-descent JSON parser.
//!
//! RFC 8259 grammar, UTF-8 input, with the strictness the workspace
//! wants for experiment files: duplicate object keys and trailing
//! non-whitespace input are errors, nesting is depth-limited, and every
//! error names the line and column where parsing stopped.

use crate::value::{Json, JsonError, Number};

/// Maximum container nesting; beyond this the input is rejected rather
/// than risking a stack overflow on adversarial files.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] with `line X column Y` positioning on any
/// syntax violation, including truncated input.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl std::fmt::Display) -> JsonError {
        let consumed = &self.bytes[..self.pos.min(self.bytes.len())];
        let line = 1 + consumed.iter().filter(|&&b| b == b'\n').count();
        let column = 1 + consumed.iter().rev().take_while(|&&b| b != b'\n').count();
        JsonError::msg(format!("{message} at line {line} column {column}"))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            Some(b) => Err(self.err(format!(
                "expected `{}`, found `{}`",
                byte as char, b as char
            ))),
            None => Err(self.err(format!("expected `{}`, found end of input", byte as char))),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("invalid literal (expected `{word}`)")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(format!("unexpected character `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
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
                Some(b) => {
                    return Err(self.err(format!(
                        "expected `,` or `]` in array, found `{}`",
                        b as char
                    )))
                }
                None => return Err(self.err("unterminated array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string object key"));
            }
            let key = self.string()?;
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                Some(b) => {
                    return Err(self.err(format!(
                        "expected `,` or `}}` in object, found `{}`",
                        b as char
                    )))
                }
                None => return Err(self.err("unterminated object")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let token = self.text[start..self.pos].to_string();
        Ok(Json::Num(Number::from_token(token)))
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                            let unit = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: require `\uXXXX` low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(self.err("unpaired surrogate"));
                            } else {
                                char::from_u32(unit).ok_or_else(|| self.err("invalid escape"))?
                            };
                            out.push(ch);
                            continue; // hex4 consumed its digits already
                        }
                        Some(b) => {
                            return Err(self.err(format!("invalid escape `\\{}`", b as char)))
                        }
                        None => return Err(self.err("unterminated string")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Copy the whole run of plain bytes at once. It ends
                    // at an ASCII byte, never inside a multi-byte UTF-8
                    // sequence, so the slice is a `str` boundary.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Reads exactly four hex digits at the cursor.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
        assert_eq!(
            parse("[1, 2]").unwrap(),
            Json::Arr(vec![Json::from(1u64), Json::from(2u64)])
        );
        assert_eq!(
            parse("{\"a\": [true, null]}").unwrap(),
            Json::Obj(vec![(
                "a".into(),
                Json::Arr(vec![Json::Bool(true), Json::Null])
            )])
        );
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
    }

    #[test]
    fn number_grammar_is_strict() {
        for ok in ["0", "-0", "12.75", "-3.5e-2", "1e300", "0.0001", "2E+8"] {
            assert!(parse(ok).is_ok(), "{ok} should parse");
        }
        for bad in [
            "01", "+1", ".5", "1.", "1e", "--2", "0x10", "NaN", "Infinity",
        ] {
            assert!(parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse("{\n  \"a\": tru\n}").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("line 2"), "{text}");
        let err = parse("[1, 2,").unwrap_err();
        assert!(err.to_string().contains("end of input") || err.to_string().contains("column"));
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        for truncated in [
            "{",
            "[",
            "\"abc",
            "{\"a\"",
            "{\"a\":",
            "{\"a\":1,",
            "tr",
            "12e",
        ] {
            assert!(parse(truncated).is_err(), "{truncated:?} must error");
        }
    }

    #[test]
    fn duplicate_keys_and_trailing_input_rejected() {
        assert!(parse("{\"a\":1,\"a\":2}")
            .unwrap_err()
            .to_string()
            .contains("duplicate object key"));
        assert!(parse("1 2").unwrap_err().to_string().contains("trailing"));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            parse("\"\\u0041\\u00e9\\ud83d\\ude00\"").unwrap(),
            Json::Str("Aé😀".into())
        );
        assert!(parse("\"\\ud800\"").is_err(), "lone high surrogate");
        assert!(parse("\"\\udc00\"").is_err(), "lone low surrogate");
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).unwrap_err().to_string().contains("nesting"));
        let fine = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&fine).is_ok());
    }
}
