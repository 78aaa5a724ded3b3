//! The workspace's JSON codec: one reader ([`Json::parse`]) and the two
//! helpers every hand-formatted JSON writer shares ([`escape`], [`number`]).
//!
//! Traces, `live.json`, the bench history, bench documents and the
//! prefix-cache manifest are all read through [`Json::parse`]. Every writer
//! (those formats', and the `--json` output of `qsim report`, `profile`,
//! `top`, `cache`, `verify` and `advise`) keeps its own format strings and
//! passes every embedded string through [`escape`], so whatever it emits
//! parses back. The reader follows
//! RFC 8259: unescaped control characters in strings, malformed or
//! non-finite number literals and lone UTF-16 surrogates are offset errors.
//! It returns unsigned integer literals exactly ([`Json::as_u64`]) and caps
//! nesting at [`MAX_DEPTH`], so hostile input is an error, never a stack
//! overflow. Object fields keep source order: bench documents are rendered
//! with a deliberate field order and reports preserve it.

/// Deepest array/object nesting [`Json::parse`] accepts. Every document the
/// workspace writes nests a handful of levels; the cap bounds the reader's
/// recursion on hostile input.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Objects are ordered `(key, value)` pairs.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number literal of digits only that fits a `u64`, kept exact.
    Uint(u64),
    /// Any other number: negative, fractional, exponent or beyond `u64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a byte-offset diagnostic on malformed input or trailing
    /// content.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, at: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.at != text.len() {
            return Err(p.err("trailing content"));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one (unsigned integers convert
    /// through `f64`; use [`Json::as_u64`] to read them exactly).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Uint(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it was written as an unsigned
    /// integer literal (`2.0`, `-1` and `1e3` are not).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's pairs, if it is one.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Escape `s` for the inside of a JSON string literal: `"` and `\` get a
/// backslash, newline, carriage return and tab their short forms, and every
/// other control character (U+0000–U+001F) a `\u00XX` escape. Everything
/// else, astral characters included, passes through as UTF-8.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a float as a JSON number. JSON has no NaN or infinity, so
/// non-finite values become `null`.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset; always on a character boundary.
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("offset {}: {what}", self.at)
    }

    /// The character at the cursor, quoted, for diagnostics.
    fn found(&self) -> String {
        self.text[self.at..].chars().next().map_or("end of input".to_owned(), |c| format!("'{c}'"))
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}', found {}", want as char, self.found())))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err(&format!("unexpected value start {}", self.found()))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse an array or object one level deeper, refusing past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.at..].starts_with(word) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("bad literal (expected {word})")))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        let bad = |p: &Self| format!("offset {start}: bad number {:?}", &p.text[start..p.at]);
        let negative = self.peek() == Some(b'-');
        if negative {
            self.at += 1;
        }
        let int_start = self.at;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.text.as_bytes()[int_start] == b'0') {
            return Err(bad(self));
        }
        let mut integral = !negative;
        if self.peek() == Some(b'.') {
            self.at += 1;
            integral = false;
            if self.digits() == 0 {
                return Err(bad(self));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            integral = false;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if self.digits() == 0 {
                return Err(bad(self));
            }
        }
        let literal = &self.text[start..self.at];
        if integral {
            if let Ok(n) = literal.parse::<u64>() {
                return Ok(Json::Uint(n));
            }
        }
        match literal.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(format!("offset {start}: number {literal} is out of range")),
        }
    }

    /// Scan a string literal, copying unescaped runs as whole slices so the
    /// cost is linear in the string's length.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.at;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20) {
                self.at += 1;
            }
            // The run stops at an ASCII byte or the end: a char boundary.
            out.push_str(&self.text[run..self.at]);
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    out.push(self.escaped()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character a backslash escape stands for (cursor just past the
    /// backslash).
    fn escaped(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => return self.unicode_escape(),
            _ => return Err(self.err("unsupported escape")),
        };
        self.at += 1;
        Ok(c)
    }

    /// `uXXXX`, joining a UTF-16 surrogate pair written as two escapes.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let start = self.at - 1;
        let lone = || format!("offset {start}: lone surrogate in \\u escape");
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            if !self.text[self.at..].starts_with("\\u") {
                return Err(lone());
            }
            self.at += 1;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(lone());
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(lone)
    }

    /// The four hex digits after a `u` (cursor on the `u`).
    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .text
            .get(self.at + 1..self.at + 5)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.at += 5;
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": null}, "e": true}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_num(), Some(2.5));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_num(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = Json::parse(r#""éA""#).unwrap();
        assert_eq!(v.as_str(), Some("éA"));
    }

    #[test]
    fn rejects_malformed_input() {
        for (doc, fragment) in [
            ("", "end of input"),
            ("{", "end of input"),
            ("[1,]", "unexpected value start"),
            ("{\"a\":1,\"a\":2}", "duplicate key"),
            ("nul", "bad literal"),
            ("1 2", "trailing content"),
            ("\"abc", "unterminated string"),
        ] {
            let err = Json::parse(doc).expect_err(doc);
            assert!(err.contains(fragment), "{doc}: got {err:?}, wanted {fragment:?}");
        }
    }

    #[test]
    fn round_trips_a_real_bench_shape() {
        let doc = r#"{"benchmark": "fusion", "seed": 7, "rows": [{"name": "rb", "reuse_speedup": 0.77}]}"#;
        let v = Json::parse(doc).unwrap();
        let rows = v.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("reuse_speedup").unwrap().as_num(), Some(0.77));
    }

    #[test]
    fn unsigned_integers_read_back_exactly() {
        for n in [0, 1, (1u64 << 53) + 1, u64::MAX] {
            assert_eq!(Json::parse(&n.to_string()).unwrap().as_u64(), Some(n));
        }
        for doc in ["18446744073709551616", "-1", "-0", "2.0", "1e3"] {
            let v = Json::parse(doc).unwrap();
            assert_eq!(v.as_u64(), None, "{doc}");
            assert!(v.as_num().is_some(), "{doc}");
        }
    }

    #[test]
    fn escapes_decode_per_rfc_8259() {
        let v = Json::parse(r#""\u0041\u00e9\uD83D\uDE00\/\b\f\r\t""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé\u{1F600}/\u{8}\u{c}\r\t"));
    }

    #[test]
    fn rejects_what_rfc_8259_rejects() {
        for (doc, fragment) in [
            ("\"a\tb\"", "unescaped control character"),
            ("\"\\uD83D\"", "lone surrogate"),
            ("\"\\uD83Dx\"", "lone surrogate"),
            ("\"\\uD83D\\u0041\"", "lone surrogate"),
            ("\"\\uDE00\"", "lone surrogate"),
            ("\"\\u+041\"", "bad \\u escape"),
            ("\"\\x\"", "unsupported escape"),
            ("1e999", "out of range"),
            ("-1e999", "out of range"),
            ("01", "bad number"),
            ("1.", "bad number"),
            ("1e", "bad number"),
            ("-", "bad number"),
            ("\u{c}1", "unexpected value start"),
        ] {
            let err = Json::parse(doc).expect_err(doc);
            assert!(err.contains(fragment), "{doc:?}: got {err:?}, wanted {fragment:?}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        Json::parse(&at_cap).unwrap();
        let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.starts_with(&format!("offset {MAX_DEPTH}: nesting deeper")), "{err}");
        let err = Json::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn escape_covers_every_control_character() {
        assert_eq!(escape("a\"b\\c\nd\re\tf"), r#"a\"b\\c\nd\re\tf"#);
        assert_eq!(escape("\u{1}\u{1f}\u{7f}😀"), "\\u0001\\u001f\u{7f}😀");
        let all: String = (0..0x20u8).map(char::from).collect();
        let quoted = format!("\"{}\"", escape(&all));
        assert_eq!(Json::parse(&quoted).unwrap().as_str(), Some(all.as_str()));
    }

    #[test]
    fn numbers_render_finite_values_and_null() {
        assert_eq!(number(0.25), "0.25");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::NEG_INFINITY), "null");
    }
}
