//! The workspace's one JSON codec: a value type, a parser, a
//! pretty-printer, and the string escaper and number rule that every
//! JSON writer in tempo shares.
//!
//! Metrics snapshots, event lines, the `BENCH_run.json` run record,
//! `tempod`'s `SYNC` tally and `analyze --format json` all go through
//! this module. Writers that keep a layout of their own (compact, or the
//! snapshot's one-metric-per-line form) format the structure themselves
//! and use [`Str`] and [`Num`] for every string and non-integer number,
//! so escaping and number spelling are decided here alone.
//!
//! The subset is deliberate: objects keep insertion order (stable
//! diffs), numbers are `f64`, and the parser accepts what the writers
//! produce plus ordinary hand-edited whitespace. It runs in time linear
//! in its input.
//!
//! ```
//! use tempo_obs::json::{Json, Num, Str};
//!
//! assert_eq!(format!("{}: {}", Str("a\"b"), Num(2.5)), r#""a\"b": 2.5"#);
//! let doc = Json::parse(r#"{"frames": 3, "tag": "x"}"#)?;
//! assert_eq!(doc.get("frames").and_then(Json::as_u64), Some(3));
//! # Ok::<(), String>(())
//! ```

use std::fmt::{self, Write as _};

/// 2^53: every integer below it is exact as an `f64`.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so a hostile file of open brackets must fail here, not
/// overflow the stack.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects (the first field named `key`).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, when it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer: a number that is
    /// integral, non-negative and below 2^53 (`9007199254740992`).
    /// Numbers are carried as `f64`, which holds every integer below
    /// that bound exactly; larger ones may have been rounded on parse,
    /// so they are refused rather than read wrong.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        // Integral and within 0..2^53, so the cast is exact.
        (n.fract() == 0.0 && (0.0..EXACT_INTEGERS).contains(&n)).then_some(n as u64)
    }

    /// The value as a bool, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, when it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object's fields in source order, when it is one.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, 0);
        out.push('\n');
        out
    }

    fn render(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let _ = match self {
            Json::Null => write!(out, "null"),
            Json::Bool(b) => write!(out, "{b}"),
            Json::Number(n) => write!(out, "{}", Num(*n)),
            Json::String(s) => write!(out, "{}", Str(s)),
            Json::Array(items) if items.is_empty() => write!(out, "[]"),
            Json::Object(fields) if fields.is_empty() => write!(out, "{{}}"),
            Json::Array(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    item.render(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                write!(out, "{pad}]")
            }
            Json::Object(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    let _ = write!(out, "{pad}  {}: ", Str(k));
                    v.render(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                write!(out, "{pad}}}")
            }
        };
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        let value = p.parse_value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// A string written as a quoted JSON literal.
///
/// `"` and `\` are backslash-escaped, newline, carriage return and tab
/// use their short escapes, other control characters below U+0020 are
/// written `\u00XX`, and everything else (non-ASCII included) is
/// written as is.
#[derive(Debug, Clone, Copy)]
pub struct Str<'a>(pub &'a str);

impl fmt::Display for Str<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        let mut run = 0;
        for (i, c) in self.0.char_indices() {
            if c >= ' ' && c != '"' && c != '\\' {
                continue;
            }
            f.write_str(&self.0[run..i])?;
            run = i + 1;
            match c {
                '"' => f.write_str("\\\""),
                '\\' => f.write_str("\\\\"),
                '\n' => f.write_str("\\n"),
                '\r' => f.write_str("\\r"),
                '\t' => f.write_str("\\t"),
                c => write!(f, "\\u{:04x}", c as u32),
            }?;
        }
        f.write_str(&self.0[run..])?;
        f.write_char('"')
    }
}

/// A number written by the workspace's one number rule.
///
/// Finite values print in plain decimal with the shortest digits that
/// read back to the same `f64`, never in exponent form: `1.5`, `-2.5`,
/// and integral values without a fraction (`42`, `1000000000000000`).
/// Negative zero prints as `0`. NaN and the infinities, which JSON
/// cannot spell, also print as `0`, so every output is a JSON token.
#[derive(Debug, Clone, Copy)]
pub struct Num(pub f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() && self.0 != 0.0 {
            write!(f, "{}", self.0)
        } else {
            f.write_char('0')
        }
    }
}

/// A cursor over the input. `pos` only ever stops next to an ASCII
/// byte, so it is always a `char` boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), String> {
        if self.text.as_bytes()[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(format!("expected `{token}` at byte {}", self.pos))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nested deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.parse_string().map(Json::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.parse_value(depth + 1)?);
                    if self.end_of_list(b']')? {
                        return Ok(Json::Array(items));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(":")?;
                    fields.push((key, self.parse_value(depth + 1)?));
                    if self.end_of_list(b'}')? {
                        return Ok(Json::Object(fields));
                    }
                }
            }
            Some(_) => self.parse_number(),
        }
    }

    /// After a list element: `true` past the closing `close`, `false`
    /// past a `,`.
    fn end_of_list(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(format!(
                "expected `,` or `{}` at byte {}",
                close as char, self.pos
            )),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go.
            let run = self.text.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.text.as_bytes()[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let at = self.pos;
            let escape = self.peek();
            self.pos += 1;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let code = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
                    self.pos += 4;
                    char::from_u32(code).unwrap_or('\u{FFFD}')
                }
                _ => return Err(format!("bad escape at byte {at}")),
            });
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_report_shaped_document() {
        let doc = Json::Object(vec![
            ("schema".into(), Json::Number(1.0)),
            ("records".into(), Json::Null),
            ("ok".into(), Json::Bool(true)),
            ("wall_ms".into(), Json::Number(1234.5)),
            (
                "experiments".into(),
                Json::Array(vec![Json::Object(vec![
                    ("name".into(), Json::String("table1".into())),
                    ("misses".into(), Json::Number(987654.0)),
                ])]),
            ),
            ("empty".into(), Json::Array(vec![])),
            ("msg".into(), Json::String("a \"quoted\"\nline".into())),
        ]);
        let text = doc.render_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.get("wall_ms").and_then(Json::as_f64), Some(1234.5));
        assert_eq!(
            parsed
                .get("experiments")
                .and_then(Json::as_array)
                .and_then(|a| a[0].get("name"))
                .and_then(Json::as_str),
            Some("table1")
        );
    }

    #[test]
    fn integral_numbers_print_without_fraction() {
        assert_eq!(Json::Number(42.0).render_pretty(), "42\n");
        assert_eq!(Json::Number(0.5).render_pretty(), "0.5\n");
    }

    /// The number rule, pinned: plain decimal, no exponent, `-0.0` and
    /// non-finite values as `0`.
    #[test]
    fn number_rule_table() {
        for (n, text) in [
            (0.0, "0"),
            (-0.0, "0"),
            (1.5, "1.5"),
            (-2.5, "-2.5"),
            (0.1, "0.1"),
            (9_007_199_254_740_992.0, "9007199254740992"),
            (1e15, "1000000000000000"),
            (9e15, "9000000000000000"),
            (1e-7, "0.0000001"),
            (f64::NAN, "0"),
            (f64::INFINITY, "0"),
            (f64::NEG_INFINITY, "0"),
        ] {
            assert_eq!(Num(n).to_string(), text, "{n:?}");
            let back = Json::parse(text).unwrap().as_f64().unwrap();
            if n.is_finite() {
                assert_eq!(back, n, "{text} reads back");
            }
        }
    }

    #[test]
    fn escapes_round_trip() {
        for s in [
            "",
            "plain",
            "a\"b\\c",
            "line\nbreak\r\ttab",
            "\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}",
            "é ü 漢字 😀",
            "mixed \"ü\"\n\u{2}end",
        ] {
            let text = Str(s).to_string();
            assert!(
                !text[1..text.len() - 1].chars().any(|c| c < ' '),
                "{text:?} carries a raw control character"
            );
            assert_eq!(Json::parse(&text).unwrap(), Json::String(s.into()));
        }
        assert_eq!(Str("a\u{1}b").to_string(), "\"a\\u0001b\"");
        assert_eq!(Str("t\tn\n").to_string(), "\"t\\tn\\n\"");
        assert_eq!(Str("é").to_string(), "\"é\"");
        // Escapes the writer never emits still parse.
        assert_eq!(
            Json::parse(r#""\/\b\féA""#).unwrap(),
            Json::String("/\u{8}\u{c}éA".into())
        );
    }

    #[test]
    fn as_u64_takes_exact_integers_only() {
        let n = |text: &str| Json::parse(text).unwrap().as_u64();
        assert_eq!(n("0"), Some(0));
        assert_eq!(n("9007199254740991"), Some(9_007_199_254_740_991));
        assert_eq!(n("9007199254740992"), None);
        assert_eq!(n("-1"), None);
        assert_eq!(n("1.5"), None);
        assert_eq!(n("\"1\""), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse(r#""\u12""#).is_err());
        assert!(Json::parse(r#""\u+123""#).is_err());
        assert!(Json::parse(r#""\q""#).is_err());
        assert!(Json::parse("NaN").is_err());
        // Deep nesting is an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        let deep = format!("{}{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&deep).is_ok());
    }

    /// A long string parses in linear time: a quadratic scan over this
    /// input would take seconds.
    #[test]
    fn long_strings_parse_in_one_pass() {
        let body = "é".repeat(1 << 20);
        let parsed = Json::parse(&Str(&body).to_string()).unwrap();
        assert_eq!(parsed.as_str().map(str::len), Some(body.len()));
    }
}
