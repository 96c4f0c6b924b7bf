#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The workspace's one JSON reader and writer.
//!
//! * [`parse_json`] reads one document into a [`Json`] tree: recursive
//!   descent, depth-limited, position-annotated errors. A number outside
//!   the `f64` range (`1e400`) is an error, never an infinity. The three
//!   report validators and the `pmor serve` JSON dialect read through it.
//! * [`json_string`] and [`json_number`] are the writer primitives every
//!   report and reply is built from: a string literal with the mandatory
//!   escapes, and the shortest decimal that round-trips through `f64`
//!   (`null` for NaN and ±∞, which JSON cannot spell).
//!
//! ```
//! use pmor_json::{json_number, json_string, parse_json, Json};
//!
//! let line = format!("{{\"name\": {}, \"x\": {}}}", json_string("a\"b"), json_number(2.0));
//! assert_eq!(line, r#"{"name": "a\"b", "x": 2.0}"#);
//! let doc = parse_json(&line).unwrap();
//! assert_eq!(doc.get("name").and_then(Json::as_str), Some("a\"b"));
//! assert_eq!(doc.get("x").and_then(Json::as_f64), Some(2.0));
//! assert!(parse_json("1e400").is_err());
//! ```

/// Nesting depth cap for the parser (arrays + objects combined).
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as a finite `f64`).
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for absent keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number, if this is a non-negative integer that fits `usize`
    /// (ids, line numbers and counts).
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n < usize::MAX as f64).then_some(n as usize)
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in source order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value of `key` converted by `as_type` (one of the `as_*`
    /// accessors): the one shape in which the report validators check a
    /// record field.
    ///
    /// # Errors
    ///
    /// `"{ctx}: missing or mistyped \"{key}\""`.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        as_type: impl FnOnce(&'a Json) -> Option<T>,
        ctx: &str,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(as_type)
            .ok_or_else(|| format!("{ctx}: missing or mistyped \"{key}\""))
    }
}

/// Parses one JSON document (whole-input: trailing garbage is an
/// error).
///
/// # Errors
///
/// Returns a position-annotated message on any syntax violation, a
/// number outside the `f64` range, depth overflow, or trailing input.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(value)
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("invalid number at byte {start}"))?;
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Json::Num(n)),
        Ok(_) => Err(format!("number {text:?} at byte {start} overflows f64")),
        Err(_) => Err(format!("invalid number {text:?} at byte {start}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let hi = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require a following \uXXXX low half.
                            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u')
                            {
                                return Err("unpaired high surrogate".into());
                            }
                            *pos += 2;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("invalid low surrogate".into());
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return Err("unpaired low surrogate".into());
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| "invalid unicode escape".to_string())?,
                        );
                        continue; // parse_hex4 already advanced pos
                    }
                    _ => return Err(format!("invalid escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(format!("raw control byte in string at {pos}", pos = *pos))
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is &str, so this is safe
                // to slice at char boundaries found by the std decoder).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                let ch = rest.chars().next().ok_or("unterminated string")?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let end = pos
        .checked_add(4)
        .filter(|&e| e <= bytes.len())
        .ok_or("truncated \\u escape")?;
    let text =
        std::str::from_utf8(&bytes[*pos..end]).map_err(|_| "invalid \\u escape".to_string())?;
    let v = u32::from_str_radix(text, 16).map_err(|_| format!("invalid \\u escape {text:?}"))?;
    *pos = end;
    Ok(v)
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {pos}",
            want as char,
            pos = *pos
        ))
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
        *pos += 1;
    }
}

/// JSON string literal of `s`, quotes included, with the mandatory
/// escapes (`"`, `\`, and every control character).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Shortest decimal form of `v` that round-trips through `f64` parsing,
/// with `.0` appended to integral values so a reader sees a float;
/// non-finite values become `null` (JSON has no NaN or infinity).
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(
            parse_json(r#""a\nb\u00e9\ud83d\ude00""#).unwrap(),
            Json::Str("a\nb\u{e9}\u{1F600}".to_string())
        );
        let doc = parse_json(r#"{"a":[1,{"b":[]}],"c":{}}"#).unwrap();
        assert!(matches!(doc.get("a"), Some(Json::Arr(items)) if items.len() == 2));
        assert_eq!(doc.get("c"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn rejects_garbage_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "tru",
            "1.2.3",
            "\"\\q\"",
            "\"\\ud800\"",
            "\"\\udc00x\"",
            "{} trailing",
            "\"unterminated",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
        // Depth bomb stops at the limit instead of blowing the stack.
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse_json(&deep).is_err());
    }

    #[test]
    fn overflowing_numbers_are_errors_underflow_is_zero() {
        for big in ["1e400", "-1e400", "[1e309]", "{\"x\": 1.8e308}"] {
            let err = parse_json(big).unwrap_err();
            assert!(err.contains("overflows"), "{big}: {err}");
        }
        assert_eq!(parse_json("1e-400").unwrap(), Json::Num(0.0));
        assert_eq!(parse_json("1.7e308").unwrap(), Json::Num(1.7e308));
    }

    #[test]
    fn typed_accessors_and_field() {
        let doc = parse_json(r#"{"s":"x","n":3,"f":-1.5,"b":true,"a":[1]}"#).unwrap();
        assert_eq!(doc.field("s", Json::as_str, "rec"), Ok("x"));
        assert_eq!(doc.field("n", Json::as_usize, "rec"), Ok(3));
        assert_eq!(doc.field("b", Json::as_bool, "rec"), Ok(true));
        assert_eq!(doc.field("a", Json::as_array, "rec").map(<[_]>::len), Ok(1));
        assert_eq!(doc.field("f", Json::as_f64, "rec"), Ok(-1.5));
        let err = Err("rec 2: missing or mistyped \"f\"".to_string());
        assert_eq!(doc.field("f", Json::as_usize, "rec 2"), err);
        assert!(doc.field("absent", Json::as_str, "rec").is_err());
        assert!(Json::Num(1.0).get("s").is_none());
    }

    #[test]
    fn writers_escape_and_round_trip() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}\t"), "\"\\u0001\\t\"");
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(0.1), "0.1");
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(f64::NEG_INFINITY), "null");
        for v in [1e300, -2.5e-300, 0.1 + 0.2, f64::MAX, f64::MIN_POSITIVE] {
            assert_eq!(
                json_number(v).parse::<f64>().unwrap().to_bits(),
                v.to_bits()
            );
        }
        let text = "tab\there \"quoted\" \\ \u{7} é";
        assert_eq!(
            parse_json(&json_string(text)).unwrap(),
            Json::Str(text.into())
        );
    }
}
