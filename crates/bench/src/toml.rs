//! A small hand-rolled parser for the TOML subset scenario and
//! benchmark-suite files use.
//!
//! The build environment is fully offline, so instead of depending on a
//! TOML crate this module parses exactly what those files need:
//!
//! * `[section]` headers (one level, no dotted names),
//! * `key = value` pairs with bare keys,
//! * strings (`"…"` with `\" \\ \n \t \r` escapes), booleans, numbers
//!   (parsed as `f64`; `_` separators allowed), and single-line arrays of
//!   those scalars,
//! * `#` comments (full-line or trailing) and blank lines.
//!
//! Anything outside this subset is rejected with a line-numbered error —
//! a file that parses here is also valid TOML, so files stay editable
//! with ordinary tooling. The parser lives in `pmor-bench` (the lowest
//! crate that needs it, for suite files); the scenario CLI re-exports it
//! as `pmor_cli::toml`.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// A number (integers are parsed into `f64` too).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A single-line array of scalars (possibly heterogeneous).
    Array(Vec<Value>),
}

impl Value {
    /// Human label for error messages.
    fn kind(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Num(_) => "number",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }
}

/// A parse or schema error, carrying the 1-based line where applicable.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlError {
    /// 1-based source line (0 when the error is not tied to a line).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.msg)
        } else {
            write!(f, "{}", self.msg)
        }
    }
}

impl std::error::Error for TomlError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, TomlError> {
    Err(TomlError {
        line,
        msg: msg.into(),
    })
}

/// One `[section]` of key/value pairs.
pub type Table = BTreeMap<String, Value>;

/// A parsed document: sections by name; keys before any header land in
/// the root section `""`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Document {
    sections: BTreeMap<String, Table>,
}

impl Document {
    /// The named section, if present.
    pub fn section(&self, name: &str) -> Option<&Table> {
        self.sections.get(name)
    }

    /// Section names in lexicographic order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.keys().map(String::as_str)
    }

    /// A value by section and key.
    pub fn get(&self, section: &str, key: &str) -> Option<&Value> {
        self.sections.get(section).and_then(|t| t.get(key))
    }

    /// A required string.
    ///
    /// # Errors
    ///
    /// Fails when the key is missing or holds a different type.
    pub fn str_req(&self, section: &str, key: &str) -> Result<&str, TomlError> {
        match self.get(section, key) {
            Some(Value::Str(s)) => Ok(s),
            Some(v) => err(
                0,
                format!("[{section}] {key}: expected string, got {}", v.kind()),
            ),
            None => err(0, format!("[{section}] missing required key `{key}`")),
        }
    }

    /// An optional string.
    ///
    /// # Errors
    ///
    /// Fails when the key holds a different type.
    pub fn str_opt(&self, section: &str, key: &str) -> Result<Option<&str>, TomlError> {
        match self.get(section, key) {
            Some(Value::Str(s)) => Ok(Some(s)),
            Some(v) => err(
                0,
                format!("[{section}] {key}: expected string, got {}", v.kind()),
            ),
            None => Ok(None),
        }
    }

    /// An optional number.
    ///
    /// # Errors
    ///
    /// Fails when the key holds a different type.
    pub fn f64_opt(&self, section: &str, key: &str) -> Result<Option<f64>, TomlError> {
        match self.get(section, key) {
            Some(Value::Num(v)) => Ok(Some(*v)),
            Some(v) => err(
                0,
                format!("[{section}] {key}: expected number, got {}", v.kind()),
            ),
            None => Ok(None),
        }
    }

    /// A number with a default.
    ///
    /// # Errors
    ///
    /// Fails when the key holds a different type.
    pub fn f64_or(&self, section: &str, key: &str, default: f64) -> Result<f64, TomlError> {
        Ok(self.f64_opt(section, key)?.unwrap_or(default))
    }

    /// A nonnegative integer with a default (counts, sizes, indices —
    /// capped at `u32::MAX`, far above any plausible count).
    ///
    /// # Errors
    ///
    /// Fails when the key holds a different type or a non-integral /
    /// negative / implausibly large value.
    pub fn usize_or(&self, section: &str, key: &str, default: usize) -> Result<usize, TomlError> {
        match self.f64_opt(section, key)? {
            None => Ok(default),
            Some(v) if v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64 => Ok(v as usize),
            Some(v) => err(
                0,
                format!(
                    "[{section}] {key}: expected nonnegative integer ≤ {}, got {v}",
                    u32::MAX
                ),
            ),
        }
    }

    /// A `u64` with a default (RNG seeds). Values survive the `f64`
    /// number representation exactly up to 2⁵³.
    ///
    /// # Errors
    ///
    /// Fails when the key holds a different type, a non-integral /
    /// negative value, or one above 2⁵³ (not exactly representable).
    pub fn u64_or(&self, section: &str, key: &str, default: u64) -> Result<u64, TomlError> {
        const MAX_EXACT: f64 = (1u64 << 53) as f64;
        match self.f64_opt(section, key)? {
            None => Ok(default),
            Some(v) if v >= 0.0 && v.fract() == 0.0 && v <= MAX_EXACT => Ok(v as u64),
            Some(v) => err(
                0,
                format!(
                    "[{section}] {key}: expected nonnegative integer ≤ 2^53 (exactly \
                     representable), got {v}"
                ),
            ),
        }
    }

    /// A boolean with a default.
    ///
    /// # Errors
    ///
    /// Fails when the key holds a different type.
    pub fn bool_or(&self, section: &str, key: &str, default: bool) -> Result<bool, TomlError> {
        match self.get(section, key) {
            Some(Value::Bool(b)) => Ok(*b),
            Some(v) => err(
                0,
                format!("[{section}] {key}: expected boolean, got {}", v.kind()),
            ),
            None => Ok(default),
        }
    }

    /// An optional array of numbers.
    ///
    /// # Errors
    ///
    /// Fails when the key holds a different type or a non-numeric element.
    pub fn f64_array_opt(&self, section: &str, key: &str) -> Result<Option<Vec<f64>>, TomlError> {
        match self.get(section, key) {
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| match v {
                    Value::Num(x) => Ok(*x),
                    other => err(
                        0,
                        format!(
                            "[{section}] {key}: expected numeric array element, got {}",
                            other.kind()
                        ),
                    ),
                })
                .collect::<Result<Vec<f64>, TomlError>>()
                .map(Some),
            Some(v) => err(
                0,
                format!("[{section}] {key}: expected array, got {}", v.kind()),
            ),
            None => Ok(None),
        }
    }

    /// A required array of strings.
    ///
    /// # Errors
    ///
    /// Fails when the key is missing, holds a different type, or has a
    /// non-string element.
    pub fn str_array_req(&self, section: &str, key: &str) -> Result<Vec<String>, TomlError> {
        match self.get(section, key) {
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| match v {
                    Value::Str(s) => Ok(s.clone()),
                    other => err(
                        0,
                        format!(
                            "[{section}] {key}: expected string array element, got {}",
                            other.kind()
                        ),
                    ),
                })
                .collect(),
            Some(v) => err(
                0,
                format!("[{section}] {key}: expected array, got {}", v.kind()),
            ),
            None => err(0, format!("[{section}] missing required key `{key}`")),
        }
    }
}

/// Parses a document from TOML text.
///
/// # Errors
///
/// Rejects anything outside the supported subset with a line-numbered
/// message.
pub fn parse(text: &str) -> Result<Document, TomlError> {
    let mut doc = Document::default();
    let mut current = String::new();
    doc.sections.insert(String::new(), Table::new());
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = strip_comment(raw, lineno)?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return err(lineno, "unterminated section header");
            };
            let name = name.trim();
            if name.is_empty() || !name.chars().all(is_bare_key_char) {
                return err(lineno, format!("invalid section name {name:?}"));
            }
            if doc.sections.contains_key(name) {
                return err(lineno, format!("duplicate section [{name}]"));
            }
            current = name.to_string();
            doc.sections.insert(current.clone(), Table::new());
            continue;
        }
        let Some(eq) = line.find('=') else {
            return err(lineno, format!("expected `key = value`, got {line:?}"));
        };
        let key = line[..eq].trim();
        if key.is_empty() || !key.chars().all(is_bare_key_char) {
            return err(lineno, format!("invalid key {key:?}"));
        }
        let (value, rest) = parse_toml_value(line[eq + 1..].trim(), lineno)?;
        if !rest.trim().is_empty() {
            return err(lineno, format!("trailing characters after value: {rest:?}"));
        }
        let table = doc
            .sections
            .get_mut(&current)
            // pmor-lint: allow(panic-in-lib) reason="`current` is inserted into `sections` the moment a header opens it"
            .expect("current section exists");
        if table.insert(key.to_string(), value).is_some() {
            return err(lineno, format!("duplicate key `{key}`"));
        }
    }
    Ok(doc)
}

/// Serializes a document back to TOML text.
///
/// The output is the exact subset [`parse`] accepts, so
/// `parse(&serialize(&doc))` always succeeds and returns a document
/// equal to `doc` (the round-trip property the parser's property tests
/// pin). Root-section keys come first (they must precede any header),
/// then sections and keys in their stored lexicographic order —
/// serialization is canonical, not source-order-preserving.
pub fn serialize(doc: &Document) -> String {
    let mut out = String::new();
    if let Some(root) = doc.sections.get("") {
        for (key, value) in root {
            out.push_str(&format!("{key} = {}\n", format_value(value)));
        }
    }
    for (name, table) in &doc.sections {
        if name.is_empty() {
            continue;
        }
        out.push_str(&format!("[{name}]\n"));
        for (key, value) in table {
            out.push_str(&format!("{key} = {}\n", format_value(value)));
        }
    }
    out
}

/// One value in [`serialize`]'s output form.
fn format_value(value: &Value) -> String {
    match value {
        Value::Str(s) => {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        // Rust's shortest-round-trip Display never uses exponent
        // notation or a bare leading/trailing dot, so the token is
        // exactly the number shape `valid_number_token` accepts and
        // reparses to the same f64.
        Value::Num(v) => format!("{v}"),
        Value::Bool(b) => format!("{b}"),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(format_value).collect();
            format!("[{}]", inner.join(", "))
        }
    }
}

fn is_bare_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Removes a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str, lineno: usize) -> Result<&str, TomlError> {
    let mut in_str = false;
    let mut escaped = false;
    for (at, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return Ok(&line[..at]),
            _ => {}
        }
    }
    if in_str {
        return err(lineno, "unterminated string");
    }
    Ok(line)
}

/// Parses one value from the front of `input`, returning the rest.
fn parse_toml_value(input: &str, lineno: usize) -> Result<(Value, &str), TomlError> {
    let input = input.trim_start();
    if input.is_empty() {
        return err(lineno, "missing value");
    }
    if let Some(rest) = input.strip_prefix('"') {
        return parse_string(rest, lineno);
    }
    if let Some(rest) = input.strip_prefix('[') {
        return parse_array(rest, lineno);
    }
    // Bare scalar: runs to the next delimiter.
    let end = input
        .find(|c: char| c == ',' || c == ']' || c.is_whitespace())
        .unwrap_or(input.len());
    let (token, rest) = input.split_at(end);
    match token {
        "true" => return Ok((Value::Bool(true), rest)),
        "false" => return Ok((Value::Bool(false), rest)),
        _ => {}
    }
    if !valid_number_token(token) {
        return err(lineno, format!("invalid value {token:?}"));
    }
    let cleaned: String = token.chars().filter(|&c| c != '_').collect();
    match cleaned.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok((Value::Num(v), rest)),
        _ => err(lineno, format!("invalid value {token:?}")),
    }
}

/// TOML number shape: after an optional sign, the token starts and ends
/// with a digit and every `_` sits between two digits. Rejecting `.5`,
/// `5.`, `_1`, `1_`, `1__2` here keeps the documented invariant that
/// whatever this parser accepts is also valid TOML.
fn valid_number_token(token: &str) -> bool {
    let t = token.strip_prefix(['+', '-']).unwrap_or(token);
    let b = t.as_bytes();
    let Some((&first, &last)) = b.first().zip(b.last()) else {
        return false;
    };
    if !first.is_ascii_digit() || !last.is_ascii_digit() {
        return false;
    }
    // `_` cannot sit at either end (checked above), so i±1 are in range.
    b.iter()
        .enumerate()
        .all(|(i, &c)| c != b'_' || (b[i - 1].is_ascii_digit() && b[i + 1].is_ascii_digit()))
}

/// Parses the remainder of a `"`-opened string literal.
fn parse_string(input: &str, lineno: usize) -> Result<(Value, &str), TomlError> {
    let mut out = String::new();
    let mut chars = input.char_indices();
    while let Some((at, c)) = chars.next() {
        match c {
            '"' => return Ok((Value::Str(out), &input[at + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, other)) => return err(lineno, format!("unsupported escape \\{other}")),
                None => return err(lineno, "unterminated string"),
            },
            c => out.push(c),
        }
    }
    err(lineno, "unterminated string")
}

/// Parses the remainder of a `[`-opened single-line array.
fn parse_array(mut input: &str, lineno: usize) -> Result<(Value, &str), TomlError> {
    let mut items = Vec::new();
    loop {
        input = input.trim_start();
        if let Some(rest) = input.strip_prefix(']') {
            return Ok((Value::Array(items), rest));
        }
        if input.is_empty() {
            return err(lineno, "unterminated array");
        }
        let (v, rest) = parse_toml_value(input, lineno)?;
        if matches!(v, Value::Array(_)) {
            return err(lineno, "nested arrays are not supported");
        }
        items.push(v);
        input = rest.trim_start();
        if let Some(rest) = input.strip_prefix(',') {
            input = rest;
        } else if !input.starts_with(']') {
            return err(lineno, "expected `,` or `]` in array");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_scalars_and_arrays() {
        let doc = parse(
            r#"
# A scenario-ish document.
top = "root value"

[scenario]
name = "fig3"          # trailing comment
points = 61
sigma = 0.1
big = 1_000
sci = 1e10
neg = -0.3
enabled = true

[reduce]
methods = ["prima", "lowrank"]
parameters = [0.8, -0.8]
empty = []
"#,
        )
        .unwrap();
        assert_eq!(doc.str_req("", "top").unwrap(), "root value");
        assert_eq!(doc.str_req("scenario", "name").unwrap(), "fig3");
        assert_eq!(doc.usize_or("scenario", "points", 0).unwrap(), 61);
        assert_eq!(doc.f64_or("scenario", "sigma", 0.0).unwrap(), 0.1);
        assert_eq!(doc.f64_or("scenario", "big", 0.0).unwrap(), 1000.0);
        assert_eq!(doc.f64_or("scenario", "sci", 0.0).unwrap(), 1e10);
        assert_eq!(doc.f64_or("scenario", "neg", 0.0).unwrap(), -0.3);
        assert!(doc.bool_or("scenario", "enabled", false).unwrap());
        assert_eq!(
            doc.str_array_req("reduce", "methods").unwrap(),
            vec!["prima".to_string(), "lowrank".to_string()]
        );
        assert_eq!(
            doc.f64_array_opt("reduce", "parameters").unwrap().unwrap(),
            vec![0.8, -0.8]
        );
        assert_eq!(
            doc.f64_array_opt("reduce", "empty").unwrap().unwrap(),
            Vec::<f64>::new()
        );
        assert_eq!(doc.f64_array_opt("reduce", "missing").unwrap(), None);
    }

    #[test]
    fn string_escapes_and_hash_inside_strings() {
        let doc = parse("s = \"a #not-a-comment \\\"q\\\" \\n\\t\\\\\"").unwrap();
        assert_eq!(
            doc.str_req("", "s").unwrap(),
            "a #not-a-comment \"q\" \n\t\\"
        );
    }

    #[test]
    fn defaults_apply_for_missing_keys() {
        let doc = parse("[a]\nx = 1").unwrap();
        assert_eq!(doc.usize_or("a", "y", 7).unwrap(), 7);
        assert_eq!(doc.f64_or("b", "z", 2.5).unwrap(), 2.5);
        assert!(!doc.bool_or("a", "flag", false).unwrap());
        assert_eq!(doc.str_opt("a", "s").unwrap(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for (bad, what) in [
            ("key", "no equals"),
            ("= 3", "empty key"),
            ("[sec", "unterminated header"),
            ("[a]\n[a]", "duplicate section"),
            ("x = 1\nx = 2", "duplicate key"),
            ("x = \"abc", "unterminated string"),
            ("x = [1, 2", "unterminated array"),
            ("x = [[1]]", "nested array"),
            ("x = zzz", "bad scalar"),
            ("x = .5", "leading-dot float (invalid TOML)"),
            ("x = 5.", "trailing-dot float (invalid TOML)"),
            ("x = _1", "leading underscore"),
            ("x = 1_", "trailing underscore"),
            ("x = 1__2", "double underscore"),
            ("x = 1_.5", "underscore next to dot"),
            ("x = 1 2", "trailing garbage"),
            ("x = \"a\\q\"", "bad escape"),
            ("bad key = 1", "key with space"),
        ] {
            let r = parse(bad);
            assert!(r.is_err(), "{what}: {bad:?} parsed as {r:?}");
        }
    }

    #[test]
    fn type_errors_name_section_and_key() {
        let doc = parse("[a]\nx = 1").unwrap();
        let e = doc.str_req("a", "x").unwrap_err();
        assert!(e.to_string().contains("[a] x"), "{e}");
        let e = doc.usize_or("a", "x", 0);
        assert!(e.is_ok());
        let doc = parse("[a]\nx = 1.5").unwrap();
        assert!(doc.usize_or("a", "x", 0).is_err());
        let doc = parse("[a]\nx = -2").unwrap();
        assert!(doc.usize_or("a", "x", 0).is_err());
    }

    #[test]
    fn u64_keys_support_large_seeds() {
        let doc = parse("[a]\nseed = 5000000000").unwrap();
        assert_eq!(doc.u64_or("a", "seed", 0).unwrap(), 5_000_000_000);
        assert_eq!(doc.u64_or("a", "missing", 7).unwrap(), 7);
        // usize_or (counts) still rejects it as implausible.
        assert!(doc.usize_or("a", "seed", 0).is_err());
        // Beyond 2^53 the f64 carrier can't hold the value exactly.
        let doc = parse("[a]\nseed = 18446744073709551615").unwrap();
        assert!(doc.u64_or("a", "seed", 0).is_err());
    }

    #[test]
    fn error_carries_line_number() {
        let e = parse("ok = 1\nbroken =").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().starts_with("line 2:"));
    }

    #[test]
    fn serialize_emits_parseable_canonical_text() {
        let doc =
            parse("top = 1\n[suite]\nname = \"smoke\"\nflags = [true, 2.5, \"a#b\"]\nwarmup = 0\n")
                .unwrap();
        let text = serialize(&doc);
        // Root key first, sections in order, arrays single-line.
        assert_eq!(
            text,
            "top = 1\n[suite]\nflags = [true, 2.5, \"a#b\"]\nname = \"smoke\"\nwarmup = 0\n"
        );
        assert_eq!(parse(&text).unwrap(), doc);
    }

    // --- Property tests (vendored proptest shim) ------------------------

    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    const KEY_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";

    /// A bare key / section name: 1–11 chars from the accepted set.
    fn keys() -> impl Strategy<Value = String> {
        pvec(0usize..KEY_CHARS.len(), 1..12)
            .prop_map(|ix| ix.into_iter().map(|i| KEY_CHARS[i] as char).collect())
    }

    /// String-value characters, biased toward the troublemakers: every
    /// escapable char, the comment/structure chars, and non-ASCII.
    const STR_CHARS: &[char] = &[
        'a', 'Z', '9', ' ', '#', '"', '\\', '\n', '\t', '\r', '=', '[', ']', ',', '.', '_', '-',
        'é', '→',
    ];

    fn scalars() -> impl Strategy<Value = Value> {
        (
            0usize..4,
            pvec(0usize..STR_CHARS.len(), 0..10),
            -1.0e9f64..1.0e9,
            0u64..1_000_000,
        )
            .prop_map(|(variant, str_ix, float, int)| match variant {
                0 => Value::Str(str_ix.into_iter().map(|i| STR_CHARS[i]).collect()),
                1 => Value::Num(float),
                2 => Value::Num(int as f64),
                _ => Value::Bool(int % 2 == 0),
            })
    }

    fn tables() -> impl Strategy<Value = Table> {
        // Scalar or (flat) array values; duplicate generated keys
        // collapse in the map, which is fine — we test round-tripping
        // of documents, not of raw text.
        let values =
            (0usize..4, scalars(), pvec(scalars(), 0..5)).prop_map(|(variant, scalar, arr)| {
                if variant == 0 {
                    Value::Array(arr)
                } else {
                    scalar
                }
            });
        pvec((keys(), values), 0..6).prop_map(|kv| kv.into_iter().collect())
    }

    fn documents() -> impl Strategy<Value = Document> {
        (tables(), pvec((keys(), tables()), 0..5)).prop_map(|(root, named)| {
            let mut sections = BTreeMap::new();
            sections.insert(String::new(), root);
            for (name, table) in named {
                sections.insert(name, table);
            }
            Document { sections }
        })
    }

    /// Arbitrary text over the parser's alphabet of troublemakers.
    fn garbage() -> impl Strategy<Value = String> {
        const CHARS: &[char] = &[
            '[', ']', '=', '"', '#', '\\', ',', '.', '_', '-', '+', 'a', 'e', '1', '0', ' ', '\t',
            '\n', '\r', 'é', '\u{0}',
        ];
        pvec(0usize..CHARS.len(), 0..120).prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_serialize_round_trips(doc in documents()) {
            let text = serialize(&doc);
            let back = parse(&text);
            prop_assert!(
                back.is_ok(),
                "serialized form rejected: {:?}\n---\n{}", back.as_ref().err(), text
            );
            prop_assert_eq!(back.unwrap(), doc);
        }

        #[test]
        fn arbitrary_input_never_panics(text in garbage()) {
            // The only contract on malformed input is a returned `Err`
            // (or a successful parse) — never a panic.
            let _ = parse(&text);
        }

        #[test]
        fn serialization_is_canonical(doc in documents()) {
            // serialize ∘ parse ∘ serialize is a fixpoint: reparsing the
            // canonical text and serializing again changes nothing.
            let text = serialize(&doc);
            let again = serialize(&parse(&text).unwrap());
            prop_assert_eq!(text, again);
        }
    }
}
