//! Minimal JSON parser, the fail-closed field reader, and the result-JSON
//! v1 schema validator.
//!
//! The workspace has no serde (offline build), so `BENCH_*.json` documents
//! are checked with a small hand-rolled recursive-descent parser. Every
//! untrusted document — these envelopes, and `pp-serve`'s requests, events
//! and snapshot files — is read field by field through [`Fields`], the one
//! place that decides how a field is typed and bounded. Every bin
//! self-validates the envelope it is about to write (exit code 2 on
//! violation), the `validate_bench` bin re-validates uploaded artifacts in
//! CI, and the schema-conformance tests parse every bin's envelope through
//! this module.
//!
//! ## Result-JSON v1
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "name": "t1_convergence_n",          // bin/experiment id (file stem)
//!   "title": "t1: convergence time ...", // human title
//!   "engine": "dense",                   // engine tier, or null for sweeps
//!   "preset": "quick",                   // PP_PRESET
//!   "params": {"seed": 100},             // topology/protocol parameters
//!   "columns": ["n", "steps"],           // table header
//!   "rows": [[1024, 31337.5]],           // typed cells: number or string
//!   "notes": ["fitted slope ..."],       // free-form observations
//!   "wall_ms": 1234.5,                   // wall-clock of the run
//!   "steps_per_sec": null,               // aggregate rate, when measured
//!   "runner_class": null,                // PP_RUNNER_CLASS hardware label
//!   "recorder": null                     // pp-obs dump when PP_OBS=json
//! }
//! ```
//!
//! `runner_class` names the hardware class that produced the artifact
//! (e.g. `"ci-4core"`); step-rate gates tighten their band when baseline
//! and fresh report the same class, and stay loose across classes or
//! when either side is `null` (pre-label artifacts parse as v1 too —
//! the field is optional on read, always written by current bins).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON `true`/`false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A JSON string.
    Str(String),
    /// A JSON array.
    Arr(Vec<Value>),
    /// A JSON object (sorted keys; duplicates rejected).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// A parse failure with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing garbage.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let bytes = input.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Maximum container nesting the recursive-descent parser accepts. The
/// parser recurses once per `[`/`{` level, so without a bound a hostile
/// (or merely corrupt) artifact like `[[[[…` overflows the thread stack
/// and aborts the process instead of exiting 2 with a schema error.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting exceeds {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            if map.insert(key.clone(), val).is_some() {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
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
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uXXXX` with a low surrogate.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(ch);
                        }
                        other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8; find the char boundary).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match s.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Num(x)),
            _ => Err(self.err(format!("invalid number `{s}`"))),
        }
    }
}

/// Largest integer a JSON number (an `f64`) carries exactly; integer
/// fields beyond it are rejected rather than silently rounded.
pub const MAX_EXACT_INT: u64 = 1 << 53;

/// `v` as a whole number in `[0, 2^53]`, if it is one.
pub fn whole(v: &Value) -> Option<u64> {
    let x = v.as_f64()?;
    (x >= 0.0 && x.fract() == 0.0 && x <= MAX_EXACT_INT as f64).then_some(x as u64)
}

/// `v` as a `u64` word written `"0x"` + 16 hex digits, if it is one — the
/// spelling for integers that an `f64` cannot carry exactly.
pub fn hex_word(v: &Value) -> Option<u64> {
    let digits = v.as_str()?.strip_prefix("0x")?;
    if digits.len() != 16 || !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(digits, 16).ok()
}

/// The fail-closed field reader every untrusted document goes through
/// (result-JSON v1 envelopes, `pp-serve` requests, events, job specs and
/// snapshot files), so each type and bound rule lives here once.
///
/// Construction rejects a non-object and any key outside the document's
/// known set; a known set that contains `schema_version` also requires
/// `"schema_version": 1`. Every accessor reads a required field unless
/// it says otherwise, and its error names the field and the document.
#[derive(Debug)]
pub struct Fields<'a> {
    map: &'a BTreeMap<String, Value>,
    what: String,
}

/// The non-empty string `key` of a tagged document (a request's `op`, an
/// event's `event`), read before the tag selects the known key set.
///
/// # Errors
///
/// Returns an error if `doc` is not an object or `key` is not a
/// non-empty string.
pub fn tag<'a>(doc: &'a Value, what: &str, key: &str) -> Result<&'a str, String> {
    Fields::open(doc, what.to_string())?.str(key)
}

impl<'a> Fields<'a> {
    fn open(doc: &'a Value, what: String) -> Result<Self, String> {
        match doc {
            Value::Obj(map) => Ok(Fields { map, what }),
            _ => Err(format!("{what} must be a JSON object")),
        }
    }

    /// Opens `doc` as the object `what` whose keys are all in `known`.
    ///
    /// # Errors
    ///
    /// Returns an error for a non-object, an unknown key, or (when `known`
    /// lists `schema_version`) a version other than 1.
    pub fn new(doc: &'a Value, what: impl Into<String>, known: &[&str]) -> Result<Self, String> {
        let f = Fields::open(doc, what.into())?;
        if let Some(key) = f.map.keys().find(|k| !known.contains(&k.as_str())) {
            return Err(format!("unknown field `{key}` in {}", f.what));
        }
        if known.contains(&"schema_version") && f.uint("schema_version") != Ok(1) {
            return Err(format!("{} must carry `\"schema_version\": 1`", f.what));
        }
        Ok(f)
    }

    /// Whether `key` is present (with any value).
    pub fn has(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    /// The optional field `key`, unless it is absent or `null`.
    pub fn opt(&self, key: &str) -> Option<&'a Value> {
        self.map.get(key).filter(|v| **v != Value::Null)
    }

    /// The raw value of `key`.
    pub fn field(&self, key: &str) -> Result<&'a Value, String> {
        self.map
            .get(key)
            .ok_or_else(|| format!("missing field `{key}` in {}", self.what))
    }

    /// `key` converted by `read`; `want` names the accepted values.
    pub fn read<T>(
        &self,
        key: &str,
        want: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        read(self.field(key)?)
            .ok_or_else(|| format!("field `{key}` in {} must be {want}", self.what))
    }

    /// The non-empty string `key`.
    pub fn str(&self, key: &str) -> Result<&'a str, String> {
        self.read(key, "a non-empty string", |v| {
            v.as_str().filter(|s| !s.is_empty())
        })
    }

    /// `key` as `null` (`None`) or a non-empty string.
    pub fn str_or_null(&self, key: &str) -> Result<Option<&'a str>, String> {
        match self.field(key)? {
            Value::Null => Ok(None),
            _ => self.str(key).map(Some),
        }
    }

    /// The [`whole`] number `key`.
    pub fn uint(&self, key: &str) -> Result<u64, String> {
        self.read(key, "a whole number up to 2^53", whole)
    }

    /// The [`whole`] number `key`, within `[lo, hi]`.
    pub fn uint_in(&self, key: &str, lo: u64, hi: u64) -> Result<u64, String> {
        match self.uint(key)? {
            x if (lo..=hi).contains(&x) => Ok(x),
            x => Err(format!(
                "field `{key}` in {} must be in [{lo}, {hi}], got {x}",
                self.what
            )),
        }
    }

    /// The boolean `key`; when absent it reads as `default`, if given.
    pub fn bool_or(&self, key: &str, default: Option<bool>) -> Result<bool, String> {
        match (self.map.get(key), default) {
            (None, Some(d)) => Ok(d),
            _ => self.read(key, "a boolean", |v| match v {
                Value::Bool(b) => Some(*b),
                _ => None,
            }),
        }
    }

    /// The [`hex_word`] `key`.
    pub fn hex(&self, key: &str) -> Result<u64, String> {
        self.read(key, "a 0x-prefixed 16-digit hex string", hex_word)
    }

    /// The array `key`, each element converted by `read` (`want` names
    /// the accepted elements).
    pub fn array<T>(
        &self,
        key: &str,
        want: &str,
        read: impl Fn(&'a Value) -> Option<T>,
    ) -> Result<Vec<T>, String> {
        let items = self.read(key, "an array", Value::as_arr)?;
        items
            .iter()
            .enumerate()
            .map(|(i, v)| {
                read(v).ok_or_else(|| format!("`{key}[{i}]` in {} must be {want}", self.what))
            })
            .collect()
    }
}

fn is_cell(v: &Value) -> bool {
    matches!(v, Value::Num(_) | Value::Str(_))
}

/// Validates a parsed document against the result-JSON v1 schema.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_v1(doc: &Value) -> Result<(), String> {
    let f = Fields::new(
        doc,
        "result-JSON v1 document",
        &[
            "schema_version",
            "name",
            "title",
            "engine",
            "preset",
            "params",
            "columns",
            "rows",
            "notes",
            "wall_ms",
            "steps_per_sec",
            "runner_class",
            "recorder",
        ],
    )?;
    for key in ["name", "title", "preset"] {
        f.str(key)?;
    }
    f.str_or_null("engine")?;
    f.read("params", "an object of numbers or strings", |v| match v {
        Value::Obj(m) => m.values().all(is_cell).then_some(()),
        _ => None,
    })?;
    let columns = f.array("columns", "a string", Value::as_str)?.len();
    if columns == 0 {
        return Err("field `columns` must be a non-empty string array".into());
    }
    let row = format!("an array of {columns} numbers or strings");
    f.array("rows", &row, |r| {
        r.as_arr()
            .filter(|cells| cells.len() == columns && cells.iter().all(is_cell))
    })?;
    f.array("notes", "a string", Value::as_str)?;
    f.read("wall_ms", "a non-negative number", |v| {
        v.as_f64().filter(|x| *x >= 0.0)
    })?;
    f.read(
        "steps_per_sec",
        "a non-negative number or null",
        |v| match v {
            Value::Null => Some(()),
            _ => v.as_f64().filter(|x| *x >= 0.0).map(drop),
        },
    )?;
    if f.has("runner_class") {
        f.str_or_null("runner_class")?;
    }
    f.read("recorder", "an object or null", |v| {
        matches!(v, Value::Obj(_) | Value::Null).then_some(())
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_v1() -> String {
        concat!(
            "{\"schema_version\":1,\"name\":\"t0_demo\",\"title\":\"demo\",",
            "\"engine\":null,\"preset\":\"quick\",\"params\":{\"n\":100},",
            "\"columns\":[\"n\",\"err\"],\"rows\":[[100,0.5],[\"big\",1]],",
            "\"notes\":[],\"wall_ms\":1.5,\"steps_per_sec\":null,\"recorder\":null}"
        )
        .to_string()
    }

    #[test]
    fn parses_scalars_arrays_objects() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -1.5e3 ").unwrap(), Value::Num(-1500.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
        assert_eq!(
            parse("[1, \"x\", []]").unwrap(),
            Value::Arr(vec![
                Value::Num(1.0),
                Value::Str("x".into()),
                Value::Arr(vec![])
            ])
        );
        let obj = parse("{\"a\": {\"b\": 2}}").unwrap();
        assert_eq!(obj.get("a").unwrap().get("b").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Value::Str("é".into()));
        // Surrogate pair → astral code point.
        assert_eq!(
            parse("\"\\ud83e\\udd80\"").unwrap(),
            Value::Str("🦀".into())
        );
        assert_eq!(parse("\"\\u0001\"").unwrap(), Value::Str("\u{1}".into()));
        assert!(parse("\"\\ud83e\"").is_err(), "lone surrogate must fail");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "nulll",
            "01a",
            "\"unterminated",
            "{\"a\":1}{",
            "{\"a\":1,\"a\":2}",
            "\"bad \\q escape\"",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        // Regression: 10k-deep nesting used to recurse 10k frames and
        // abort the process (SIGSEGV) instead of returning Err; the depth
        // limit turns it into an ordinary schema error (exit 2 path).
        let deep_arrays = "[".repeat(10_000) + &"]".repeat(10_000);
        let err = parse(&deep_arrays).expect_err("depth limit must reject");
        assert!(err.msg.contains("nesting exceeds"), "got: {err}");

        let deep_objects = "{\"k\":".repeat(10_000) + "1" + &"}".repeat(10_000);
        assert!(parse(&deep_objects).is_err());

        // Just inside the limit still parses: the bound rejects hostile
        // inputs, not real envelopes (recorder dumps nest ~4 deep).
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        parse(&ok).expect("MAX_DEPTH levels must be accepted");
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&over).is_err());
    }

    #[test]
    fn depth_resets_between_siblings() {
        // Sequential (non-nested) containers must not accumulate depth.
        let many_siblings = format!("[{}]", vec!["[[]]"; 500].join(","));
        parse(&many_siblings).expect("sibling containers share no depth");
    }

    #[test]
    fn accepts_minimal_v1() {
        let doc = parse(&minimal_v1()).unwrap();
        validate_v1(&doc).unwrap();
    }

    #[test]
    fn rejects_schema_violations() {
        let violations = [
            (
                "\"schema_version\":1",
                "\"schema_version\":2",
                "schema_version",
            ),
            ("\"name\":\"t0_demo\"", "\"name\":\"\"", "name"),
            ("\"engine\":null", "\"engine\":7", "engine"),
            ("\"params\":{\"n\":100}", "\"params\":[]", "params"),
            ("\"columns\":[\"n\",\"err\"]", "\"columns\":[]", "columns"),
            (
                "\"rows\":[[100,0.5],[\"big\",1]]",
                "\"rows\":[[100]]",
                "rows",
            ),
            ("\"notes\":[]", "\"notes\":[1]", "notes"),
            ("\"wall_ms\":1.5", "\"wall_ms\":\"fast\"", "wall_ms"),
            ("\"recorder\":null", "\"recorder\":[]", "recorder"),
        ];
        for (from, to, what) in violations {
            let doc = parse(&minimal_v1().replace(from, to)).unwrap();
            assert!(validate_v1(&doc).is_err(), "accepted bad {what}");
        }
        // Unknown fields are schema drift.
        let doc = parse(&minimal_v1().replace("\"wall_ms\"", "\"walltime\"")).unwrap();
        assert!(validate_v1(&doc).is_err(), "accepted unknown field");
    }

    #[test]
    fn runner_class_is_optional_string_or_null() {
        // Absent (pre-label artifacts) and null both validate.
        let doc = parse(&minimal_v1()).unwrap();
        validate_v1(&doc).unwrap();
        let with = |v: &str| {
            minimal_v1().replace(
                "\"steps_per_sec\":null",
                &format!("\"steps_per_sec\":null,\"runner_class\":{v}"),
            )
        };
        validate_v1(&parse(&with("null")).unwrap()).unwrap();
        validate_v1(&parse(&with("\"ci-4core\"")).unwrap()).unwrap();
        assert!(validate_v1(&parse(&with("\"\"")).unwrap()).is_err());
        assert!(validate_v1(&parse(&with("7")).unwrap()).is_err());
        assert!(validate_v1(&parse(&with("[]")).unwrap()).is_err());
    }
}
