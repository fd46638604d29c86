//! A minimal, dependency-free JSON reader/writer.
//!
//! The workspace has no registry access, so the service wire format and
//! the schedule serde in [`crate::wire`] are hand-rolled on this module
//! (the same way `perf_report` hand-writes its report). The subset is
//! full JSON minus one deliberate restriction: numbers are parsed into
//! `f64`, which is exact for the integers this workspace produces
//! (`u32` ids, counts) and for every float the writers emit.
//!
//! Writing is canonical: [`fmt_f64`] uses Rust's shortest round-trip
//! `Display`, object keys keep insertion order, and no whitespace is
//! emitted. Serialising, parsing and re-serialising any [`Value`] is
//! byte-identical, which the service relies on for cache-hit byte
//! equality checks.

use std::fmt;

/// A parsed JSON value. Objects preserve key order (insertion order when
/// built, source order when parsed).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (ordered key/value pairs).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as `u32` if it fits.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|v| u32::try_from(v).ok())
    }

    /// The value as `usize` if it fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises canonically (no whitespace, insertion-ordered keys).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => out.push_str(&fmt_f64(*n)),
            Value::Str(s) => write_json_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Canonical float formatting: Rust's shortest round-trip `Display`,
/// which is valid JSON for every finite value.
///
/// # Panics
///
/// Panics on non-finite input — JSON has no representation for it, and no
/// schedule or report in this workspace produces one.
pub fn fmt_f64(v: f64) -> String {
    assert!(v.is_finite(), "cannot serialise non-finite number to JSON");
    format!("{v}")
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Escapes `s` into a standalone quoted JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_str(&mut out, s);
    out
}

/// Error from [`parse`], with a byte offset into the source.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting [`parse`] accepts. The parser recurses per
/// level, and daemon connection handlers feed it untrusted network
/// lines; an unbounded depth would let `[[[[…` overflow the thread
/// stack and abort the whole process. Every document this workspace
/// emits nests a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected; containers may nest at most [`MAX_DEPTH`] deep).
pub fn parse(src: &str) -> Result<Value, JsonError> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(value)
}

fn err(offset: usize, message: &str) -> JsonError {
    JsonError {
        offset,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    skip_ws(bytes, pos);
    if depth > MAX_DEPTH {
        return Err(err(*pos, "nesting deeper than 128 levels"));
    }
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => literal(bytes, pos, "null", Value::Null),
        Some(b't') => literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected `,` or `]`")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected `:`"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return Err(err(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn literal(bytes: &[u8], pos: &mut usize, text: &str, value: Value) -> Result<Value, JsonError> {
    if bytes[*pos..].starts_with(text.as_bytes()) {
        *pos += text.len();
        Ok(value)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number chars");
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| err(start, "invalid number"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
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
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let first = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&first) {
                            // High surrogate: require the paired escape.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err(err(*pos, "unpaired surrogate"));
                            }
                            *pos += 2;
                            let second = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&second) {
                                return Err(err(*pos, "invalid low surrogate"));
                            }
                            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                        } else if (0xDC00..0xE000).contains(&first) {
                            return Err(err(*pos, "unpaired surrogate"));
                        } else {
                            first
                        };
                        out.push(char::from_u32(code).ok_or_else(|| err(*pos, "bad codepoint"))?);
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(err(*pos, "control character in string")),
            Some(_) => {
                // Copy the run up to the next `"`, `\` or control byte at
                // once. It starts and ends at ASCII bytes of a `&str`, so
                // it is valid UTF-8 on its own.
                let start = *pos;
                while bytes
                    .get(*pos)
                    .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
                {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("run of a &str"));
            }
        }
    }
}

/// Parses the 4 hex digits after `\u`; `pos` points at the `u` on entry
/// and at the final digit on exit.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let start = *pos + 1;
    let end = start + 4;
    if end > bytes.len() {
        return Err(err(*pos, "truncated \\u escape"));
    }
    let text = std::str::from_utf8(&bytes[start..end]).map_err(|_| err(start, "bad hex"))?;
    let v = u32::from_str_radix(text, 16).map_err(|_| err(start, "bad hex"))?;
    *pos = end - 1;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Num(-1250.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&Value::Null));
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let src = r#"{"s":"a\"b\\c\nd","n":0.5,"i":12345,"neg":-7,"arr":[true,false,null],"nested":{"x":1e-7}}"#;
        let v = parse(src).unwrap();
        let once = v.to_json();
        let twice = parse(&once).unwrap().to_json();
        assert_eq!(once, twice);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "tab\t newline\n quote\" backslash\\ unicode \u{1F600} ctrl\u{01}";
        let encoded = json_str(original);
        let back = parse(&encoded).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("'single'").is_err());
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Comfortably deep documents parse…
        let deep_ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&deep_ok).is_ok());
        // …but adversarial nesting returns an error instead of blowing
        // the connection handler's stack.
        let bomb = "[".repeat(100_000);
        let e = parse(&bomb).unwrap_err();
        assert!(e.message.contains("nesting"));
        let obj_bomb = "{\"a\":".repeat(5_000);
        assert!(parse(&obj_bomb).is_err());
    }

    #[test]
    fn integral_accessors_guard_ranges() {
        assert_eq!(parse("42").unwrap().as_u32(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("4294967296").unwrap().as_u32(), None);
        assert_eq!(parse("4294967296").unwrap().as_u64(), Some(1 << 32));
    }

    #[test]
    fn integers_format_without_fraction() {
        assert_eq!(fmt_f64(100.0), "100");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(Value::Num(3.0).to_json(), "3");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_panics() {
        fmt_f64(f64::NAN);
    }

    /// Request lines, store blobs and shard replies are untrusted, so
    /// parse time must be linear: doubling a long string, a long array
    /// or a wide object may cost at most 2.5×. Each input grows until it
    /// takes at least 1 ms, and each side of a round is the minimum of 5
    /// interleaved timings. Other threads can steal the CPU for a whole
    /// round, so a shape gets up to 10 rounds to show one clean ratio; a
    /// quadratic parser fails every round.
    #[test]
    fn doubling_the_input_at_most_doubles_parse_time() {
        use std::fmt::Write as _;
        use std::time::{Duration, Instant};

        fn time(src: &str) -> Duration {
            let started = Instant::now();
            std::hint::black_box(parse(std::hint::black_box(src)).expect("valid JSON"));
            started.elapsed()
        }
        let string = |n: usize| format!("\"{}\"", "ab\u{e9}\\n".repeat(n));
        let array = |n: usize| format!("[{}0]", "12,".repeat(n));
        let object = |n: usize| {
            let mut out = String::from("{");
            for i in 0..n {
                write!(out, "\"k{i}\":{i},").expect("write to String");
            }
            out + "\"end\":0}"
        };
        let shapes: [(&str, &dyn Fn(usize) -> String); 3] =
            [("string", &string), ("array", &array), ("object", &object)];
        for (shape, build) in shapes {
            let mut n = 1024;
            while (0..3).map(|_| time(&build(n))).min() < Some(Duration::from_millis(1)) {
                n *= 2;
            }
            let (small, large) = (build(n), build(2 * n));
            let mut rounds = Vec::new();
            while rounds.len() < 10 && rounds.last().is_none_or(|&(ratio, _, _)| ratio > 2.5) {
                let (mut t_small, mut t_large) = (Duration::MAX, Duration::MAX);
                for _ in 0..5 {
                    t_small = t_small.min(time(&small));
                    t_large = t_large.min(time(&large));
                }
                rounds.push((
                    t_large.as_secs_f64() / t_small.as_secs_f64(),
                    t_small,
                    t_large,
                ));
            }
            assert!(
                rounds.last().is_some_and(|&(ratio, _, _)| ratio <= 2.5),
                "{shape}: {} then {} bytes, (ratio, times) per round: {rounds:?}",
                small.len(),
                large.len()
            );
        }
    }
}
