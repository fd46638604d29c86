//! A minimal, dependency-free JSON reader/writer.
//!
//! The workspace has no registry access, so the service wire format and
//! the schedule serde in [`crate::wire`] are hand-rolled on this module
//! (the same way `perf_report` hand-writes its report). The subset is
//! full JSON minus one deliberate restriction: numbers are parsed into
//! `f64`, which is exact for the integers this workspace produces
//! (`u32` ids, counts) and for every float the writers emit.
//!
//! Reading has one tokenizer, the pull [`Reader`]. It owns whitespace,
//! literals, the number lexer, the string decoder, a validating skip
//! and the [`MAX_DEPTH`] bound. The schedule decoder in [`crate::wire`]
//! and the service's request decoder pull from it straight into their
//! own types, with no tree in between, and strings without escapes are
//! borrowed from the source. [`parse`] builds a [`Value`] tree on the
//! same reader for the cold callers: shard merges, the CLI, reports and
//! tests.
//!
//! Writing is canonical: [`fmt_f64`] uses Rust's shortest round-trip
//! `Display`, object keys keep insertion order, and no whitespace is
//! emitted. Serialising, parsing and re-serialising any [`Value`] is
//! byte-identical, which the service relies on for cache-hit byte
//! equality checks.

use std::borrow::Cow;
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
        self.as_f64().and_then(integral)
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

/// Error from [`parse`] or a [`Reader`], with a byte offset into the
/// source.
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

/// Maximum nesting depth a [`Reader`] accepts: a value more than
/// `MAX_DEPTH` containers deep is an error, while an empty container at
/// that depth is not. [`parse`] recurses per level, and daemon connection
/// handlers feed it untrusted network lines; an unbounded depth would
/// let `[[[[…` overflow the thread stack and abort the whole process.
/// Every document this workspace emits nests a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected; containers may nest at most [`MAX_DEPTH`] deep).
pub fn parse(src: &str) -> Result<Value, JsonError> {
    let mut reader = Reader::new(src);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

#[cold]
#[inline(never)]
fn err(offset: usize, message: &str) -> JsonError {
    JsonError {
        offset,
        message: message.to_string(),
    }
}

/// What the next value is, judged by its first byte. Anything that does
/// not open a literal, string or container lexes as a number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// One value read shallowly by [`Reader::item`]: a scalar with its
/// payload, or a validated container as its source text, which
/// [`Item::as_arr`] and [`Item::as_obj`] walk again.
#[derive(Debug, Clone, PartialEq)]
pub enum Item<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, borrowed from the source unless it holds an escape.
    Str(Cow<'a, str>),
    /// An array's source text.
    Arr(&'a str),
    /// An object's source text.
    Obj(&'a str),
}

/// A non-negative integral `n` up to 2⁵³ (where `f64` stops being exact).
fn integral(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as u64)
}

impl<'a> Item<'a> {
    /// The item as `f64` if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Item::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The item as `u64` if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(integral)
    }

    /// The item as `u32` if it fits.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|v| u32::try_from(v).ok())
    }

    /// The item as `usize` if it fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The item as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Item::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The item as a bool if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Item::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A reader at the array if the item is one.
    pub fn as_arr(&self) -> Option<Reader<'a>> {
        match self {
            Item::Arr(text) => Some(Reader::new(text)),
            _ => None,
        }
    }

    /// A reader at the object if the item is one.
    pub fn as_obj(&self) -> Option<Reader<'a>> {
        match self {
            Item::Obj(text) => Some(Reader::new(text)),
            _ => None,
        }
    }
}

/// A value read by [`Reader::head`], with arrays opened one level.
#[derive(Debug, Clone, PartialEq)]
pub enum Head<'a, const N: usize> {
    /// An array: its length and its first `N` elements (items past the
    /// length are `Null`).
    Arr(usize, [Item<'a>; N]),
    /// Any other value.
    Other(Item<'a>),
}

/// Powers of ten that are exact in an `f64`, up to the most fraction
/// digits the short-decimal fast path of [`Reader`] takes.
const POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// The value of `-?[0-9]*.?[0-9]*` with 1 to 15 digits, or `None` for
/// any other text, which `str::parse::<f64>` reads instead. The digits
/// form an integer below 2⁵³ and the scale is a power of ten exact in an
/// `f64`, so one division rounds correctly and gives the bits
/// `str::parse` gives (Clinger's fast path, which it takes too).
#[inline]
fn short_decimal(text: &[u8]) -> Option<f64> {
    let (negative, digits) = match text.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, text),
    };
    let (mut mantissa, mut count, mut fraction, mut point) = (0u64, 0usize, 0usize, false);
    for &b in digits {
        match b {
            b'0'..=b'9' if count < 15 => {
                mantissa = mantissa * 10 + u64::from(b - b'0');
                count += 1;
                fraction += usize::from(point);
            }
            b'.' if !point => point = true,
            _ => return None,
        }
    }
    if count == 0 {
        return None;
    }
    let value = if fraction == 0 {
        mantissa as f64
    } else {
        mantissa as f64 / POW10[fraction]
    };
    Some(if negative { -value } else { value })
}

/// A pull reader over one JSON document: the one JSON tokenizer of the
/// workspace. It owns whitespace, literals, numbers, strings, a
/// validating [`Reader::skip`] and the [`MAX_DEPTH`] bound, and it
/// reports every error with the offset and message [`parse`] gives.
///
/// The caller drives it value by value: [`Reader::peek`] tells what
/// comes next; [`Reader::item`] reads a scalar or skips a container;
/// [`Reader::begin_array`] and [`Reader::next_element`], or
/// [`Reader::begin_object`] and [`Reader::next_key`], walk a container,
/// and each element or key's value must be read or skipped before the
/// next. [`Reader::finish`] rejects trailing characters.
///
/// ```
/// use qpilot_core::json::{Kind, Reader};
///
/// let mut r = Reader::new(r#"{"xs":[1,2.5],"tag":"a"}"#);
/// r.begin_object().unwrap();
/// let mut sum = 0.0;
/// while let Some(key) = r.next_key().unwrap() {
///     if key == "xs" && r.peek().unwrap() == Kind::Arr {
///         r.begin_array().unwrap();
///         while r.next_element().unwrap() {
///             sum += r.item().unwrap().as_f64().unwrap();
///         }
///     } else {
///         r.skip().unwrap();
///     }
/// }
/// r.finish().unwrap();
/// assert_eq!(sum, 3.5);
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// Depth of the next value: 0 at the top, one more inside each open
    /// container.
    depth: usize,
    /// A container was just opened, so its first element or key, or its
    /// close, comes next.
    opened: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Reader<'a> {
        Reader {
            src,
            pos: 0,
            depth: 0,
            opened: false,
        }
    }

    #[inline]
    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    #[inline]
    fn skip_ws(&mut self) {
        let bytes = self.bytes();
        while self.pos < bytes.len() && matches!(bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    /// What the next value is. Fails when the value would sit deeper
    /// than [`MAX_DEPTH`] or the input ends.
    #[inline]
    pub fn peek(&mut self) -> Result<Kind, JsonError> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(err(self.pos, "nesting deeper than 128 levels"));
        }
        Ok(match self.bytes().get(self.pos) {
            None => return Err(err(self.pos, "unexpected end of input")),
            Some(b'n') => Kind::Null,
            Some(b't' | b'f') => Kind::Bool,
            Some(b'"') => Kind::Str,
            Some(b'[') => Kind::Arr,
            Some(b'{') => Kind::Obj,
            Some(_) => Kind::Num,
        })
    }

    /// Opens the array the next value must be.
    #[inline]
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(Kind::Arr)
    }

    /// Opens the object the next value must be.
    #[inline]
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(Kind::Obj)
    }

    #[inline]
    fn open(&mut self, kind: Kind) -> Result<(), JsonError> {
        if self.peek()? != kind {
            return Err(err(self.pos, "expected a container"));
        }
        self.enter();
        Ok(())
    }

    /// Steps into the container whose opening byte [`Reader::peek`]
    /// just found.
    #[inline]
    fn enter(&mut self) {
        self.pos += 1;
        self.depth += 1;
        self.opened = true;
    }

    #[inline]
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
        self.opened = false;
    }

    /// Moves to the next element of the innermost open array: `true`
    /// when one follows, `false` once the array has closed.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        let next = self.bytes().get(self.pos);
        if std::mem::take(&mut self.opened) {
            if next == Some(&b']') {
                self.close();
                return Ok(false);
            }
            return Ok(true);
        }
        match next {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b']') => {
                self.close();
                Ok(false)
            }
            _ => Err(err(self.pos, "expected `,` or `]`")),
        }
    }

    /// The next key of the innermost open object, escapes decoded, or
    /// `None` once the object has closed. Its value comes next.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.advance_to_key()? {
            return Ok(None);
        }
        let key = self.string()?;
        self.colon()?;
        Ok(Some(key))
    }

    /// Moves past the `{` or `,` before the next key: `false` once the
    /// object has closed.
    #[inline]
    fn advance_to_key(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        let next = self.bytes().get(self.pos);
        if std::mem::take(&mut self.opened) {
            if next == Some(&b'}') {
                self.close();
                return Ok(false);
            }
        } else {
            match next {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.close();
                    return Ok(false);
                }
                _ => return Err(err(self.pos, "expected `,` or `}`")),
            }
        }
        self.skip_ws();
        Ok(true)
    }

    #[inline]
    fn colon(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.bytes().get(self.pos) != Some(&b':') {
            return Err(err(self.pos, "expected `:`"));
        }
        self.pos += 1;
        Ok(())
    }

    /// Reads the next value: a scalar as itself, a container validated
    /// and kept as its source text.
    #[inline]
    pub fn item(&mut self) -> Result<Item<'a>, JsonError> {
        Ok(match self.peek()? {
            Kind::Null => {
                self.literal("null")?;
                Item::Null
            }
            Kind::Bool => Item::Bool(self.boolean()?),
            Kind::Num => Item::Num(self.number()?),
            Kind::Str => Item::Str(self.string()?),
            Kind::Arr => Item::Arr(self.skip()?),
            Kind::Obj => Item::Obj(self.skip()?),
        })
    }

    /// Reads the next value with an array opened one level: its length
    /// and its first `N` elements as items, the rest validated and
    /// skipped. Any other value comes back as an item.
    pub fn head<const N: usize>(&mut self) -> Result<Head<'a, N>, JsonError> {
        if self.peek()? != Kind::Arr {
            return self.item().map(Head::Other);
        }
        self.enter();
        let mut items = std::array::from_fn(|_| Item::Null);
        let mut len = 0;
        while self.next_element()? {
            match items.get_mut(len) {
                Some(slot) => *slot = self.item()?,
                None => {
                    self.skip()?;
                }
            }
            len += 1;
        }
        Ok(Head::Arr(len, items))
    }

    /// Validates the next value without building it and returns its
    /// source text.
    pub fn skip(&mut self) -> Result<&'a str, JsonError> {
        let kind = self.peek()?;
        let start = self.pos;
        match kind {
            Kind::Null => self.literal("null")?,
            Kind::Bool => {
                self.boolean()?;
            }
            Kind::Num => {
                self.number()?;
            }
            Kind::Str => {
                self.pos += 1;
                self.string_tail(None)?;
            }
            Kind::Arr => {
                self.enter();
                while self.next_element()? {
                    self.skip()?;
                }
            }
            Kind::Obj => {
                self.enter();
                while self.advance_to_key()? {
                    if self.bytes().get(self.pos) != Some(&b'"') {
                        return Err(err(self.pos, "expected string"));
                    }
                    self.pos += 1;
                    self.string_tail(None)?;
                    self.colon()?;
                    self.skip()?;
                }
            }
        }
        Ok(&self.src[start..self.pos])
    }

    /// Reads the next value into a [`Value`] tree.
    pub fn value(&mut self) -> Result<Value, JsonError> {
        Ok(match self.peek()? {
            Kind::Arr => {
                self.enter();
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Value::Arr(items)
            }
            Kind::Obj => {
                self.enter();
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    pairs.push((key.into_owned(), value));
                }
                Value::Obj(pairs)
            }
            Kind::Null => {
                self.literal("null")?;
                Value::Null
            }
            Kind::Bool => Value::Bool(self.boolean()?),
            Kind::Num => Value::Num(self.number()?),
            Kind::Str => Value::Str(self.string()?.into_owned()),
        })
    }

    /// Ends the document: only whitespace may follow the value read.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(err(self.pos, "trailing characters"));
        }
        Ok(())
    }

    fn literal(&mut self, text: &str) -> Result<(), JsonError> {
        if self.bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(err(self.pos, "invalid literal"))
        }
    }

    fn boolean(&mut self) -> Result<bool, JsonError> {
        let value = self.bytes()[self.pos] == b't';
        self.literal(if value { "true" } else { "false" })?;
        Ok(value)
    }

    /// An optional `-`, then the run of `[0-9.eE+-]`, read by
    /// `str::parse::<f64>`: lenient about `+1`, `.5`, `1.` and `007`, and
    /// `1e999` reads as infinity, for the schema checks to judge.
    #[inline]
    fn number(&mut self) -> Result<f64, JsonError> {
        let bytes = self.bytes();
        let start = self.pos;
        if bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self.pos < bytes.len()
            && matches!(
                bytes[self.pos],
                b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'
            )
        {
            self.pos += 1;
        }
        match short_decimal(&bytes[start..self.pos]) {
            Some(value) => Ok(value),
            None => self.src[start..self.pos]
                .parse::<f64>()
                .map_err(|_| err(start, "invalid number")),
        }
    }

    /// Reads a string, borrowed from the source when it holds no escape.
    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        if self.bytes().get(self.pos) != Some(&b'"') {
            return Err(err(self.pos, "expected string"));
        }
        self.pos += 1;
        let start = self.pos;
        self.run();
        if self.bytes().get(self.pos) == Some(&b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.src[start..self.pos - 1]));
        }
        let mut out = String::from(&self.src[start..self.pos]);
        self.string_tail(Some(&mut out))?;
        Ok(Cow::Owned(out))
    }

    /// Moves past the run of bytes up to the next `"`, `\` or control
    /// byte. It starts and ends at ASCII bytes of a `&str`, so it is
    /// valid UTF-8 on its own.
    #[inline]
    fn run(&mut self) {
        let rest = &self.bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
    }

    /// Reads the rest of a string through its closing quote, decoding
    /// escapes and surrogate pairs into `out` when one is given and only
    /// validating them otherwise.
    fn string_tail(&mut self, mut out: Option<&mut String>) -> Result<(), JsonError> {
        let bytes = self.bytes();
        loop {
            match bytes.get(self.pos) {
                None => return Err(err(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{08}',
                        Some(b'f') => '\u{0c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(err(self.pos, "invalid escape")),
                    };
                    if let Some(out) = out.as_deref_mut() {
                        out.push(c);
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => return Err(err(self.pos, "control character in string")),
                Some(_) => {
                    let start = self.pos;
                    self.run();
                    if let Some(out) = out.as_deref_mut() {
                        out.push_str(&self.src[start..self.pos]);
                    }
                }
            }
        }
    }

    /// Decodes a `\u` escape (a surrogate pair takes two); `pos` points at
    /// the `u` on entry and at the final hex digit on exit.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let bytes = self.bytes();
        let first = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&first) {
            // High surrogate: require the paired escape.
            if bytes.get(self.pos + 1) != Some(&b'\\') || bytes.get(self.pos + 2) != Some(&b'u') {
                return Err(err(self.pos, "unpaired surrogate"));
            }
            self.pos += 2;
            let second = self.hex4()?;
            if !(0xDC00..0xE000).contains(&second) {
                return Err(err(self.pos, "invalid low surrogate"));
            }
            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
        } else if (0xDC00..0xE000).contains(&first) {
            return Err(err(self.pos, "unpaired surrogate"));
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| err(self.pos, "bad codepoint"))
    }

    /// Parses the 4 hex digits after `\u`; `pos` points at the `u` on
    /// entry and at the final digit on exit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let bytes = self.bytes();
        let start = self.pos + 1;
        let end = start + 4;
        if end > bytes.len() {
            return Err(err(self.pos, "truncated \\u escape"));
        }
        let text = std::str::from_utf8(&bytes[start..end]).map_err(|_| err(start, "bad hex"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| err(start, "bad hex"))?;
        self.pos = end - 1;
        Ok(v)
    }
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

    /// The short-decimal fast path gives the bits `str::parse` gives. A
    /// million strings over the number lexer's alphabet, mostly digits
    /// with a point and a sign here and there, each read by the reader
    /// and by `str::parse`: the same value to the bit, or both errors.
    #[test]
    fn number_fast_path_matches_str_parse() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut fast, mut total) = (0, 1_000_000);
        let mut text = String::new();
        while total > 0 {
            total -= 1;
            text.clear();
            let r = next();
            if r & 3 == 0 {
                text.push('-');
            }
            for _ in 0..1 + (r >> 2) % 20 {
                let c = next() % 100;
                text.push(match c {
                    0..=84 => char::from(b'0' + (c % 10) as u8),
                    85..=95 => '.',
                    96 => '-',
                    97 => '+',
                    98 => 'e',
                    _ => 'E',
                });
            }
            fast += usize::from(short_decimal(text.as_bytes()).is_some());
            let ours = Reader::new(&text).item().map(|item| item.as_f64());
            match (ours, text.parse::<f64>()) {
                (Ok(Some(a)), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{text}"),
                (Err(_), Err(_)) => {}
                (ours, theirs) => panic!("{text}: reader {ours:?}, str::parse {theirs:?}"),
            }
        }
        assert!(fast > 300_000, "only {fast} strings took the fast path");
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
