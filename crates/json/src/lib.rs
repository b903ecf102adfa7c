//! # hpf-json — the one JSON codec
//!
//! Every artifact this workspace exports (trace and bus JSONL, metrics
//! snapshots, post-mortems, drift reports, bench records, the HTTP
//! bodies) is written and read through the three things in this file,
//! over one strict grammar: RFC 8259, exactly one top-level value, no
//! `NaN`/`Infinity` literals, surrogate pairs checked, nesting bounded
//! by [`MAX_DEPTH`], errors carrying the byte offset of the first
//! problem.
//!
//! - **write** — [`Obj`] and [`Arr`] append to a `String`: they own the
//!   commas, quote the keys, escape every string and close on drop.
//!   [`escape_into`] and [`f64_into`] (non-finite → `null`) are what
//!   they are made of.
//! - **read** — [`parse`] builds a borrowed [`Value`]: numbers keep
//!   their text (a `u64` counter never goes through `f64`), strings
//!   borrow unless they held an escape, members stay in document order.
//! - **validate** — [`validate`] runs the same descent and builds
//!   nothing; exported traces are large.
//!
//! A type owns its format, this crate owns the grammar: each type keeps
//! its own `to_json` / `from_json` and decides there what it accepts
//! (unknown keys, missing members, schema markers). There is no derive,
//! no per-type trait, no pretty-printer and no configuration.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Maximum container nesting the reader will follow before rejecting
/// the document. Deeply nested arrays/objects are almost always hostile
/// or corrupt input, and an unbounded recursive-descent parser would
/// turn them into a stack overflow.
pub const MAX_DEPTH: usize = 128;

// ---------------------------------------------------------------------
// Write
// ---------------------------------------------------------------------

/// Append `s`, escaped for the inside of a JSON string literal (no
/// quotes), to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
    }
    out.push_str(&s[run..]);
}

/// Escape `s` for inclusion inside a JSON string literal (no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Append `v` as a JSON number; non-finite values become `null` (JSON
/// has no NaN/Infinity). Whole floats print without a fraction (`3`).
pub fn f64_into(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Format an `f64` as a JSON number; non-finite values become `null`.
pub fn json_f64(v: f64) -> String {
    let mut out = String::new();
    f64_into(&mut out, v);
    out
}

/// A JSON object being appended to a `String`: `{` on creation, one
/// `"key":value` per call with the commas in between, `}` on drop.
pub struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Obj<'a> {
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        Obj { out, first: true }
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        self.out.push('"');
        escape_into(self.out, key);
        self.out.push_str("\":");
        self.out
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        let out = self.key(key);
        out.push('"');
        escape_into(out, v);
        out.push('"');
        self
    }

    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// A number, or `null` when `v` is not finite.
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        f64_into(self.key(key), v);
        self
    }

    /// A finite `v` in the notation `text` spells it in (`{:.6}`,
    /// `{:.9e}`, ...); `null` otherwise.
    pub fn f64_as(&mut self, key: &str, v: f64, text: std::fmt::Arguments<'_>) -> &mut Self {
        let out = self.key(key);
        if v.is_finite() {
            let _ = out.write_fmt(text);
        } else {
            out.push_str("null");
        }
        self
    }

    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    pub fn null(&mut self, key: &str) -> &mut Self {
        self.key(key).push_str("null");
        self
    }

    /// Open a nested object under `key`; it closes when dropped.
    pub fn obj(&mut self, key: &str) -> Obj<'_> {
        Obj::new(self.key(key))
    }

    /// Open a nested array under `key`; it closes when dropped.
    pub fn arr(&mut self, key: &str) -> Arr<'_> {
        Arr::new(self.key(key))
    }
}

impl Drop for Obj<'_> {
    fn drop(&mut self) {
        self.out.push('}');
    }
}

/// A JSON array being appended to a `String`: `[` on creation, one
/// element per call with the separators in between, `]` on drop.
pub struct Arr<'a> {
    out: &'a mut String,
    first: bool,
    sep: &'static str,
}

impl<'a> Arr<'a> {
    pub fn new(out: &'a mut String) -> Self {
        out.push('[');
        Arr {
            out,
            first: true,
            sep: ",",
        }
    }

    /// Lay the elements out with `sep` (a comma, then whitespace)
    /// between them and that whitespace inside both brackets:
    /// `",\n"` gives one element per line. Call before the first
    /// element.
    pub fn separated_by(mut self, sep: &'static str) -> Self {
        debug_assert!(self.first && sep.starts_with(','));
        self.out.push_str(&sep[1..]);
        self.sep = sep;
        self
    }

    fn item(&mut self) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push_str(self.sep);
        }
        self.out
    }

    pub fn str(&mut self, v: &str) -> &mut Self {
        let out = self.item();
        out.push('"');
        escape_into(out, v);
        out.push('"');
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        let _ = write!(self.item(), "{v}");
        self
    }

    /// A number, or `null` when `v` is not finite.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        f64_into(self.item(), v);
        self
    }

    /// Open a nested object as the next element.
    pub fn obj(&mut self) -> Obj<'_> {
        Obj::new(self.item())
    }

    /// Open a nested array as the next element.
    pub fn arr(&mut self) -> Arr<'_> {
        Arr::new(self.item())
    }
}

impl Drop for Arr<'_> {
    fn drop(&mut self) {
        self.out.push_str(&self.sep[1..]);
        self.out.push(']');
    }
}

// ---------------------------------------------------------------------
// Read
// ---------------------------------------------------------------------

/// A parsed document, borrowing from its source text.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    Null,
    Bool(bool),
    /// The number's text, as written.
    Num(&'a str),
    /// Borrowed unless the literal held an escape.
    Str(Cow<'a, str>),
    Arr(Vec<Value<'a>>),
    /// Members in document order, duplicates kept.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

/// Parse exactly one JSON value out of `s`.
pub fn parse(s: &str) -> Result<Value<'_>, String> {
    Parser::new(s, true).document()
}

/// Check that `s` is exactly one well-formed JSON value: [`parse`]'s
/// descent, building nothing.
pub fn validate(s: &str) -> Result<(), String> {
    Parser::new(s, false).document().map(drop)
}

impl<'a> Value<'a> {
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An unsigned integer literal, read from its text (exact up to
    /// `u64::MAX`); `None` for fractions, exponents and negatives.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// Any number; the `null` that [`f64_into`] writes for a non-finite
    /// value reads back as NaN.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(text) => text.parse().ok(),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn items(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members of an object, in document order.
    pub fn members(&self) -> Option<&[(Cow<'a, str>, Value<'a>)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The first member called `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        let (_, v) = self.members()?.iter().find(|(k, _)| k == key)?;
        Some(v)
    }

    /// [`Value::get`] for a member the format requires.
    pub fn field(&self, key: &str) -> Result<&Value<'a>, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    pub fn str_of(&self, key: &str) -> Result<&str, String> {
        let v = self.field(key)?.as_str();
        v.ok_or_else(|| format!("field {key:?} is not a string"))
    }

    pub fn u64_of(&self, key: &str) -> Result<u64, String> {
        let v = self.field(key)?.as_u64();
        v.ok_or_else(|| format!("bad integer for {key:?}"))
    }

    pub fn f64_of(&self, key: &str) -> Result<f64, String> {
        let v = self.field(key)?.as_f64();
        v.ok_or_else(|| format!("bad number for {key:?}"))
    }

    pub fn items_of(&self, key: &str) -> Result<&[Value<'a>], String> {
        let v = self.field(key)?.items();
        v.ok_or_else(|| format!("field {key:?} is not an array"))
    }
}

/// The descent. With `build` off it checks the same grammar, leaves
/// every string and container it returns empty, and allocates nothing.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    build: bool,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, build: bool) -> Self {
        Parser { src, pos: 0, build }
    }

    fn document(mut self) -> Result<Value<'a>, String> {
        self.skip_ws();
        let value = self.value(0)?;
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(value)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// Does the input go on with `text` from here?
    fn at(&self, text: &str) -> bool {
        self.src.as_bytes()[self.pos..].starts_with(text.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value<'a>, String> {
        let pos = self.pos;
        if depth >= MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected byte {:?} at {pos}", c as char)),
            None => Err(format!("unexpected end of input at byte {pos}")),
        }
    }

    fn literal(&mut self, lit: &str, value: Value<'a>) -> Result<Value<'a>, String> {
        if !self.at(lit) {
            return Err(format!("bad literal at byte {}", self.pos));
        }
        self.pos += lit.len();
        Ok(value)
    }

    /// After a value inside a container: a comma (`false`, go on) or
    /// `close` (`true`, done).
    fn closes(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        let done = match self.peek() {
            Some(b',') => false,
            Some(c) if c == close => true,
            _ => {
                let (close, pos) = (close as char, self.pos);
                return Err(format!("expected ',' or '{close}' at byte {pos}"));
            }
        };
        self.pos += 1;
        Ok(done)
    }

    fn object(&mut self, depth: usize) -> Result<Value<'a>, String> {
        let mut members = Vec::new();
        self.pos += 1; // '{'
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(format!("expected object key at byte {}", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            if self.build {
                members.push((key, value));
            }
            if self.closes(b'}')? {
                return Ok(Value::Obj(members));
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value<'a>, String> {
        let mut items = Vec::new();
        self.pos += 1; // '['
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            let value = self.value(depth + 1)?;
            if self.build {
                items.push(value);
            }
            if self.closes(b']')? {
                return Ok(Value::Arr(items));
            }
        }
    }

    /// A string literal, unescaped: a slice of the source until the
    /// first escape, an owned copy from there on.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.pos += 1; // opening quote
        let mut run = self.pos;
        let mut owned: Option<String> = None;
        while let Some(c) = self.peek() {
            match c {
                b'"' => {
                    let tail = &self.src[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                        None if self.build => Cow::Borrowed(tail),
                        None => Cow::Borrowed(""),
                    });
                }
                b'\\' => {
                    let head = &self.src[run..self.pos];
                    self.pos += 1;
                    let c = self.escape_sequence()?;
                    if self.build {
                        let s = owned.get_or_insert_with(String::new);
                        s.push_str(head);
                        s.push(c);
                    }
                    run = self.pos;
                }
                0..=0x1f => return Err(format!("raw control byte in string at {}", self.pos)),
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    /// What follows a backslash, as the character it stands for.
    fn escape_sequence(&mut self) -> Result<char, String> {
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
            _ => return Err(format!("bad escape at byte {}", self.pos)),
        };
        self.pos += 1;
        Ok(c)
    }

    /// `uXXXX`, or a surrogate pair `uD8XX\uDCXX`, from the `u` on.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let unit = self
            .hex_unit(at + 1)
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
        self.pos += 5;
        let code = match unit {
            // A high surrogate must be immediately followed by an
            // escaped low surrogate.
            0xD800..=0xDBFF => {
                let low = self
                    .at("\\u")
                    .then(|| self.hex_unit(self.pos + 2))
                    .flatten();
                match low {
                    Some(low @ 0xDC00..=0xDFFF) => {
                        self.pos += 6;
                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                    }
                    _ => return Err(format!("lone high surrogate at byte {at}")),
                }
            }
            0xDC00..=0xDFFF => return Err(format!("lone low surrogate at byte {at}")),
            unit => unit,
        };
        Ok(char::from_u32(code).expect("a scalar value: surrogates were handled above"))
    }

    fn hex_unit(&self, at: usize) -> Option<u32> {
        let digits = self.src.as_bytes().get(at..at + 4)?;
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return None;
        }
        u32::from_str_radix(std::str::from_utf8(digits).ok()?, 16).ok()
    }

    /// Advance over a run of digits; `false` if there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Value<'a>, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int = self.pos;
        if !self.digits() {
            return Err(format!("expected digits at byte {}", self.pos));
        }
        // Reject a bare leading zero followed by digits ("007").
        let leading_zero = self.src.as_bytes()[int] == b'0' && self.pos > int + 1;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(format!("expected fraction digits at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(format!("expected exponent digits at byte {}", self.pos));
            }
        }
        if leading_zero {
            return Err(format!("leading zero in number at byte {start}"));
        }
        Ok(Value::Num(&self.src[start..self.pos]))
    }
}
