//! The workspace's one JSON codec: a fixed layout per type, written
//! straight into a byte buffer and read back with a cursor parser, with
//! no intermediate value tree.
//!
//! A type takes part by implementing [`Codec`]: `encode` appends its
//! compact JSON, and `decode` reads it with a [`Reader`]. Most layouts are
//! declared, not written: [`record!`], [`tagged!`] and [`tag_first!`] take
//! one list of the type's fields and generate both halves, each field
//! written and read through its own type's `Codec` (the integers, `f64`,
//! `bool`, `String`, `Vec`, `Option`, `Box`, [`Round`](crate::Round) and
//! [`SellerId`](crate::SellerId) have one). The journal's files
//! (`cdt-protocol`) and the observability trace lines (`cdt-obs`) are
//! declared so; a layout a field list cannot say is written by hand
//! through the `push_*` writers and the [`Reader`], as
//! [`JobSpec`](crate::JobSpec)'s is.
//!
//! Writing is compact JSON: strings escaped as serde_json escaped them,
//! and floats in shortest round-trip form (Ryū, in the private `ryu`
//! module), a non-finite float as `null`.
//!
//! Reading accepts any JSON text of the same value: whitespace anywhere,
//! fields in any order, and unknown keys (skipped, nested at most 128
//! deep). Layouts reject a repeated key ([`Reader::field`]) and a missing
//! one ([`Reader::required`]), unless its type reads an absent key
//! ([`Codec::absent`]: `None` for an `Option`) or the layout gives it a
//! default. Integers are exact over `u64`; floats must be finite numbers
//! (`null` and `1e400` are errors).

mod layout;
mod ryu;

pub use crate::{record, tag_first, tagged};

use crate::CdtError;
use std::borrow::Cow;
use std::fmt;

/// Why a text did not decode.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The text is not JSON of the expected layout.
    Json(String),
    /// A job that [`JobSpec::new`](crate::JobSpec::new) rejects.
    InvalidJob(CdtError),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Json(msg) => f.write_str(msg),
            DecodeError::InvalidJob(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A type with a fixed JSON layout.
pub trait Codec: Sized {
    /// Appends the compact JSON text of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value at the reader's position.
    ///
    /// # Errors
    /// Returns the first syntax or layout error.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// The value an absent key reads as, if the type has one. `None` by
    /// default, so a missing key is an error; an `Option` reads as `None`.
    fn absent() -> Option<Self> {
        None
    }
}

/// The JSON text of `value`.
#[must_use]
pub fn to_string<T: Codec>(value: &T) -> String {
    let mut out = Vec::new();
    value.encode(&mut out);
    String::from_utf8(out).expect("the codec writes UTF-8")
}

/// Decodes `text` as exactly one `T` (surrounding whitespace allowed).
///
/// # Errors
/// Returns the first syntax or layout error, or trailing characters.
pub fn from_str<T: Codec>(text: &str) -> Result<T, DecodeError> {
    let mut r = Reader::new(text);
    let value = T::decode(&mut r)?;
    r.end()?;
    Ok(value)
}

/// Nesting deeper than this is rejected (the usual JSON parser limit).
const MAX_DEPTH: usize = 128;

/// Appends `v` in decimal.
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; 20];
    let first = ryu::write_digits(v, &mut buf);
    out.extend_from_slice(&buf[first..]);
}

/// Appends `v` in decimal.
pub fn push_usize(out: &mut Vec<u8>, v: usize) {
    push_u64(out, v as u64);
}

/// Appends `v` as shortest round-trip text (`null` when not finite).
pub fn push_f64(out: &mut Vec<u8>, v: f64) {
    ryu::push_f64(out, v);
}

/// Appends `true` or `false`.
pub fn push_bool(out: &mut Vec<u8>, v: bool) {
    out.extend_from_slice(if v { b"true" } else { b"false" });
}

/// Appends `s` quoted. `"` and `\` are escaped, `\b \t \n \f \r` take
/// their short escapes, the other control characters `\u00xx` (lowercase
/// hex), and everything else is copied as it is.
pub fn push_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let short: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0..=0x1f => b"",
            _ => continue,
        };
        out.extend_from_slice(&bytes[start..i]);
        if short.is_empty() {
            out.extend_from_slice(b"\\u00");
            out.push(HEX[usize::from(b >> 4)]);
            out.push(HEX[usize::from(b & 0xf)]);
        } else {
            out.extend_from_slice(short);
        }
        start = i + 1;
    }
    out.extend_from_slice(&bytes[start..]);
    out.push(b'"');
}

/// Appends `{"tag":value}`: one externally tagged value, for a caller that
/// holds the value but not the enum.
pub fn push_tagged<T: Codec>(out: &mut Vec<u8>, tag: &str, value: &T) {
    out.extend_from_slice(b"{\"");
    out.extend_from_slice(tag.as_bytes());
    out.extend_from_slice(b"\":");
    value.encode(out);
    out.push(b'}');
}

/// A cursor over one JSON text. Every read skips leading whitespace and
/// either consumes exactly one value or returns an error naming the
/// position. A clone reads ahead without moving the original.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// An error at the current position, naming its line and column.
    #[cold]
    #[inline(never)]
    pub fn error(&self, msg: impl std::fmt::Display) -> DecodeError {
        let before = &self.text.as_bytes()[..self.pos.min(self.text.len())];
        let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        let column = 1 + before.iter().rev().take_while(|&&b| b != b'\n').count();
        DecodeError::Json(format!("{msg} at line {line} column {column}"))
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes().get(self.pos) {
            self.pos += 1;
        }
        self.bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn expect(&mut self, b: u8, what: &str) -> Result<(), DecodeError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.error(format_args!("expected {what}")))
        }
    }

    fn enter(&mut self) -> Result<(), DecodeError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        Ok(())
    }

    /// Succeeds when only whitespace is left.
    pub fn end(&mut self) -> Result<(), DecodeError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    /// Reads an object, calling `field` once per key with the reader
    /// positioned on that key's value. `field` must consume the value.
    /// (Container walkers take `dyn` callbacks: one copy of each serves
    /// every layout.)
    pub fn object(
        &mut self,
        field: &mut dyn FnMut(&mut Self, &str) -> Result<(), DecodeError>,
    ) -> Result<(), DecodeError> {
        self.expect(b'{', "`{`")?;
        self.enter()?;
        if !self.eat(b'}') {
            loop {
                if self.peek() != Some(b'"') {
                    return Err(self.error("key must be a string"));
                }
                let key = self.string()?;
                self.expect(b':', "`:`")?;
                field(self, &key)?;
                if self.eat(b'}') {
                    break;
                }
                self.expect(b',', "`,` or `}`")?;
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Opens an externally tagged enum value `{"Variant": content}` and
    /// returns the variant name; the content follows, then
    /// [`Reader::end_variant`].
    pub fn begin_variant(&mut self) -> Result<Cow<'a, str>, DecodeError> {
        self.expect(b'{', "an externally tagged enum")?;
        self.enter()?;
        if self.peek() != Some(b'"') {
            return Err(self.error("expected a variant name"));
        }
        let name = self.string()?;
        self.expect(b':', "`:`")?;
        Ok(name)
    }

    /// Closes the value [`Reader::begin_variant`] opened.
    pub fn end_variant(&mut self) -> Result<(), DecodeError> {
        self.expect(b'}', "`}` after the variant")?;
        self.depth -= 1;
        Ok(())
    }

    /// The error for a variant name `name` that `what` does not have.
    pub fn unknown_variant(&self, name: &str, what: &str) -> DecodeError {
        self.error(format_args!("unknown variant `{name}` of {what}"))
    }

    /// Reads an array, calling `element` once per element.
    pub fn array(
        &mut self,
        element: &mut dyn FnMut(&mut Self) -> Result<(), DecodeError>,
    ) -> Result<(), DecodeError> {
        self.expect(b'[', "`[`")?;
        self.enter()?;
        if !self.eat(b']') {
            loop {
                element(self)?;
                if self.eat(b']') {
                    break;
                }
                self.expect(b',', "`,` or `]`")?;
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads an array of `T`. (The loop is [`Reader::array`]'s, inlined:
    /// number arrays are most of a journal's bytes.)
    pub fn vec<T>(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        self.expect(b'[', "`[`")?;
        self.enter()?;
        let mut items = Vec::with_capacity(16);
        if !self.eat(b']') {
            loop {
                items.push(element(self)?);
                if self.eat(b']') {
                    break;
                }
                self.expect(b',', "`,` or `]`")?;
            }
        }
        self.depth -= 1;
        Ok(items)
    }

    /// Reads `null` as `None`, anything else through `value`.
    pub fn nullable<T>(
        &mut self,
        value: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        if self.peek() == Some(b'n') {
            self.literal(b"null")?;
            Ok(None)
        } else {
            value(self).map(Some)
        }
    }

    fn literal(&mut self, word: &[u8]) -> Result<(), DecodeError> {
        if self.bytes()[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error("expected value"))
        }
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.peek() {
            Some(b't') => self.literal(b"true").map(|()| true),
            Some(b'f') => self.literal(b"false").map(|()| false),
            _ => Err(self.error("expected a boolean")),
        }
    }

    /// Scans one number token; returns it and whether it is an integer
    /// (no fraction, no exponent).
    #[inline]
    fn number(&mut self) -> Result<(&'a str, bool), DecodeError> {
        let start = match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.pos,
            None => return Err(self.error("EOF while parsing a value")),
            Some(_) => return Err(self.error("expected a number")),
        };
        let bytes = self.bytes();
        let digits = |pos: &mut usize| {
            let from = *pos;
            while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            *pos > from
        };
        let mut pos = start + usize::from(bytes[start] == b'-');
        let integer_part = if bytes.get(pos) == Some(&b'0') {
            pos += 1;
            true
        } else {
            digits(&mut pos)
        };
        let mut integer = true;
        let mut valid = integer_part;
        if valid && bytes.get(pos) == Some(&b'.') {
            pos += 1;
            integer = false;
            valid = digits(&mut pos);
        }
        if valid && matches!(bytes.get(pos), Some(b'e' | b'E')) {
            pos += 1;
            if matches!(bytes.get(pos), Some(b'+' | b'-')) {
                pos += 1;
            }
            integer = false;
            valid = digits(&mut pos);
        }
        self.pos = pos;
        if !valid {
            return Err(self.error("invalid number"));
        }
        Ok((&self.text[start..pos], integer))
    }

    /// Reads a non-negative integer, exact over the whole `u64` range.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let (token, integer) = self.number()?;
        if !integer || token.starts_with('-') {
            return Err(self.error(format_args!(
                "invalid value: `{token}`, expected an unsigned integer"
            )));
        }
        token
            .bytes()
            .try_fold(0u64, |acc, d| {
                acc.checked_mul(10)?.checked_add(u64::from(d - b'0'))
            })
            .ok_or_else(|| self.error(format_args!("integer `{token}` out of range for u64")))
    }

    /// Reads a non-negative integer that fits `usize`.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| self.error(format_args!("integer `{v}` out of range for usize")))
    }

    /// Reads a non-negative integer that fits `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| self.error(format_args!("integer `{v}` out of range for u32")))
    }

    /// Reads a finite number (`null` and out-of-range numbers are errors).
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        let (token, _) = self.number()?;
        match token.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(self.error("number out of range")),
        }
    }

    /// Reads a string, borrowing it from the input when it has no escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, DecodeError> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected a string"));
        }
        self.pos += 1;
        let bytes = self.bytes();
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // Runs end only at ASCII bytes, so they are whole UTF-8.
            let run = &self.text[start..self.pos];
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(run);
                    self.pos += 1;
                    let escape = bytes.get(self.pos).copied();
                    self.pos += 1;
                    match escape {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let c = self.unicode_escape()?;
                            s.push(c);
                        }
                        None => return Err(self.error("EOF while parsing a string")),
                        Some(_) => return Err(self.error("invalid escape")),
                    }
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("EOF while parsing a string")),
            }
        }
    }

    /// The code point of a `\uXXXX` escape (the `\u` already read),
    /// joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, DecodeError> {
        let high = self.hex4()?;
        let code = match high {
            0xD800..=0xDBFF => {
                if !self.bytes()[self.pos..].starts_with(b"\\u") {
                    return Err(self.error("lone leading surrogate in hex escape"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.error("invalid surrogate pair in hex escape"));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            _ => high,
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid unicode code point"))
    }

    fn hex4(&mut self) -> Result<u32, DecodeError> {
        let digits = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.error("invalid escape"))?;
        let value = digits.iter().fold(0, |acc, &d| {
            acc * 16 + char::from(d).to_digit(16).unwrap_or(0)
        });
        self.pos += 4;
        Ok(value)
    }

    /// Skips one value of any shape: the field of a key the layout does
    /// not know.
    pub fn skip(&mut self) -> Result<(), DecodeError> {
        match self.peek() {
            Some(b'{') => self.object(&mut |r, _| r.skip()),
            Some(b'[') => self.array(&mut Self::skip),
            Some(b'"') => self.string().map(drop),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'n') => self.literal(b"null"),
            _ => self.number().map(drop),
        }
    }

    /// Stores `read`'s value in an unfilled `slot`; a second occurrence
    /// of `key` is an error.
    pub fn field<T>(
        &mut self,
        slot: &mut Option<T>,
        key: &str,
        read: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<(), DecodeError> {
        if slot.is_some() {
            return Err(self.error(format_args!("duplicate field `{key}`")));
        }
        *slot = Some(read(self)?);
        Ok(())
    }

    /// The value of a filled `slot`, else the value of an absent key
    /// ([`Codec::absent`]), else the missing-field error.
    pub fn required<T: Codec>(&self, slot: Option<T>, key: &str) -> Result<T, DecodeError> {
        match slot {
            Some(value) => Ok(value),
            None => T::absent().ok_or_else(|| self.error(format_args!("missing field `{key}`"))),
        }
    }

    /// The `key` tag of the object here, read ahead on a copy of the
    /// reader (the tag may sit anywhere in the object); `None` when the
    /// object has no such key.
    pub fn read_tag(&self, key: &str) -> Result<Option<Cow<'a, str>>, DecodeError> {
        let mut ahead = self.clone();
        let mut tag = None;
        ahead.object(&mut |r, k| {
            if k == key {
                r.field(&mut tag, k, Reader::string)
            } else {
                r.skip()
            }
        })?;
        Ok(tag)
    }
}
