//! The one little-endian byte codec behind every format this workspace
//! writes: SYNOPTC1 catalog files (see [`crate::format`]), the `SQP1`
//! query protocol (`synoptic-api`) and the `SRP1` replication protocol
//! (`synoptic-repl`).
//!
//! * [`ByteWriter`] / [`ByteReader`] encode and decode the primitives.
//!   Catalog sections use `u64` length prefixes, finite floats and the
//!   [`MAX_SECTION_LEN`] cap; the wire protocols use `u16`-prefixed
//!   strings ([`ByteWriter::str16`]) and `u32` counts checked against the
//!   remaining payload ([`ByteReader::count`]).
//! * [`seal`] / [`open`] build and validate the envelope SQP1 and SRP1
//!   share:
//!
//! ```text
//! frame:   magic (4) | type u8 | payload | crc32 u32
//! ```
//!
//! The CRC covers every byte before it. Every decode failure is
//! [`SynopticError::CorruptSynopsis`] carrying the caller's context and
//! the payload offset at which decoding stopped; a protocol that reports
//! another variant maps it at its own decode boundary.

use synoptic_core::{Result, SynopticError};

use crate::checksum::crc32;
use crate::format::MAX_SECTION_LEN;

pub(crate) fn corrupt(context: &str, detail: impl Into<String>) -> SynopticError {
    SynopticError::CorruptSynopsis {
        context: context.to_string(),
        detail: detail.into(),
    }
}

/// Bytes a sealed frame carries around its payload: magic, type, CRC.
const SEAL_OVERHEAD: usize = 4 + 1 + 4;

/// Builds one `magic | kind | payload | crc32` frame; `payload` writes
/// the bytes between the type and the CRC.
pub fn seal(magic: [u8; 4], kind: u8, payload: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter {
        buf: Vec::with_capacity(64),
    };
    w.bytes(&magic);
    w.u8(kind);
    payload(&mut w);
    let crc = crc32(&w.buf);
    w.u32(crc);
    w.buf
}

/// Validates a [`seal`]ed frame's length, magic and CRC, and returns its
/// type with a reader over the payload. Failures are labelled `context`.
pub fn open<'a>(bytes: &'a [u8], magic: [u8; 4], context: &'a str) -> Result<(u8, ByteReader<'a>)> {
    if bytes.len() < SEAL_OVERHEAD {
        return Err(corrupt(
            context,
            format!("{} bytes is shorter than any frame", bytes.len()),
        ));
    }
    if bytes[..4] != magic {
        return Err(corrupt(context, "bad frame magic"));
    }
    let (body, crc) = bytes.split_at(bytes.len() - 4);
    if u32::from_le_bytes(crc.try_into().unwrap()) != crc32(body) {
        return Err(corrupt(context, "frame CRC mismatch"));
    }
    Ok((body[4], ByteReader::new(&body[5..], context)))
}

/// Little-endian payload builder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes raw bytes, unprefixed.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Writes one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a `u64`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a `u16`-length-prefixed UTF-8 string. Strings of 64 KiB or
    /// more (possible for error text built from user input) are
    /// truncated at a char boundary rather than wrapping the prefix: a
    /// wrapped prefix would make the payload disagree with the frame and
    /// the peer would refuse the whole frame instead of receiving the
    /// shortened text.
    pub fn str16(&mut self, s: &str) {
        let mut end = s.len().min(usize::from(u16::MAX));
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        self.buf.extend_from_slice(&(end as u16).to_le_bytes());
        self.buf.extend_from_slice(&s.as_bytes()[..end]);
    }

    /// Writes a length-prefixed `usize` vector (as `u64`s).
    pub fn usize_vec(&mut self, xs: &[usize]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.u64(x as u64);
        }
    }

    /// Writes a length-prefixed `f64` vector.
    pub fn f64_vec(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }
}

/// Bounds-checked little-endian payload reader. Every failure carries the
/// byte offset at which it occurred.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'a str,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, labelling errors with `context`.
    pub fn new(buf: &'a [u8], context: &'a str) -> Self {
        Self {
            buf,
            pos: 0,
            context,
        }
    }

    fn fail(&self, detail: impl Into<String>) -> SynopticError {
        corrupt(
            self.context,
            format!("{} (at byte offset {})", detail.into(), self.pos),
        )
    }

    /// Reads `len` raw bytes.
    #[inline]
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < len {
            return Err(self.fail(format!(
                "unexpected end of payload: need {len} bytes, have {}",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Reads an `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Reads a *finite* `f64`; NaN/∞ are rejected (they would silently
    /// poison every downstream estimate).
    pub fn f64(&mut self) -> Result<f64> {
        let v = f64::from_bits(self.u64()?);
        if !v.is_finite() {
            return Err(self.fail(format!("non-finite float {v}")));
        }
        Ok(v)
    }

    /// Reads a `u32` element count and refuses one the remaining payload
    /// cannot hold at `per_item` bytes each, so a corrupt count cannot
    /// drive a giant allocation.
    pub fn count(&mut self, per_item: usize) -> Result<usize> {
        let len = self.u32()? as usize;
        match len.checked_mul(per_item) {
            Some(need) if need <= self.buf.len() - self.pos => Ok(len),
            _ => Err(self.fail(format!(
                "count {len} × {per_item} bytes exceeds the remaining payload"
            ))),
        }
    }

    fn len_prefix(&mut self) -> Result<usize> {
        let len = self.u64()?;
        if len > MAX_SECTION_LEN {
            return Err(self.fail(format!(
                "section length {len} exceeds cap {MAX_SECTION_LEN}"
            )));
        }
        Ok(len as usize)
    }

    fn utf8(&mut self, len: usize) -> Result<String> {
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.fail("invalid UTF-8 in string"))
    }

    /// Reads a `u64`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.len_prefix()?;
        self.utf8(len)
    }

    /// Reads a `u16`-length-prefixed UTF-8 string (see
    /// [`ByteWriter::str16`]).
    pub fn str16(&mut self) -> Result<String> {
        let len = u16::from_le_bytes(self.bytes(2)?.try_into().unwrap());
        self.utf8(usize::from(len))
    }

    /// Reads a length-prefixed `usize` vector.
    pub fn usize_vec(&mut self) -> Result<Vec<usize>> {
        let len = self.len_prefix()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let v = self.u64()?;
            if v > MAX_SECTION_LEN {
                return Err(self.fail(format!("index {v} out of any plausible range")));
            }
            out.push(v as usize);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `f64` vector (finite values only).
    pub fn f64_vec(&mut self) -> Result<Vec<f64>> {
        let len = self.len_prefix()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// Whether unread bytes remain — used for optional trailing sections
    /// (a reader that sees `false` treats the section as absent, which is
    /// how newer writers stay readable without a version bump).
    pub fn has_remaining(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Asserts the payload is fully consumed (no trailing garbage).
    pub fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            let trailing = self.buf.len() - self.pos;
            return Err(self.fail(format!("{trailing} trailing bytes after payload")));
        }
        Ok(())
    }
}
