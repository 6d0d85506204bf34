//! A tiny, dependency-free binary codec.
//!
//! This explicit little-endian writer/reader pair is the workspace's one
//! binary codec: store artifacts, snippet packs and memory dumps are all
//! encoded with it. The format is deliberately dumb: fixed-width integers, `f64` as IEEE-754 bit
//! patterns (bitwise-exact round trips, NaN included), and length-prefixed
//! strings and sequences. Determinism is a hard requirement — the same
//! value must always encode to the same bytes, because artifact keys and
//! integrity checksums are hashes of encoded payloads.

use std::fmt;

/// Error produced when decoding malformed or truncated bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Human-readable description of the failure.
    pub message: String,
}

impl CodecError {
    /// A new decode error.
    pub fn new(message: impl Into<String>) -> CodecError {
        CodecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.message)
    }
}

impl std::error::Error for CodecError {}

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Finish, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a `u32`, little endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Write an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write raw bytes with a length prefix.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Write a sequence length prefix (pair with `n` element writes).
    pub fn put_seq(&mut self, n: usize) {
        self.put_usize(n);
    }

    /// Write an `Option<f64>` as a presence byte plus the value.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_f64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Write an `Option<usize>` as a presence byte plus the value.
    pub fn put_opt_usize(&mut self, v: Option<usize>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_usize(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Write a slice of `f64`s with a length prefix.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_seq(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Write a slice of `u64`s with a length prefix.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_seq(vs.len());
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Write a slice of `usize`s with a length prefix.
    pub fn put_usize_slice(&mut self, vs: &[usize]) {
        self.put_seq(vs.len());
        for &v in vs {
            self.put_usize(v);
        }
    }
}

/// Sequential decoder over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless every byte has been consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::new(format!(
                "{} trailing bytes after decode",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::new(format!(
                "truncated input: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool (rejecting bytes other than 0/1).
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::new(format!("invalid bool byte {b}"))),
        }
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| CodecError::new("internal: take(4) length mismatch"))?;
        Ok(u32::from_le_bytes(b))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| CodecError::new("internal: take(8) length mismatch"))?;
        Ok(u64::from_le_bytes(b))
    }

    /// Read a `usize` (stored as `u64`).
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CodecError::new(format!("usize overflow: {v}")))
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let n = self.get_usize()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| CodecError::new("invalid utf-8 in string"))
    }

    /// Read length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let n = self.get_usize()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Read a sequence length prefix, bounded by the remaining input so a
    /// corrupted length cannot trigger a huge allocation.
    pub fn get_seq(&mut self) -> Result<usize, CodecError> {
        let n = self.get_usize()?;
        if n > self.remaining() {
            return Err(CodecError::new(format!(
                "sequence of {n} elements cannot fit in {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Read an `Option<f64>`.
    pub fn get_opt_f64(&mut self) -> Result<Option<f64>, CodecError> {
        Ok(if self.get_bool()? {
            Some(self.get_f64()?)
        } else {
            None
        })
    }

    /// Read an `Option<usize>`.
    pub fn get_opt_usize(&mut self) -> Result<Option<usize>, CodecError> {
        Ok(if self.get_bool()? {
            Some(self.get_usize()?)
        } else {
            None
        })
    }

    /// Read a length-prefixed `f64` slice.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.get_seq()?;
        (0..n).map(|_| self.get_f64()).collect()
    }

    /// Read a length-prefixed `u64` slice.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, CodecError> {
        let n = self.get_seq()?;
        (0..n).map(|_| self.get_u64()).collect()
    }

    /// Read a length-prefixed `usize` slice.
    pub fn get_usize_vec(&mut self) -> Result<Vec<usize>, CodecError> {
        let n = self.get_seq()?;
        (0..n).map(|_| self.get_usize()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_str("héllo");
        w.put_opt_f64(Some(1.5));
        w.put_opt_f64(None);
        w.put_opt_usize(Some(42));
        w.put_f64_slice(&[1.0, 2.0]);
        w.put_usize_slice(&[3, 4, 5]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_opt_f64().unwrap(), Some(1.5));
        assert_eq!(r.get_opt_f64().unwrap(), None);
        assert_eq!(r.get_opt_usize().unwrap(), Some(42));
        assert_eq!(r.get_f64_vec().unwrap(), vec![1.0, 2.0]);
        assert_eq!(r.get_usize_vec().unwrap(), vec![3, 4, 5]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..4]);
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn oversized_sequence_length_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_usize(usize::MAX / 2); // absurd element count
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_f64_vec().is_err());
    }

    #[test]
    fn bad_bool_is_rejected() {
        let mut r = ByteReader::new(&[3]);
        assert!(r.get_bool().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.get_u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn encoding_is_deterministic() {
        let enc = || {
            let mut w = ByteWriter::new();
            w.put_str("key");
            w.put_f64(std::f64::consts::PI);
            w.put_u64_slice(&[1, 2, 3]);
            w.into_bytes()
        };
        assert_eq!(enc(), enc());
    }
}
