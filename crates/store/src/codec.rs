//! Compact little-endian binary encoding for persisted records.
//!
//! The store's values are versioned binary envelopes, so readers need exact,
//! allocation-light primitives rather than a general serialization framework
//! (which the offline build cannot pull in anyway). [`Encoder`] appends
//! fixed-width little-endian fields and length-prefixed strings to a buffer;
//! [`Decoder`] consumes them back, failing loudly — never panicking — on
//! truncated or malformed input, since cache files can be damaged by
//! interrupted writes or stray editors.

use std::fmt;

/// A decode failure. Cache readers treat any of these as "record absent".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before a field's bytes.
    UnexpectedEof {
        /// Bytes the field needed.
        wanted: usize,
        /// Bytes actually left.
        remaining: usize,
    },
    /// The file does not start with the expected magic.
    BadMagic,
    /// Envelope format version is not one this reader understands.
    UnsupportedVersion {
        /// Version found in the envelope.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// Bytes were left over after the final field.
    TrailingBytes {
        /// How many bytes remained.
        remaining: usize,
    },
    /// A length-prefixed string held invalid UTF-8.
    BadUtf8,
    /// The payload does not hash to the digest stored with it.
    BadDigest,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { wanted, remaining } => {
                write!(
                    f,
                    "unexpected end of record: wanted {wanted} bytes, {remaining} left"
                )
            }
            CodecError::BadMagic => f.write_str("bad record magic"),
            CodecError::UnsupportedVersion { found, expected } => {
                write!(
                    f,
                    "unsupported record version {found} (expected {expected})"
                )
            }
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after record")
            }
            CodecError::BadUtf8 => f.write_str("invalid UTF-8 in record string"),
            CodecError::BadDigest => f.write_str("record payload does not match its digest"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends little-endian fields to a growable buffer.
///
/// # Example
///
/// ```
/// use simstore::codec::{Decoder, Encoder};
///
/// let mut e = Encoder::new();
/// e.put_str("619.lbm_s");
/// e.put_f64(4.09);
/// let bytes = e.into_bytes();
/// let mut d = Decoder::new(&bytes);
/// assert_eq!(d.take_str().unwrap(), "619.lbm_s");
/// assert_eq!(d.take_f64().unwrap(), 4.09);
/// d.finish().unwrap();
/// ```
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// An empty encoder with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes verbatim (caller provides framing).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern (byte-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// Consumes fields from an encoded byte slice.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                wanted: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] at end of input.
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Takes a `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if fewer than 4 bytes remain.
    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take_bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Takes a `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take_bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Takes an `f64` stored by bit pattern.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn take_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Takes a boolean (any non-zero byte is true).
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] at end of input.
    pub fn take_bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.take_u8()? != 0)
    }

    /// Takes a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] on truncation, [`CodecError::BadUtf8`]
    /// on invalid bytes.
    pub fn take_str(&mut self) -> Result<String, CodecError> {
        let len = self.take_u64()? as usize;
        let bytes = self.take_bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// Asserts the input is fully consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`] if anything remains.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field_kind() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(1_000_000);
        e.put_u64(u64::MAX);
        e.put_f64(-0.0);
        e.put_bool(true);
        e.put_str("503.bwaves_r-in2");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 7);
        assert_eq!(d.take_u32().unwrap(), 1_000_000);
        assert_eq!(d.take_u64().unwrap(), u64::MAX);
        assert_eq!(d.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.take_bool().unwrap());
        assert_eq!(d.take_str().unwrap(), "503.bwaves_r-in2");
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Encoder::new();
        e.put_u64(5);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes[..4]);
        assert_eq!(
            d.take_u64(),
            Err(CodecError::UnexpectedEof {
                wanted: 8,
                remaining: 4
            })
        );
    }

    #[test]
    fn truncated_string_reports_eof() {
        let mut e = Encoder::new();
        e.put_str("abcdef");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes[..10]);
        assert!(matches!(
            d.take_str(),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Encoder::new();
        e.put_u8(1);
        e.put_u8(2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        d.take_u8().unwrap();
        assert_eq!(d.finish(), Err(CodecError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn invalid_utf8_detected() {
        let mut e = Encoder::new();
        e.put_u64(2);
        e.put_bytes(&[0xff, 0xfe]);
        let bytes = e.into_bytes();
        assert_eq!(Decoder::new(&bytes).take_str(), Err(CodecError::BadUtf8));
    }
}
