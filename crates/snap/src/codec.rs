//! The versioned binary codec behind [`Snapshot`].
//!
//! Primitives are fixed-width little-endian; aggregates are
//! length-prefixed. Floating-point values round-trip through their IEEE
//! bit patterns, so NaN payloads, infinities and signed zeros restore
//! exactly. The encoding carries no type tags — reader and writer must
//! agree on the schema, which is what [`SNAP_VERSION`] and the
//! envelope checksum police.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Current snapshot schema version. Bump on any layout change; the
/// envelope rejects mismatched versions, which is how on-disk caches
/// from older builds invalidate themselves.
pub const SNAP_VERSION: u8 = 1;

/// Envelope magic bytes for snapshots and the cluster wire format.
pub const SNAP_MAGIC: [u8; 4] = *b"CSNP";

/// Sealed-envelope header size: magic (4) + version (1) + length (8).
pub const ENVELOPE_HEADER_LEN: usize = 13;

/// Trailing envelope checksum size (FNV-1a of the payload).
pub const ENVELOPE_CHECKSUM_LEN: usize = 8;

/// Envelope overhead in bytes: header plus checksum.
pub const ENVELOPE_OVERHEAD: usize = ENVELOPE_HEADER_LEN + ENVELOPE_CHECKSUM_LEN;

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The envelope did not start with `b"CSNP"`.
    BadMagic,
    /// The envelope carried an unsupported schema version.
    BadVersion {
        /// Version byte found in the envelope.
        found: u8,
        /// Version this build understands.
        expected: u8,
    },
    /// The payload checksum did not match its contents.
    BadChecksum,
    /// The input ended before the value was fully decoded.
    Truncated,
    /// Bytes remained after the value was fully decoded.
    TrailingBytes,
    /// The bytes decoded but described an impossible value.
    Invalid(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "snapshot envelope magic mismatch"),
            SnapError::BadVersion { found, expected } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (expected {expected})"
                )
            }
            SnapError::BadChecksum => write!(f, "snapshot payload checksum mismatch"),
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::TrailingBytes => write!(f, "snapshot has trailing bytes"),
            SnapError::Invalid(what) => write!(f, "snapshot invalid: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// 64-bit FNV-1a over `bytes` — the hash behind both the envelope
/// checksum and [`Snapshot::snapshot_key`] content addressing.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Consumes the writer, returning the raw (un-enveloped) payload.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian i32.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian i64.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an f64 as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes a usize as a u64 (portable across word sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor-based decoder over a byte slice. Every read is bounds
/// checked and returns [`SnapError::Truncated`] past the end.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over a raw (un-enveloped) payload.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian i32.
    pub fn get_i32(&mut self) -> Result<i32, SnapError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian i64.
    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an f64 from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool, rejecting bytes other than 0/1.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Invalid("bool byte out of range")),
        }
    }

    /// Reads a usize written by [`SnapWriter::put_usize`].
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Invalid("usize overflows this platform"))
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.get_usize()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_string(&mut self) -> Result<String, SnapError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Invalid("string not UTF-8"))
    }
}

/// The most elements a collection decoder reserves room for before
/// they decode. A length prefix is only checked against the bytes
/// left, and an element can occupy far more memory than the one byte
/// that is its least encoding, so a forged length must not size the
/// allocation: past this many elements a collection grows as its
/// elements actually decode.
pub const MAX_PREALLOC: usize = 4096;

/// Serializable simulator state.
///
/// Implementations live beside the type they serialize (in the same
/// module, with private-field access) and must encode *all* state that
/// affects future behavior — the round-trip contract is that a
/// restored value continues bit-identically to the original. State
/// that is re-attached after restore by construction (telemetry
/// handles, which are pure overlays) is exempt and documented per
/// type.
///
/// # Examples
///
/// ```
/// use cedar_snap::{SnapReader, SnapWriter, Snapshot};
///
/// let v: Vec<u64> = vec![3, 1, 4, 1, 5];
/// let bytes = v.to_snapshot_bytes();
/// let back = Vec::<u64>::from_snapshot_bytes(&bytes).unwrap();
/// assert_eq!(v, back);
/// ```
pub trait Snapshot: Sized {
    /// Encodes `self` into the writer.
    fn snap(&self, w: &mut SnapWriter);

    /// Decodes a value from the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on truncated or invalid input.
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;

    /// Serializes into a checked envelope (magic, version, length,
    /// payload, FNV-1a checksum).
    fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.snap(&mut w);
        seal(&w.into_bytes())
    }

    /// Deserializes from a checked envelope, rejecting bad magic,
    /// version skew, corruption and trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns the specific [`SnapError`] describing the failure.
    fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        let payload = unseal(bytes)?;
        let mut r = SnapReader::new(payload);
        let value = Self::restore(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapError::TrailingBytes);
        }
        Ok(value)
    }

    /// Content-addressed key of this value: the FNV-1a hash of
    /// `namespace`, the schema version and the canonical encoding,
    /// rendered as 16 hex digits. Equal values always map to equal
    /// keys; the namespace separates value spaces sharing an encoding.
    fn snapshot_key(&self, namespace: &str) -> String {
        let mut w = SnapWriter::new();
        w.put_str(namespace);
        w.put_u8(SNAP_VERSION);
        self.snap(&mut w);
        format!("{:016x}", fnv1a(&w.into_bytes()))
    }
}

/// Wraps a raw payload in the checked envelope (magic, version,
/// length, payload, FNV-1a checksum). Multi-part snapshots — several
/// values serialized into one [`SnapWriter`] — seal the combined
/// payload with this; single values go through
/// [`Snapshot::to_snapshot_bytes`].
#[must_use]
pub fn seal(payload: &[u8]) -> Vec<u8> {
    seal_as(SNAP_MAGIC, payload)
}

/// [`seal`] with a caller-chosen magic: the same checked envelope
/// (magic, version, length, payload, FNV-1a checksum) reused by other
/// wire protocols — e.g. the serving tier's `b"CSRV"` frames — so they
/// inherit the codec's corruption detection without inventing one.
#[must_use]
pub fn seal_as(magic: [u8; 4], payload: &[u8]) -> Vec<u8> {
    seal_as_with(magic, payload.len(), |w| w.buf.extend_from_slice(payload))
}

/// [`seal_as`] for a payload encoded in place: `fill` writes the
/// payload into a writer that already holds the envelope header, then
/// the length is patched in and the checksum appended. The frame is
/// built in one buffer, with no intermediate payload copy.
/// `payload_hint` sizes that buffer; a wrong hint costs only a regrow.
#[must_use]
pub fn seal_as_with(
    magic: [u8; 4],
    payload_hint: usize,
    fill: impl FnOnce(&mut SnapWriter),
) -> Vec<u8> {
    let mut w = SnapWriter {
        buf: Vec::with_capacity(payload_hint + ENVELOPE_OVERHEAD),
    };
    w.buf.extend_from_slice(&magic);
    w.buf.push(SNAP_VERSION);
    w.buf.extend_from_slice(&[0; 8]);
    fill(&mut w);
    let mut out = w.buf;
    let len = (out.len() - ENVELOPE_HEADER_LEN) as u64;
    out[ENVELOPE_HEADER_LEN - 8..ENVELOPE_HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    let checksum = fnv1a(&out[ENVELOPE_HEADER_LEN..]);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Validates a checked envelope and returns its payload, the inverse
/// of [`seal`].
///
/// # Errors
///
/// Returns the specific [`SnapError`] for bad magic, version skew,
/// truncation, trailing bytes or a checksum mismatch.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], SnapError> {
    unseal_as(SNAP_MAGIC, bytes)
}

/// [`unseal`] with a caller-chosen magic, the inverse of [`seal_as`].
///
/// # Errors
///
/// Returns the specific [`SnapError`] for bad magic, version skew,
/// truncation, trailing bytes or a checksum mismatch.
pub fn unseal_as(magic: [u8; 4], bytes: &[u8]) -> Result<&[u8], SnapError> {
    if bytes.len() < ENVELOPE_OVERHEAD {
        return Err(SnapError::Truncated);
    }
    let total = match crate::frame::check_header(magic, bytes, u64::MAX) {
        Ok(Some(total)) => total,
        Err(crate::frame::FrameError::Corrupt(e)) => return Err(e),
        _ => return Err(SnapError::Truncated),
    };
    match bytes.len().cmp(&total) {
        std::cmp::Ordering::Less => return Err(SnapError::Truncated),
        std::cmp::Ordering::Greater => return Err(SnapError::TrailingBytes),
        std::cmp::Ordering::Equal => {}
    }
    let (payload, checksum) = bytes[ENVELOPE_HEADER_LEN..].split_at(total - ENVELOPE_OVERHEAD);
    if fnv1a(payload).to_le_bytes() != checksum {
        return Err(SnapError::BadChecksum);
    }
    Ok(payload)
}

/// Implements [`Snapshot`] for a struct by encoding its named fields
/// in declaration order. Expand inside the struct's own module so
/// private fields are reachable.
#[macro_export]
macro_rules! snapshot_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::Snapshot for $ty {
            fn snap(&self, w: &mut $crate::SnapWriter) {
                $( $crate::Snapshot::snap(&self.$field, w); )+
            }
            fn restore(
                r: &mut $crate::SnapReader<'_>,
            ) -> Result<Self, $crate::SnapError> {
                Ok(Self { $( $field: $crate::Snapshot::restore(r)? ),+ })
            }
        }
    };
}

macro_rules! snapshot_primitive {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Snapshot for $ty {
            fn snap(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
            fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$get()
            }
        }
    };
}

snapshot_primitive!(u8, put_u8, get_u8);
snapshot_primitive!(u32, put_u32, get_u32);
snapshot_primitive!(u64, put_u64, get_u64);
snapshot_primitive!(i32, put_i32, get_i32);
snapshot_primitive!(i64, put_i64, get_i64);
snapshot_primitive!(f64, put_f64, get_f64);
snapshot_primitive!(bool, put_bool, get_bool);
snapshot_primitive!(usize, put_usize, get_usize);

impl Snapshot for u16 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u32(u32::from(*self));
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        u16::try_from(r.get_u32()?).map_err(|_| SnapError::Invalid("u16 out of range"))
    }
}

impl Snapshot for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_string()
    }
}

impl Snapshot for () {
    fn snap(&self, _w: &mut SnapWriter) {}
    fn restore(_r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(())
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.snap(w);
            }
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            _ => Err(SnapError::Invalid("Option tag out of range")),
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for item in self {
            item.snap(w);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_usize()?;
        // Guard against absurd lengths from corrupt input before
        // allocating (each element costs at least one byte).
        if len > r.remaining() {
            return Err(SnapError::Truncated);
        }
        let mut out = Vec::with_capacity(len.min(MAX_PREALLOC));
        for _ in 0..len {
            out.push(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for item in self {
            item.snap(w);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Vec::<T>::restore(r)?.into())
    }
}

impl<K: Snapshot + Ord, V: Snapshot> Snapshot for BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_usize()?;
        if len > r.remaining() {
            return Err(SnapError::Truncated);
        }
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::restore(r)?;
            let v = V::restore(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::restore(r)?, B::restore(r)?, C::restore(r)?))
    }
}

impl<T: Snapshot, const N: usize> Snapshot for [T; N] {
    fn snap(&self, w: &mut SnapWriter) {
        for item in self {
            item.snap(w);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::restore(r)?);
        }
        out.try_into()
            .map_err(|_| SnapError::Invalid("array length mismatch"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Demo {
        a: u64,
        b: f64,
        c: Vec<String>,
        d: Option<bool>,
    }
    snapshot_struct!(Demo { a, b, c, d });

    fn demo() -> Demo {
        Demo {
            a: 42,
            b: -0.5,
            c: vec!["x".into(), "yz".into()],
            d: Some(true),
        }
    }

    #[test]
    fn seal_as_round_trips_and_keeps_magics_apart() {
        let sealed = seal_as(*b"CSRV", b"hello");
        assert_eq!(unseal_as(*b"CSRV", &sealed).unwrap(), b"hello");
        // A CSRV envelope is not a CSNP envelope and vice versa.
        assert_eq!(unseal(&sealed), Err(SnapError::BadMagic));
        assert_eq!(
            unseal_as(*b"CSRV", &seal(b"hello")),
            Err(SnapError::BadMagic)
        );
        // seal() is exactly seal_as() with the snapshot magic.
        assert_eq!(seal(b"hello"), seal_as(SNAP_MAGIC, b"hello"));
    }

    #[test]
    fn in_place_seal_matches_a_separately_encoded_payload() {
        for n in [0usize, 1, 77, 4096] {
            let body: Vec<u8> = (0..n).map(|i| i as u8).collect();
            let mut w = SnapWriter::new();
            w.put_u64(n as u64);
            w.put_bytes(&body);
            let payload = w.into_bytes();
            // The hint only sizes the buffer: too small or too large,
            // the sealed bytes are the same.
            for hint in [0, payload.len(), 10 * payload.len() + 3] {
                let sealed = seal_as_with(*b"CSRV", hint, |w| {
                    w.put_u64(n as u64);
                    w.put_bytes(&body);
                });
                assert_eq!(sealed.len(), payload.len() + ENVELOPE_OVERHEAD);
                assert_eq!(unseal_as(*b"CSRV", &sealed).unwrap(), &payload[..]);
            }
        }
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_u32(u32::MAX);
        w.put_u64(u64::MAX);
        w.put_i32(-9);
        w.put_i64(i64::MIN);
        w.put_f64(f64::INFINITY);
        w.put_bool(true);
        w.put_str("hé");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), u32::MAX);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i32().unwrap(), -9);
        assert_eq!(r.get_i64().unwrap(), i64::MIN);
        assert_eq!(r.get_f64().unwrap(), f64::INFINITY);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_string().unwrap(), "hé");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn nan_and_negative_zero_round_trip_bitwise() {
        let values = [f64::NAN, -0.0, f64::NEG_INFINITY, f64::MIN_POSITIVE];
        for v in values {
            let bytes = v.to_snapshot_bytes();
            let back = f64::from_snapshot_bytes(&bytes).unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
    }

    #[test]
    fn envelope_round_trips_and_detects_corruption() {
        let value = demo();
        let bytes = value.to_snapshot_bytes();
        assert_eq!(Demo::from_snapshot_bytes(&bytes).unwrap(), value);

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            Demo::from_snapshot_bytes(&bad_magic),
            Err(SnapError::BadMagic)
        );

        let mut bad_version = bytes.clone();
        bad_version[4] = SNAP_VERSION + 1;
        assert!(matches!(
            Demo::from_snapshot_bytes(&bad_version),
            Err(SnapError::BadVersion { .. })
        ));

        let mut flipped = bytes.clone();
        let mid = 13 + (flipped.len() - 21) / 2;
        flipped[mid] ^= 0x40;
        assert_eq!(
            Demo::from_snapshot_bytes(&flipped),
            Err(SnapError::BadChecksum)
        );

        let truncated = &bytes[..bytes.len() - 3];
        assert_eq!(
            Demo::from_snapshot_bytes(truncated),
            Err(SnapError::Truncated)
        );

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            Demo::from_snapshot_bytes(&trailing),
            Err(SnapError::TrailingBytes)
        );
    }

    #[test]
    fn collections_round_trip() {
        let mut map = BTreeMap::new();
        map.insert(3u64, "c".to_string());
        map.insert(1, "a".to_string());
        let bytes = map.to_snapshot_bytes();
        assert_eq!(BTreeMap::from_snapshot_bytes(&bytes).unwrap(), map);

        let deque: VecDeque<u32> = [5, 6, 7].into_iter().collect();
        let bytes = deque.to_snapshot_bytes();
        assert_eq!(VecDeque::<u32>::from_snapshot_bytes(&bytes).unwrap(), deque);

        let arr = [1.5f64, 2.5, -3.5];
        let bytes = arr.to_snapshot_bytes();
        assert_eq!(<[f64; 3]>::from_snapshot_bytes(&bytes).unwrap(), arr);
    }

    #[test]
    fn corrupt_length_prefix_does_not_overallocate() {
        // A Vec claiming u64::MAX elements must fail fast, not OOM.
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let payload = w.into_bytes();
        let mut r = SnapReader::new(&payload);
        assert_eq!(Vec::<u64>::restore(&mut r), Err(SnapError::Truncated));
    }

    #[test]
    fn snapshot_key_is_content_addressed() {
        assert_eq!(demo().snapshot_key("t"), demo().snapshot_key("t"));
        assert_ne!(demo().snapshot_key("t"), demo().snapshot_key("u"));
        let mut other = demo();
        other.a += 1;
        assert_ne!(demo().snapshot_key("t"), other.snapshot_key("t"));
        assert_eq!(demo().snapshot_key("t").len(), 16);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
