//! Framing of sealed envelopes over byte streams.
//!
//! Every binary wire format in the workspace ships each message as one
//! sealed envelope — exactly the bytes [`seal_as`](crate::seal_as)
//! produces — under a 4-byte magic naming the protocol: `b"CSNP"` for
//! snapshots, cache entries and the cluster's coordinator↔worker
//! messages, `b"CSRV"` for the serving tier's requests and replies.
//!
//! ```text
//! offset  size  field
//! 0       4     magic      (b"CSNP", b"CSRV", ...)
//! 4       1     version    (SNAP_VERSION)
//! 5       8     payload length N, little-endian u64
//! 13      N     payload
//! 13+N    8     checksum   FNV-1a of the payload, little-endian u64
//! ```
//!
//! The envelope carries its own length, so a frame needs no extra
//! prefix. This module owns the one check of that header,
//! `check_header`, which fails at the first wrong byte and refuses a
//! declared length past the caller's cap before anything of that size
//! is buffered. Every reader sits on it:
//!
//! * [`read_frame`] / [`read_frame_as`] — blocking reads from a pipe
//!   or socket, as the cluster coordinator and its workers do;
//! * [`FrameScanner`] — incremental, fed whatever chunks a
//!   nonblocking socket delivers, as the serving tier's reactors do;
//! * [`unseal_frame`] — one already-delimited buffer;
//! * [`unseal_as`] — the codec's envelope check.
//!
//! Corruption is first-class here, not an afterthought: a supervisor
//! must distinguish *a peer that went away* (clean EOF at a frame
//! boundary) from *a peer writing garbage* (bad magic, bad checksum, a
//! length past the sanity cap, or an EOF mid-frame). [`FrameError`]
//! keeps those cases typed so the caller can reap, restart or
//! re-assign accordingly.

use std::io::{Read, Write};

use crate::codec::{
    seal, unseal_as, SnapError, ENVELOPE_HEADER_LEN as HEADER_LEN, ENVELOPE_OVERHEAD, SNAP_MAGIC,
    SNAP_VERSION,
};

/// Default sanity cap on a frame's payload length. A corrupt or
/// adversarial length field must fail fast, not allocate gigabytes.
pub const MAX_FRAME_PAYLOAD: u64 = 64 * 1024 * 1024;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly at a frame boundary: the peer is gone
    /// but was not mid-message. Supervisors treat this as an exit, not
    /// corruption.
    Eof,
    /// The stream ended inside a frame, or an underlying read failed.
    Io(std::io::Error),
    /// The bytes did not form a valid envelope: bad magic, version
    /// skew or a checksum mismatch. A peer doing this is writing
    /// garbage and cannot be trusted further.
    Corrupt(SnapError),
    /// The frame declared a payload longer than the sanity cap.
    TooLarge {
        /// Declared payload length.
        declared: u64,
        /// The cap it exceeded.
        cap: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "stream closed at a frame boundary"),
            FrameError::Io(e) => write!(f, "frame read failed: {e}"),
            FrameError::Corrupt(e) => write!(f, "corrupt frame: {e}"),
            FrameError::TooLarge { declared, cap } => {
                write!(f, "frame declares {declared} payload bytes (cap {cap})")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Checks the envelope header at the front of `bytes`, which may hold
/// only part of it, and returns the whole frame's length once the
/// header is complete.
///
/// `Ok(None)` means every byte present is a valid start of a `magic`
/// header and more are needed.
///
/// # Errors
///
/// At the first wrong byte: [`FrameError::Corrupt`] with
/// [`SnapError::BadMagic`] or [`SnapError::BadVersion`], or
/// [`FrameError::TooLarge`] when the complete length field declares
/// more than `cap` payload bytes (or more than memory can address).
pub(crate) fn check_header(
    magic: [u8; 4],
    bytes: &[u8],
    cap: u64,
) -> Result<Option<usize>, FrameError> {
    let magic_len = bytes.len().min(4);
    if bytes[..magic_len] != magic[..magic_len] {
        return Err(FrameError::Corrupt(SnapError::BadMagic));
    }
    if let Some(&found) = bytes.get(4) {
        if found != SNAP_VERSION {
            return Err(FrameError::Corrupt(SnapError::BadVersion {
                found,
                expected: SNAP_VERSION,
            }));
        }
    }
    let Some(len) = bytes.get(5..HEADER_LEN) else {
        return Ok(None);
    };
    let declared = u64::from_le_bytes(len.try_into().expect("8 bytes"));
    if declared > cap {
        return Err(FrameError::TooLarge { declared, cap });
    }
    // A frame memory cannot address is too large whatever the cap.
    usize::try_from(declared)
        .ok()
        .and_then(|n| n.checked_add(ENVELOPE_OVERHEAD))
        .map(Some)
        .ok_or(FrameError::TooLarge { declared, cap })
}

/// Validates one complete, already-delimited `magic` frame and returns
/// its payload.
///
/// # Errors
///
/// [`FrameError::TooLarge`] when the header declares more than `cap`
/// payload bytes; [`FrameError::Corrupt`] for every other
/// malformation, truncation and trailing bytes included.
pub fn unseal_frame(magic: [u8; 4], bytes: &[u8], cap: u64) -> Result<&[u8], FrameError> {
    check_header(magic, bytes, cap)?;
    unseal_as(magic, bytes).map_err(FrameError::Corrupt)
}

/// Writes `payload` as one sealed `b"CSNP"` frame.
///
/// # Errors
///
/// Returns the underlying I/O error if the write fails.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&seal(payload))?;
    w.flush()
}

/// Reads one sealed `b"CSNP"` frame and returns its validated payload,
/// honouring [`MAX_FRAME_PAYLOAD`].
///
/// # Errors
///
/// See [`read_frame_as`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    read_frame_as(r, SNAP_MAGIC, MAX_FRAME_PAYLOAD)
}

/// Reads one sealed `magic` frame with an explicit payload-length cap.
///
/// # Errors
///
/// * [`FrameError::Eof`] — the stream closed before any header byte.
/// * [`FrameError::Io`] — the stream closed mid-frame or a read failed.
/// * [`FrameError::Corrupt`] — bad magic, version skew, or a checksum
///   mismatch; the stream position is now unreliable and the peer
///   should be treated as compromised.
/// * [`FrameError::TooLarge`] — the declared length exceeds `cap`.
pub fn read_frame_as<R: Read>(r: &mut R, magic: [u8; 4], cap: u64) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    // The first byte decides Eof-at-boundary vs truncated-mid-frame.
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Err(FrameError::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    r.read_exact(&mut header[1..]).map_err(FrameError::Io)?;
    let total = check_header(magic, &header, cap)?.expect("a complete header");
    let mut frame = vec![0u8; total];
    frame[..HEADER_LEN].copy_from_slice(&header);
    r.read_exact(&mut frame[HEADER_LEN..])
        .map_err(FrameError::Io)?;
    let payload = unseal_as(magic, &frame).map_err(FrameError::Corrupt)?;
    Ok(payload.to_vec())
}

/// Incremental frame delimiter over an arbitrary byte stream.
///
/// Bytes are fed in whatever chunks the socket delivers;
/// [`next_frame`](FrameScanner::next_frame) yields one validated
/// payload per complete frame. Garbage fails *as early as it can be
/// detected* — a wrong magic byte the moment it arrives, a version
/// skew at byte 5, an over-cap length at byte 13 — so a hostile peer
/// can never make the scanner buffer unbounded data or wait forever
/// on a frame that cannot complete.
#[derive(Debug)]
pub struct FrameScanner {
    magic: [u8; 4],
    cap: u64,
    buf: Vec<u8>,
}

impl FrameScanner {
    /// A scanner for `magic` frames enforcing `cap` on declared
    /// payload lengths.
    #[must_use]
    pub fn new(magic: [u8; 4], cap: u64) -> Self {
        FrameScanner {
            magic,
            cap,
            buf: Vec::new(),
        }
    }

    /// Appends raw stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether a frame is in progress (some bytes buffered but no
    /// complete frame yet).
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Yields the next complete validated payload, `Ok(None)` when
    /// more bytes are needed.
    ///
    /// # Errors
    ///
    /// A typed [`FrameError`] (never `Eof` or `Io`) as soon as the
    /// buffered prefix cannot be the start of a valid frame. After an
    /// error the scanner's state is unspecified; the stream must be
    /// closed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let Some(total) = check_header(self.magic, &self.buf, self.cap)? else {
            return Ok(None);
        };
        let Some(frame) = self.buf.get(..total) else {
            return Ok(None);
        };
        let payload = unseal_as(self.magic, frame)
            .map_err(FrameError::Corrupt)?
            .to_vec();
        self.buf.drain(..total);
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[0xAB; 1000]).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), b"first");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), vec![0xAB; 1000]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Eof)));
    }

    #[test]
    fn clean_eof_at_boundary_is_typed_eof() {
        let mut r = Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut r), Err(FrameError::Eof)));
    }

    #[test]
    fn eof_mid_frame_is_io_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"truncated").unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = Cursor::new(buf);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
    }

    #[test]
    fn garbage_magic_is_corrupt() {
        let mut r = Cursor::new(b"GARBAGEGARBAGEGARBAGE".to_vec());
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Corrupt(SnapError::BadMagic))
        ));
    }

    #[test]
    fn flipped_payload_byte_is_corrupt_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload-bytes").unwrap();
        buf[HEADER_LEN + 3] ^= 0xFF;
        let mut r = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Corrupt(SnapError::BadChecksum))
        ));
    }

    #[test]
    fn absurd_length_fails_fast_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"CSNP");
        buf.push(crate::SNAP_VERSION);
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut r = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn explicit_cap_is_honoured() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[1u8; 100]).unwrap();
        let mut r = Cursor::new(buf.clone());
        assert!(matches!(
            read_frame_as(&mut r, SNAP_MAGIC, 10),
            Err(FrameError::TooLarge {
                declared: 100,
                cap: 10
            })
        ));
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame_as(&mut r, SNAP_MAGIC, 100).unwrap().len(), 100);
    }
}
