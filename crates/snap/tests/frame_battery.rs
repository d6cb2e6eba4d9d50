//! Structural fuzzing of the one envelope frame reader.
//!
//! Every binary wire format in the workspace reads its frames through
//! `cedar_snap::frame`: the blocking [`read_frame_as`] the cluster
//! uses and the incremental [`FrameScanner`] the serving tier's
//! reactors use. This battery drives both with valid `b"CSNP"` and
//! `b"CSRV"` frames of every payload size class from empty to 4 KiB,
//! then corrupts them systematically:
//!
//! 1. every one-byte flip is a typed error, chosen by the byte's
//!    field (magic, version, length, body);
//! 2. every truncation waits (scanner) or is a typed error (blocking
//!    reader, complete-buffer decoder);
//! 3. every length field above the cap is a typed error before a
//!    buffer of the declared size exists;
//!
//! and none of it panics. Everything here is in-process and
//! deterministic.

use std::io::{Cursor, Read};

use cedar_snap::{
    read_frame_as, seal_as, unseal_frame, FrameError, FrameScanner, SnapError, ENVELOPE_HEADER_LEN,
    ENVELOPE_OVERHEAD, SNAP_MAGIC, SNAP_VERSION,
};

const CSRV: [u8; 4] = *b"CSRV";
const MAGICS: [[u8; 4]; 2] = [SNAP_MAGIC, CSRV];

/// The payload cap every reader here enforces: the largest size class.
const CAP: u64 = 4096;

/// Payload sizes from empty to the cap, with off-by-ones around
/// powers of two.
const SIZES: [usize; 12] = [0, 1, 2, 3, 7, 8, 13, 64, 255, 1024, 4095, 4096];

fn payload(n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| (i.wrapping_mul(31) ^ (i >> 8)) as u8)
        .collect()
}

fn frames() -> impl Iterator<Item = ([u8; 4], Vec<u8>, Vec<u8>)> {
    MAGICS.into_iter().flat_map(|magic| {
        SIZES.into_iter().map(move |n| {
            let p = payload(n);
            (magic, seal_as(magic, &p), p)
        })
    })
}

/// Feeds `bytes` to a fresh scanner in one chunk and asks for a frame.
fn scan(magic: [u8; 4], bytes: &[u8]) -> (FrameScanner, Result<Option<Vec<u8>>, FrameError>) {
    let mut s = FrameScanner::new(magic, CAP);
    s.extend(bytes);
    let got = s.next_frame();
    (s, got)
}

/// A reader that refuses any single read larger than a frame under
/// the cap could need, so a reader that sized a buffer from an
/// unchecked length field fails loudly instead of allocating it.
struct Bounded<'a>(Cursor<&'a [u8]>);

impl Read for Bounded<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        assert!(
            buf.len() <= CAP as usize + ENVELOPE_OVERHEAD,
            "a {}-byte read was requested",
            buf.len()
        );
        self.0.read(buf)
    }
}

fn read(magic: [u8; 4], bytes: &[u8]) -> Result<Vec<u8>, FrameError> {
    read_frame_as(&mut Bounded(Cursor::new(bytes)), magic, CAP)
}

fn declared(frame: &[u8]) -> u64 {
    u64::from_le_bytes(frame[5..ENVELOPE_HEADER_LEN].try_into().unwrap())
}

#[test]
fn valid_frames_round_trip_through_every_reader() {
    for (magic, frame, p) in frames() {
        assert_eq!(read(magic, &frame).unwrap(), p);
        assert_eq!(unseal_frame(magic, &frame, CAP).unwrap(), p);
        let (s, got) = scan(magic, &frame);
        assert_eq!(got.unwrap(), Some(p));
        assert_eq!(s.buffered(), 0);
    }
}

#[test]
fn back_to_back_frames_reassemble_from_any_chunking() {
    for magic in MAGICS {
        let payloads: Vec<Vec<u8>> = SIZES.iter().map(|&n| payload(n)).collect();
        let stream: Vec<u8> = payloads.iter().flat_map(|p| seal_as(magic, p)).collect();
        for chunk in [1, 7, 13, 21, 4096] {
            let mut s = FrameScanner::new(magic, CAP);
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                s.extend(piece);
                while let Some(p) = s.next_frame().unwrap() {
                    got.push(p);
                }
            }
            assert_eq!(got, payloads, "chunk {chunk}");
            assert!(!s.mid_frame());
        }
        let mut r = Cursor::new(&stream[..]);
        for p in &payloads {
            assert_eq!(&read_frame_as(&mut r, magic, CAP).unwrap(), p);
        }
        assert!(matches!(
            read_frame_as(&mut r, magic, CAP),
            Err(FrameError::Eof)
        ));
    }
}

#[test]
fn every_one_byte_flip_is_a_typed_error() {
    for (magic, frame, p) in frames() {
        let len = declared(&frame);
        for pos in 0..frame.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = frame.clone();
                bad[pos] ^= flip;
                let what = format!("{magic:?} size {} byte {pos} ^{flip:#x}", p.len());
                let (s, scanned) = scan(magic, &bad);
                let read = read(magic, &bad);
                let unsealed = unseal_frame(magic, &bad, CAP);
                match pos {
                    0..=3 => {
                        for e in [scanned.unwrap_err(), read.unwrap_err()] {
                            assert!(
                                matches!(e, FrameError::Corrupt(SnapError::BadMagic)),
                                "{what}: {e}"
                            );
                        }
                    }
                    4 => {
                        for e in [scanned.unwrap_err(), read.unwrap_err()] {
                            assert!(
                                matches!(e, FrameError::Corrupt(SnapError::BadVersion { .. })),
                                "{what}: {e}"
                            );
                        }
                    }
                    5..=12 if declared(&bad) > CAP => {
                        for e in [scanned.unwrap_err(), read.unwrap_err()] {
                            assert!(
                                matches!(e, FrameError::TooLarge { cap: CAP, .. }),
                                "{what}: {e}"
                            );
                        }
                    }
                    5..=12 if declared(&bad) > len => {
                        // A longer, still-legal frame: the scanner
                        // waits for the rest, the blocking reader hits
                        // the end of the stream mid-frame.
                        assert_eq!(scanned.unwrap(), None, "{what}");
                        assert!(s.mid_frame(), "{what}");
                        assert!(matches!(read, Err(FrameError::Io(_))), "{what}");
                    }
                    _ => {
                        // A shorter length or any body byte: the
                        // checksum no longer matches.
                        for e in [scanned.unwrap_err(), read.unwrap_err()] {
                            assert!(
                                matches!(e, FrameError::Corrupt(SnapError::BadChecksum)),
                                "{what}: {e}"
                            );
                        }
                    }
                }
                assert!(unsealed.is_err(), "{what}");
            }
        }
    }
}

#[test]
fn every_truncation_waits_or_is_a_typed_error() {
    for (magic, frame, p) in frames() {
        for cut in 0..frame.len() {
            let what = format!("{magic:?} size {} cut {cut}", p.len());
            let (mut s, scanned) = scan(magic, &frame[..cut]);
            assert_eq!(scanned.unwrap(), None, "{what}");
            assert_eq!(s.mid_frame(), cut > 0, "{what}");
            s.extend(&frame[cut..]);
            assert_eq!(s.next_frame().unwrap().as_ref(), Some(&p), "{what}");
            match read(magic, &frame[..cut]) {
                Err(FrameError::Eof) => assert_eq!(cut, 0, "{what}"),
                Err(FrameError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{what}");
                }
                other => panic!("{what}: {other:?}"),
            }
            assert!(
                matches!(
                    unseal_frame(magic, &frame[..cut], CAP),
                    Err(FrameError::Corrupt(SnapError::Truncated))
                ),
                "{what}"
            );
        }
    }
}

#[test]
fn every_length_above_the_cap_fails_before_its_buffer_exists() {
    let lengths = [
        CAP + 1,
        CAP * 2,
        1 << 32,
        1 << 40,
        (usize::MAX as u64) - 1,
        u64::MAX,
    ];
    for magic in MAGICS {
        for len in lengths {
            // A bare header: nothing follows the length field, so a
            // reader that waited for (or read) the body would show it.
            let mut header = magic.to_vec();
            header.push(SNAP_VERSION);
            header.extend_from_slice(&len.to_le_bytes());
            let (_, scanned) = scan(magic, &header);
            for e in [scanned.unwrap_err(), read(magic, &header).unwrap_err()] {
                assert!(
                    matches!(e, FrameError::TooLarge { declared, cap: CAP } if declared == len),
                    "{magic:?} len {len}: {e}"
                );
            }
            assert!(matches!(
                unseal_frame(magic, &header, CAP),
                Err(FrameError::TooLarge { .. })
            ));
        }
    }
}

#[test]
fn each_magic_rejects_the_other_at_its_first_differing_byte() {
    let snap = seal_as(SNAP_MAGIC, b"x");
    let serve = seal_as(CSRV, b"x");
    // "CSNP" and "CSRV" share two bytes; the third tells them apart.
    for (magic, foreign) in [(SNAP_MAGIC, &serve), (CSRV, &snap)] {
        let (_, at_two) = scan(magic, &foreign[..2]);
        assert_eq!(at_two.unwrap(), None);
        let (_, at_three) = scan(magic, &foreign[..3]);
        assert!(matches!(
            at_three,
            Err(FrameError::Corrupt(SnapError::BadMagic))
        ));
        assert!(matches!(
            read(magic, foreign),
            Err(FrameError::Corrupt(SnapError::BadMagic))
        ));
    }
}
