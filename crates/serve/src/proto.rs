//! The `b"CSRV"` length-prefixed binary wire protocol.
//!
//! Binary requests and responses travel inside the exact envelope
//! `cedar-snap` uses for snapshots and cluster frames (byte layout in
//! [`cedar_snap::frame`]), with the magic swapped to `b"CSRV"` so a
//! serving-tier frame can never be confused with a snapshot. This
//! module holds only what is particular to the protocol: the magic,
//! the payload caps and the message encodings. Framing, the header
//! check and the checksum are `cedar-snap`'s.
//!
//! Payloads start with a client-chosen `u64` correlation id (echoed on
//! the response, which is what lets one connection pipeline many
//! requests) followed by a kind tag byte. The `Outcome` response
//! carries the job's result as a complete *sealed CSNP envelope* — the
//! very bytes [`CacheDir`](cedar_snap::CacheDir) stores — so a
//! memoized hit is forwarded without re-encoding (copied once, into the
//! frame) and clients get end-to-end checksum coverage of the result
//! for free.
//!
//! Every way a frame can be malformed maps to a typed [`ProtoError`];
//! the decoder never panics and the incremental [`FrameScanner`] never
//! hangs on garbage (a bad magic byte fails as soon as it arrives, a
//! declared length past the cap fails before buffering the body).

use cedar_snap::{
    frame, seal_as, seal_as_with, FrameError, SnapError, SnapReader, SnapWriter, Snapshot,
};

use crate::job::{JobError, JobSpec};

/// Envelope magic for serving-tier frames.
pub const PROTO_MAGIC: [u8; 4] = *b"CSRV";

/// Sanity cap on request payloads. Requests are a correlation id, a
/// tag and a job spec — kilobytes at most; anything bigger is garbage
/// or abuse and fails before it is buffered.
pub const MAX_REQUEST_PAYLOAD: u64 = 64 * 1024;

/// Sanity cap on response payloads (a Prometheus exposition or an
/// outcome envelope).
pub const MAX_RESPONSE_PAYLOAD: u64 = 16 * 1024 * 1024;

/// Why a binary frame or payload was rejected. Every variant is a
/// typed, connection-fatal protocol error: the stream position after
/// any of these is unreliable, so the server answers with an
/// [`Response::Error`] frame where it still can and closes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The envelope was malformed: wrong magic, version skew, checksum
    /// mismatch, truncation or trailing bytes.
    Corrupt(SnapError),
    /// The envelope declared a payload longer than the cap.
    Oversize {
        /// Declared payload length.
        declared: u64,
        /// The cap it exceeded.
        cap: u64,
    },
    /// The envelope checked out but its payload did not decode.
    BadPayload(SnapError),
    /// The payload named a request/response kind this build does not
    /// know.
    UnknownKind(u8),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Corrupt(e) => write!(f, "corrupt frame: {e}"),
            ProtoError::Oversize { declared, cap } => {
                write!(f, "frame declares {declared} payload bytes (cap {cap})")
            }
            ProtoError::BadPayload(e) => write!(f, "bad frame payload: {e}"),
            ProtoError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<FrameError> for ProtoError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Corrupt(e) => ProtoError::Corrupt(e),
            FrameError::TooLarge { declared, cap } => ProtoError::Oversize { declared, cap },
            FrameError::Eof | FrameError::Io(_) => ProtoError::Corrupt(SnapError::Truncated),
        }
    }
}

/// Wire `status` codes for [`Response::Error`], mirroring
/// [`JobError::status`] plus the connection-reap timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrStatus {
    /// Malformed or out-of-bounds request.
    Invalid,
    /// Admission control refused the job.
    Rejected,
    /// The deadline passed before execution.
    Expired,
    /// The server shut down before execution.
    Cancelled,
    /// The simulation wedged (watchdog).
    Stalled,
    /// The connection stalled mid-frame and was reaped.
    Timeout,
}

impl ErrStatus {
    /// The wire status string — identical to the line protocol's.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrStatus::Invalid => "invalid",
            ErrStatus::Rejected => "rejected",
            ErrStatus::Expired => "expired",
            ErrStatus::Cancelled => "cancelled",
            ErrStatus::Stalled => "error",
            ErrStatus::Timeout => "timeout",
        }
    }

    /// The [`JobError`] this status encodes, if any.
    #[must_use]
    pub fn from_job_error(err: &JobError) -> ErrStatus {
        match err {
            JobError::Invalid(_) => ErrStatus::Invalid,
            JobError::Rejected(_) => ErrStatus::Rejected,
            JobError::Expired => ErrStatus::Expired,
            JobError::Cancelled => ErrStatus::Cancelled,
            JobError::Stalled(_) => ErrStatus::Stalled,
        }
    }

    fn tag(self) -> u8 {
        match self {
            ErrStatus::Invalid => 0,
            ErrStatus::Rejected => 1,
            ErrStatus::Expired => 2,
            ErrStatus::Cancelled => 3,
            ErrStatus::Stalled => 4,
            ErrStatus::Timeout => 5,
        }
    }

    fn from_tag(tag: u8) -> Result<ErrStatus, ProtoError> {
        Ok(match tag {
            0 => ErrStatus::Invalid,
            1 => ErrStatus::Rejected,
            2 => ErrStatus::Expired,
            3 => ErrStatus::Cancelled,
            4 => ErrStatus::Stalled,
            5 => ErrStatus::Timeout,
            other => return Err(ProtoError::UnknownKind(other)),
        })
    }
}

/// One binary request. `corr` is chosen by the client and echoed on
/// the matching response.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping {
        /// Correlation id.
        corr: u64,
    },
    /// Run one job; answered with [`Response::Outcome`] or
    /// [`Response::Error`].
    Run {
        /// Correlation id.
        corr: u64,
        /// Priority lane (0 most urgent, clamped to 2).
        priority: u8,
        /// Optional deadline in milliseconds from admission.
        deadline_ms: Option<u64>,
        /// The work itself.
        spec: JobSpec,
    },
    /// Fetch the Prometheus exposition; answered with
    /// [`Response::MetricsText`].
    Metrics {
        /// Correlation id.
        corr: u64,
    },
    /// Begin graceful drain; answered with [`Response::ShutdownAck`]
    /// once the drain completes.
    Shutdown {
        /// Correlation id.
        corr: u64,
    },
}

impl Request {
    /// The request's correlation id.
    #[must_use]
    pub fn corr(&self) -> u64 {
        match *self {
            Request::Ping { corr }
            | Request::Run { corr, .. }
            | Request::Metrics { corr }
            | Request::Shutdown { corr } => corr,
        }
    }

    /// Encodes this request as one complete sealed frame.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        match self {
            Request::Ping { corr } => {
                w.put_u64(*corr);
                w.put_u8(0);
            }
            Request::Run {
                corr,
                priority,
                deadline_ms,
                spec,
            } => {
                w.put_u64(*corr);
                w.put_u8(1);
                w.put_u8(*priority);
                match deadline_ms {
                    Some(ms) => {
                        w.put_bool(true);
                        w.put_u64(*ms);
                    }
                    None => w.put_bool(false),
                }
                spec.snap(&mut w);
            }
            Request::Metrics { corr } => {
                w.put_u64(*corr);
                w.put_u8(2);
            }
            Request::Shutdown { corr } => {
                w.put_u64(*corr);
                w.put_u8(3);
            }
        }
        seal_as(PROTO_MAGIC, &w.into_bytes())
    }

    /// Decodes a request from an unsealed frame payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError::BadPayload`] on truncation or trailing bytes,
    /// [`ProtoError::UnknownKind`] on an unrecognized tag.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut r = SnapReader::new(payload);
        let corr = r.get_u64().map_err(ProtoError::BadPayload)?;
        let tag = r.get_u8().map_err(ProtoError::BadPayload)?;
        let req = match tag {
            0 => Request::Ping { corr },
            1 => {
                let priority = r.get_u8().map_err(ProtoError::BadPayload)?;
                let deadline_ms = if r.get_bool().map_err(ProtoError::BadPayload)? {
                    Some(r.get_u64().map_err(ProtoError::BadPayload)?)
                } else {
                    None
                };
                let spec = JobSpec::restore(&mut r).map_err(ProtoError::BadPayload)?;
                Request::Run {
                    corr,
                    priority,
                    deadline_ms,
                    spec,
                }
            }
            2 => Request::Metrics { corr },
            3 => Request::Shutdown { corr },
            other => return Err(ProtoError::UnknownKind(other)),
        };
        if r.remaining() != 0 {
            return Err(ProtoError::BadPayload(SnapError::TrailingBytes));
        }
        Ok(req)
    }
}

/// One binary response, echoing its request's correlation id.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong {
        /// Echoed correlation id.
        corr: u64,
        /// Whether the server is draining.
        draining: bool,
    },
    /// A completed job.
    Outcome {
        /// Echoed correlation id.
        corr: u64,
        /// Whether the result came from the memoization cache.
        cached: bool,
        /// The job's [`JobOutcome`](crate::job::JobOutcome) as a
        /// complete sealed CSNP envelope — cache-entry bytes verbatim.
        envelope: Vec<u8>,
    },
    /// A typed failure.
    Error {
        /// Echoed correlation id.
        corr: u64,
        /// Status code (same vocabulary as the line protocol).
        status: ErrStatus,
        /// Human-readable reason.
        reason: String,
    },
    /// The Prometheus exposition.
    MetricsText {
        /// Echoed correlation id.
        corr: u64,
        /// Exposition text.
        prometheus: String,
    },
    /// Graceful drain completed.
    ShutdownAck {
        /// Echoed correlation id.
        corr: u64,
        /// Always true: the ack is only sent once drained.
        drained: bool,
    },
}

impl Response {
    /// The response's correlation id.
    #[must_use]
    pub fn corr(&self) -> u64 {
        match *self {
            Response::Pong { corr, .. }
            | Response::Outcome { corr, .. }
            | Response::Error { corr, .. }
            | Response::MetricsText { corr, .. }
            | Response::ShutdownAck { corr, .. } => corr,
        }
    }

    /// Encodes this response as one complete sealed frame.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        match self {
            Response::Pong { corr, draining } => {
                w.put_u64(*corr);
                w.put_u8(0);
                w.put_bool(*draining);
            }
            Response::Outcome {
                corr,
                cached,
                envelope,
            } => return Response::encode_outcome(*corr, *cached, envelope),
            Response::Error {
                corr,
                status,
                reason,
            } => {
                w.put_u64(*corr);
                w.put_u8(2);
                w.put_u8(status.tag());
                w.put_str(reason);
            }
            Response::MetricsText { corr, prometheus } => {
                w.put_u64(*corr);
                w.put_u8(3);
                w.put_str(prometheus);
            }
            Response::ShutdownAck { corr, drained } => {
                w.put_u64(*corr);
                w.put_u8(4);
                w.put_bool(*drained);
            }
        }
        seal_as(PROTO_MAGIC, &w.into_bytes())
    }

    /// Encodes an [`Response::Outcome`] frame from a borrowed envelope,
    /// the same bytes [`encode`](Response::encode) gives. The envelope
    /// is copied once, straight into the sealed frame, so a server can
    /// answer from a shared cached envelope without first cloning it.
    #[must_use]
    pub fn encode_outcome(corr: u64, cached: bool, envelope: &[u8]) -> Vec<u8> {
        // corr (8) + tag (1) + cached (1) + length prefix (8).
        seal_as_with(PROTO_MAGIC, 18 + envelope.len(), |w| {
            w.put_u64(corr);
            w.put_u8(1);
            w.put_bool(cached);
            w.put_bytes(envelope);
        })
    }

    /// Decodes a response from an unsealed frame payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError::BadPayload`] on truncation or trailing bytes,
    /// [`ProtoError::UnknownKind`] on an unrecognized tag.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut r = SnapReader::new(payload);
        let corr = r.get_u64().map_err(ProtoError::BadPayload)?;
        let tag = r.get_u8().map_err(ProtoError::BadPayload)?;
        let resp = match tag {
            0 => Response::Pong {
                corr,
                draining: r.get_bool().map_err(ProtoError::BadPayload)?,
            },
            1 => Response::Outcome {
                corr,
                cached: r.get_bool().map_err(ProtoError::BadPayload)?,
                envelope: r.get_bytes().map_err(ProtoError::BadPayload)?.to_vec(),
            },
            2 => Response::Error {
                corr,
                status: ErrStatus::from_tag(r.get_u8().map_err(ProtoError::BadPayload)?)?,
                reason: r.get_string().map_err(ProtoError::BadPayload)?,
            },
            3 => Response::MetricsText {
                corr,
                prometheus: r.get_string().map_err(ProtoError::BadPayload)?,
            },
            4 => Response::ShutdownAck {
                corr,
                drained: r.get_bool().map_err(ProtoError::BadPayload)?,
            },
            other => return Err(ProtoError::UnknownKind(other)),
        };
        if r.remaining() != 0 {
            return Err(ProtoError::BadPayload(SnapError::TrailingBytes));
        }
        Ok(resp)
    }
}

/// Validates one complete frame buffer and returns its payload.
///
/// This is the non-incremental decode used on already-delimited
/// buffers (tests, recorded transcripts); live connections go through
/// [`FrameScanner`], which applies the same checks byte-by-byte.
///
/// # Errors
///
/// [`ProtoError::Oversize`] when the declared length exceeds `cap`,
/// [`ProtoError::Corrupt`] for every other malformation.
pub fn decode_frame(bytes: &[u8], cap: u64) -> Result<&[u8], ProtoError> {
    Ok(frame::unseal_frame(PROTO_MAGIC, bytes, cap)?)
}

/// The incremental `b"CSRV"` frame delimiter: a
/// [`cedar_snap::FrameScanner`] for this protocol's magic, with its
/// errors typed as [`ProtoError`].
#[derive(Debug)]
pub struct FrameScanner(frame::FrameScanner);

impl FrameScanner {
    /// A scanner enforcing `cap` on declared payload lengths.
    #[must_use]
    pub fn new(cap: u64) -> Self {
        FrameScanner(frame::FrameScanner::new(PROTO_MAGIC, cap))
    }

    /// Appends raw stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.0.extend(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.0.buffered()
    }

    /// Whether a frame is in progress — the condition the reap clock
    /// runs on.
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        self.0.mid_frame()
    }

    /// Yields the next complete validated payload, `Ok(None)` when
    /// more bytes are needed.
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`] as soon as the buffered prefix cannot be
    /// the start of a valid frame. After an error the connection must
    /// be closed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtoError> {
        Ok(self.0.next_frame()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_and_responses_round_trip() {
        let reqs = [
            Request::Ping { corr: 7 },
            Request::Metrics { corr: u64::MAX },
            Request::Shutdown { corr: 0 },
            Request::Run {
                corr: 42,
                priority: 2,
                deadline_ms: Some(1500),
                spec: JobSpec::Table2 {
                    kernel: 1,
                    ces: 4,
                    blocks: 2,
                },
            },
            Request::Run {
                corr: 43,
                priority: 0,
                deadline_ms: None,
                spec: JobSpec::Degraded {
                    rate_ppm: 20_000,
                    ces: 8,
                    blocks: 2,
                    seed: 0xCEDA,
                },
            },
        ];
        for req in reqs {
            let frame = req.encode();
            let payload = decode_frame(&frame, MAX_REQUEST_PAYLOAD).unwrap();
            assert_eq!(Request::decode(payload).unwrap(), req);
        }
        let resps = [
            Response::Pong {
                corr: 7,
                draining: true,
            },
            Response::Outcome {
                corr: 1,
                cached: true,
                envelope: cedar_snap::seal(b"pretend-outcome"),
            },
            Response::Error {
                corr: 2,
                status: ErrStatus::Rejected,
                reason: "queue full".into(),
            },
            Response::MetricsText {
                corr: 3,
                prometheus: "# HELP x\n".into(),
            },
            Response::ShutdownAck {
                corr: 4,
                drained: true,
            },
        ];
        for resp in resps {
            let frame = resp.encode();
            let payload = decode_frame(&frame, MAX_RESPONSE_PAYLOAD).unwrap();
            assert_eq!(Response::decode(payload).unwrap(), resp);
        }
    }

    #[test]
    fn scanner_reassembles_frames_from_any_split() {
        let a = Request::Ping { corr: 1 }.encode();
        let b = Request::Run {
            corr: 2,
            priority: 1,
            deadline_ms: None,
            spec: JobSpec::Hotspot {
                hot_ppm: 1000,
                ces: 2,
                blocks: 1,
            },
        }
        .encode();
        let stream: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        // Split the two-frame stream at every byte boundary.
        for split in 0..=stream.len() {
            let mut s = FrameScanner::new(MAX_REQUEST_PAYLOAD);
            let mut got = Vec::new();
            s.extend(&stream[..split]);
            while let Some(p) = s.next_frame().unwrap() {
                got.push(p);
            }
            s.extend(&stream[split..]);
            while let Some(p) = s.next_frame().unwrap() {
                got.push(p);
            }
            assert_eq!(got.len(), 2, "split at {split}");
            assert_eq!(Request::decode(&got[0]).unwrap(), Request::Ping { corr: 1 });
            assert_eq!(Request::decode(&got[1]).unwrap().corr(), 2);
            assert_eq!(s.buffered(), 0);
        }
    }

    #[test]
    fn scanner_rejects_garbage_at_the_first_wrong_byte() {
        let mut s = FrameScanner::new(MAX_REQUEST_PAYLOAD);
        s.extend(b"X");
        assert_eq!(
            s.next_frame(),
            Err(ProtoError::Corrupt(SnapError::BadMagic))
        );
        // A CSNP snapshot envelope on the CSRV port is typed garbage
        // too, at its third byte.
        let mut s = FrameScanner::new(MAX_REQUEST_PAYLOAD);
        s.extend(b"CSN");
        assert_eq!(
            s.next_frame(),
            Err(ProtoError::Corrupt(SnapError::BadMagic))
        );
    }

    #[test]
    fn scanner_rejects_oversize_before_buffering_the_body() {
        // A bare header, no body: the length alone must fail it.
        let mut bad = PROTO_MAGIC.to_vec();
        bad.push(cedar_snap::SNAP_VERSION);
        bad.extend_from_slice(&(MAX_REQUEST_PAYLOAD + 1).to_le_bytes());
        let mut s = FrameScanner::new(MAX_REQUEST_PAYLOAD);
        s.extend(&bad);
        assert!(matches!(
            s.next_frame(),
            Err(ProtoError::Oversize { cap, .. }) if cap == MAX_REQUEST_PAYLOAD
        ));
    }

    #[test]
    fn trailing_or_missing_payload_bytes_are_typed() {
        let frame = Request::Ping { corr: 5 }.encode();
        let payload = decode_frame(&frame, MAX_REQUEST_PAYLOAD).unwrap();
        let mut long = payload.to_vec();
        long.push(0);
        assert_eq!(
            Request::decode(&long),
            Err(ProtoError::BadPayload(SnapError::TrailingBytes))
        );
        assert!(matches!(
            Request::decode(&payload[..payload.len() - 1]),
            Err(ProtoError::BadPayload(_))
        ));
    }
}
