//! Coordinator↔worker wire messages.
//!
//! Every message travels as one [`cedar_snap::frame`] — a sealed
//! envelope whose payload is the message's [`Snapshot`] encoding, so
//! the transport inherits the codec's checksum and version checks. A
//! job carries its [`JobSpec`] in that encoding; a result travels as a
//! *nested* sealed envelope (the exact bytes
//! [`Snapshot::to_snapshot_bytes`] produces for the [`JobOutcome`]),
//! which is what lets the coordinator commit a worker's result
//! straight into a [`CacheDir`](cedar_snap::CacheDir) entry
//! byte-for-byte identical to what a caching server stores.
//!
//! [`JobOutcome`]: cedar_serve::job::JobOutcome

use cedar_serve::job::JobSpec;
use cedar_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

/// Messages the coordinator sends to a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToWorker {
    /// Run one job: validate and execute `spec`, reply
    /// [`FromWorker::Done`] (or [`FromWorker::Fail`]).
    Job {
        /// Coordinator-side job index.
        job: u64,
        /// The experiment to run.
        spec: JobSpec,
    },
    /// Liveness probe; the worker echoes the nonce back as
    /// [`FromWorker::Pong`].
    Ping {
        /// Echoed verbatim so the coordinator can match replies.
        nonce: u64,
    },
    /// Clean shutdown request; the worker exits 0.
    Shutdown,
}

/// Messages a worker sends to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FromWorker {
    /// First frame after connecting: identifies which spawned slot and
    /// incarnation this connection belongs to.
    Hello {
        /// Worker slot index (from `CEDAR_CLUSTER_ID`).
        worker: u32,
        /// Incarnation number (from `CEDAR_CLUSTER_INCARNATION`);
        /// guards against a zombie predecessor's frames being
        /// attributed to its replacement.
        incarnation: u32,
        /// OS process id, for diagnostics.
        pid: u32,
    },
    /// A job completed; `result` is the sealed snapshot envelope of
    /// its `JobOutcome`.
    Done {
        /// The job index echoed from [`ToWorker::Job`].
        job: u64,
        /// The result as a sealed snapshot envelope.
        result: Vec<u8>,
    },
    /// A job failed deterministically (an out-of-bound spec, a
    /// watchdog-stalled simulation, or a panic).
    Fail {
        /// The job index echoed from [`ToWorker::Job`].
        job: u64,
        /// Human-readable failure description.
        reason: String,
    },
    /// Reply to [`ToWorker::Ping`].
    Pong {
        /// The probe's nonce, echoed.
        nonce: u64,
    },
}

const TAG_JOB: u8 = 1;
const TAG_PING: u8 = 2;
const TAG_SHUTDOWN: u8 = 3;
const TAG_HELLO: u8 = 16;
const TAG_DONE: u8 = 17;
const TAG_FAIL: u8 = 18;
const TAG_PONG: u8 = 19;

impl Snapshot for ToWorker {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            ToWorker::Job { job, spec } => {
                w.put_u8(TAG_JOB);
                w.put_u64(*job);
                spec.snap(w);
            }
            ToWorker::Ping { nonce } => {
                w.put_u8(TAG_PING);
                w.put_u64(*nonce);
            }
            ToWorker::Shutdown => w.put_u8(TAG_SHUTDOWN),
        }
    }

    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            TAG_JOB => Ok(ToWorker::Job {
                job: r.get_u64()?,
                spec: JobSpec::restore(r)?,
            }),
            TAG_PING => Ok(ToWorker::Ping {
                nonce: r.get_u64()?,
            }),
            TAG_SHUTDOWN => Ok(ToWorker::Shutdown),
            _ => Err(SnapError::Invalid("unknown ToWorker tag")),
        }
    }
}

impl Snapshot for FromWorker {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            FromWorker::Hello {
                worker,
                incarnation,
                pid,
            } => {
                w.put_u8(TAG_HELLO);
                w.put_u32(*worker);
                w.put_u32(*incarnation);
                w.put_u32(*pid);
            }
            FromWorker::Done { job, result } => {
                w.put_u8(TAG_DONE);
                w.put_u64(*job);
                w.put_bytes(result);
            }
            FromWorker::Fail { job, reason } => {
                w.put_u8(TAG_FAIL);
                w.put_u64(*job);
                w.put_str(reason);
            }
            FromWorker::Pong { nonce } => {
                w.put_u8(TAG_PONG);
                w.put_u64(*nonce);
            }
        }
    }

    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            TAG_HELLO => Ok(FromWorker::Hello {
                worker: r.get_u32()?,
                incarnation: r.get_u32()?,
                pid: r.get_u32()?,
            }),
            TAG_DONE => Ok(FromWorker::Done {
                job: r.get_u64()?,
                result: r.get_bytes()?.to_vec(),
            }),
            TAG_FAIL => Ok(FromWorker::Fail {
                job: r.get_u64()?,
                reason: r.get_string()?,
            }),
            TAG_PONG => Ok(FromWorker::Pong {
                nonce: r.get_u64()?,
            }),
            _ => Err(SnapError::Invalid("unknown FromWorker tag")),
        }
    }
}

/// Encodes a message as a frame payload (the raw snap encoding — the
/// frame layer adds the envelope).
#[must_use]
pub fn encode_msg<M: Snapshot>(msg: &M) -> Vec<u8> {
    let mut w = SnapWriter::new();
    msg.snap(&mut w);
    w.into_bytes()
}

/// Decodes a frame payload back into a message, rejecting trailing
/// bytes.
///
/// # Errors
///
/// Returns a [`SnapError`] on truncated, invalid or oversized input.
pub fn decode_msg<M: Snapshot>(payload: &[u8]) -> Result<M, SnapError> {
    let mut r = SnapReader::new(payload);
    let msg = M::restore(&mut r)?;
    if r.remaining() != 0 {
        return Err(SnapError::TrailingBytes);
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_serve::job::JobOutcome;

    #[test]
    fn every_message_round_trips() {
        let to: Vec<ToWorker> = vec![
            ToWorker::Job {
                job: 42,
                spec: JobSpec::Degraded {
                    rate_ppm: 2_000,
                    ces: 8,
                    blocks: 1,
                    seed: 7,
                },
            },
            ToWorker::Ping { nonce: 0xDEAD },
            ToWorker::Shutdown,
        ];
        for msg in to {
            let back: ToWorker = decode_msg(&encode_msg(&msg)).unwrap();
            assert_eq!(back, msg);
        }
        let from: Vec<FromWorker> = vec![
            FromWorker::Hello {
                worker: 3,
                incarnation: 2,
                pid: 999,
            },
            FromWorker::Done {
                job: 42,
                result: 49u64.to_snapshot_bytes(),
            },
            FromWorker::Fail {
                job: 42,
                reason: "job panicked".to_owned(),
            },
            FromWorker::Pong { nonce: 0xDEAD },
        ];
        for msg in from {
            let back: FromWorker = decode_msg(&encode_msg(&msg)).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_rejected() {
        assert!(decode_msg::<ToWorker>(&[99]).is_err());
        assert!(decode_msg::<FromWorker>(&[99]).is_err());
        let mut payload = encode_msg(&ToWorker::Shutdown);
        payload.push(0);
        assert!(matches!(
            decode_msg::<ToWorker>(&payload),
            Err(SnapError::TrailingBytes)
        ));
    }

    #[test]
    fn nested_result_envelope_is_cache_identical() {
        // The bytes a worker ships inside Done must be exactly what a
        // local store would have written for the same outcome.
        let value = JobOutcome {
            degraded: true,
            latency: 1.5,
            interarrival: 0.25,
            bandwidth: 0.75,
            net_cycles: 4_397,
            words_dropped: 3,
            retries: 2,
            failed: 0,
        };
        let msg = FromWorker::Done {
            job: 0,
            result: value.to_snapshot_bytes(),
        };
        let FromWorker::Done { result, .. } = decode_msg(&encode_msg(&msg)).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(result, value.to_snapshot_bytes());
        assert_eq!(JobOutcome::from_snapshot_bytes(&result).unwrap(), value);
    }
}
