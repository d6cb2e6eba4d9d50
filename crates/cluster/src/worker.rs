//! The worker side: the worker process main loop and the one job it
//! runs.
//!
//! A cluster worker is the *same binary* as its coordinator, re-exec'd
//! with `CEDAR_CLUSTER_WORKER` set to the coordinator's address. Any
//! binary that wants to serve as a worker calls [`maybe_worker`] first
//! thing in `main`; in coordinator (or ordinary CLI) invocations the
//! call is a no-op, and in worker invocations it connects back, serves
//! jobs until told to stop, and exits without returning.
//!
//! Every job is a [`JobSpec`], the experiment type the serving tier
//! runs, executed with the server's cycle budget
//! ([`MAX_NET_CYCLES`]). Execution is a pure function of the spec, so
//! the coordinator can assert fleet results bit-identical to a serial
//! sweep and commit them under [`JobSpec::key`], where a caching server
//! finds them.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use cedar_faults::{parse_directive, WorkerFaultKind};
use cedar_serve::job::{caught, JobSpec, MAX_NET_CYCLES};
use cedar_snap::{read_frame, write_frame, FrameError, Snapshot};

use crate::proto::{decode_msg, encode_msg, FromWorker, ToWorker};

/// Environment variable carrying the coordinator address; its presence
/// is what makes an invocation a worker.
pub const WORKER_ENV: &str = "CEDAR_CLUSTER_WORKER";
/// Environment variable carrying the worker's slot index.
pub const ID_ENV: &str = "CEDAR_CLUSTER_ID";
/// Environment variable carrying the worker's incarnation number.
pub const INCARNATION_ENV: &str = "CEDAR_CLUSTER_INCARNATION";
/// Environment variable carrying an optional chaos directive
/// (`kind:after_jobs`, see [`cedar_faults::WorkerFault::directive`]).
pub const CHAOS_ENV: &str = "CEDAR_CLUSTER_CHAOS";

/// How long a chaos-stalled worker plays dead before giving up and
/// exiting on its own: long enough for any reasonable heartbeat budget
/// to reap it, short enough that an orphaned stalled process cannot
/// outlive its test run by much.
const STALL_CAP: Duration = Duration::from_secs(30);

/// Runs one job as a worker does. The spec arrived as outside bytes,
/// so its bounds are checked before the simulation runs. The result
/// is the sealed [`JobOutcome`](cedar_serve::job::JobOutcome)
/// envelope, or the reason the worker reports as [`FromWorker::Fail`];
/// a panicking job is a typed failure ([`caught`]), not a worker crash.
fn run_job(spec: &JobSpec) -> Result<Vec<u8>, String> {
    caught(|| {
        spec.validate()?;
        spec.execute(MAX_NET_CYCLES)
    })
    .map(|outcome| outcome.to_snapshot_bytes())
    .map_err(|e| e.reason())
}

/// If this invocation is a worker (`CEDAR_CLUSTER_WORKER` is set),
/// runs the worker loop and **exits the process**; otherwise returns
/// immediately. Call this first thing in `main` of any binary that
/// should be spawnable as a cluster worker.
pub fn maybe_worker() {
    if let Ok(addr) = std::env::var(WORKER_ENV) {
        let code = worker_main(&addr);
        std::process::exit(code);
    }
}

fn env_u32(name: &str) -> u32 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The worker process main loop: connect, introduce ourselves, serve
/// jobs until shutdown or coordinator loss. Returns the exit code.
fn worker_main(addr: &str) -> i32 {
    let worker = env_u32(ID_ENV);
    let incarnation = env_u32(INCARNATION_ENV);
    let chaos = std::env::var(CHAOS_ENV)
        .ok()
        .and_then(|d| parse_directive(&d));

    let Ok(mut stream) = TcpStream::connect(addr) else {
        return 3;
    };
    let hello = FromWorker::Hello {
        worker,
        incarnation,
        pid: std::process::id(),
    };
    if write_frame(&mut stream, &encode_msg(&hello)).is_err() {
        return 3;
    }

    let mut jobs_done: u32 = 0;
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            // Coordinator gone (cleanly or not): nothing left to do.
            Err(FrameError::Eof | FrameError::Io(_)) => return 0,
            // A corrupt frame from the coordinator means the stream
            // position is unreliable; bail rather than guess.
            Err(_) => return 4,
        };
        let Ok(msg) = decode_msg::<ToWorker>(&payload) else {
            return 4;
        };
        match msg {
            ToWorker::Job { job, spec } => {
                if let Some((kind, after_jobs)) = chaos {
                    if jobs_done == after_jobs {
                        match kind {
                            // Die mid-job, no reply, no cleanup — the
                            // supervisor sees a bare EOF.
                            WorkerFaultKind::Kill => std::process::exit(9),
                            // Play dead: stop reading and replying but
                            // stay connected, so only the heartbeat
                            // watchdog can tell.
                            WorkerFaultKind::Stall => {
                                std::thread::sleep(STALL_CAP);
                                std::process::exit(3);
                            }
                            // Reply with bytes that cannot frame: the
                            // supervisor's checksum path must catch it.
                            WorkerFaultKind::Corrupt => {
                                let _ = stream.write_all(&[0x5A; 64]);
                                let _ = stream.flush();
                                // Keep running; the coordinator will
                                // kill this incarnation.
                                continue;
                            }
                        }
                    }
                }
                let reply = match run_job(&spec) {
                    Ok(result) => {
                        jobs_done += 1;
                        FromWorker::Done { job, result }
                    }
                    Err(reason) => FromWorker::Fail { job, reason },
                };
                if write_frame(&mut stream, &encode_msg(&reply)).is_err() {
                    return 0;
                }
            }
            ToWorker::Ping { nonce } => {
                if write_frame(&mut stream, &encode_msg(&FromWorker::Pong { nonce })).is_err() {
                    return 0;
                }
            }
            ToWorker::Shutdown => return 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_spec_runs_to_its_outcome_envelope() {
        let spec = JobSpec::Hotspot {
            hot_ppm: 250_000,
            ces: 4,
            blocks: 1,
        };
        let bytes = run_job(&spec).unwrap();
        assert_eq!(
            bytes,
            spec.execute(MAX_NET_CYCLES).unwrap().to_snapshot_bytes(),
            "the worker ships exactly the envelope the server stores"
        );
    }

    #[test]
    fn out_of_bound_spec_is_a_typed_failure() {
        let err = run_job(&JobSpec::Table2 {
            kernel: 7,
            ces: 4,
            blocks: 2,
        })
        .unwrap_err();
        assert!(err.contains("job.kernel must be in 0..=3"), "{err}");
    }
}
