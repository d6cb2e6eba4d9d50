//! The binary-protocol test battery.
//!
//! Three layers, cheapest first:
//!
//! 1. **In-process frame fuzzing** — no sockets, fully deterministic:
//!    every frame type round-trips across payload sizes up to the
//!    64 KiB request cap; every one-byte corruption of a valid frame
//!    is rejected with a typed error; every truncation leaves the
//!    incremental scanner waiting, never wedged or panicking.
//! 2. **Partial-I/O regressions** — a live server fed one byte at a
//!    time, and a client reading one byte at a time, with the
//!    `serve.reactor.wakeups` counter asserting the readiness loop
//!    does a bounded amount of work per frame (a busy-poll regression
//!    turns this number unbounded).
//! 3. **A mixed-protocol soak** — line-JSON and binary clients on the
//!    same listener while adversarial connections die mid-frame, send
//!    garbage, or stall into the reap path; every healthy request gets
//!    a terminal reply and every unique job executes exactly once.
//!
//! The server's pool width is `ServeConfig::workers`, not the
//! environment, so the only nondeterminism is scheduling, which the
//! assertions are insensitive to.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cedar_serve::config::ServeConfig;
use cedar_serve::job::{JobOutcome, JobSpec};
use cedar_serve::loadgen::{BinClient, Client};
use cedar_serve::proto::{
    decode_frame, ErrStatus, FrameScanner, ProtoError, Request, Response, MAX_REQUEST_PAYLOAD,
    MAX_RESPONSE_PAYLOAD,
};
use cedar_serve::server::{start, ServerHandle};
use cedar_snap::Snapshot;

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cedar-proto-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_on_any_port(mut cfg: ServeConfig) -> (ServerHandle, String) {
    cfg.addr = "127.0.0.1:0".to_owned();
    let handle = start(cfg).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn hotspot(ppm: u32) -> JobSpec {
    JobSpec::Hotspot {
        hot_ppm: ppm,
        ces: 1,
        blocks: 1,
    }
}

/// A spread of payload sizes from empty through the request cap,
/// including off-by-one sizes around powers of two.
const SIZES: [usize; 12] = [0, 1, 2, 3, 7, 13, 64, 255, 1024, 4095, 16 * 1024, 64 * 1024];

fn filler(n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| (i.wrapping_mul(31) ^ (i >> 8)) as u8)
        .collect()
}

#[test]
fn every_frame_type_round_trips_across_payload_sizes() {
    // Requests: every variant, corner-case correlation ids.
    let requests = [
        Request::Ping { corr: 0 },
        Request::Metrics { corr: u64::MAX },
        Request::Shutdown { corr: 1 },
        Request::Run {
            corr: 0xDEAD_BEEF,
            priority: 2,
            deadline_ms: Some(0),
            spec: hotspot(999_999),
        },
        Request::Run {
            corr: 9,
            priority: 0,
            deadline_ms: None,
            spec: JobSpec::Degraded {
                rate_ppm: 1,
                ces: 8,
                blocks: 4,
                seed: u64::MAX,
            },
        },
    ];
    for req in requests {
        let frame = req.encode();
        let payload = decode_frame(&frame, MAX_REQUEST_PAYLOAD).unwrap();
        assert_eq!(Request::decode(payload).unwrap(), req);
    }
    // Responses: every variant, with the variable-length ones swept
    // across the size spread (the Outcome envelope and the Prometheus
    // text are the two payloads that actually grow in production).
    for n in SIZES {
        let resps = [
            Response::Pong {
                corr: n as u64,
                draining: n % 2 == 0,
            },
            Response::Outcome {
                corr: 1,
                cached: true,
                envelope: filler(n),
            },
            Response::Error {
                corr: 2,
                status: ErrStatus::Timeout,
                reason: "x".repeat(n.min(4096)),
            },
            Response::MetricsText {
                corr: 3,
                prometheus: "m".repeat(n),
            },
            Response::ShutdownAck {
                corr: 4,
                drained: true,
            },
        ];
        for resp in resps {
            let frame = resp.encode();
            let payload = decode_frame(&frame, MAX_RESPONSE_PAYLOAD).unwrap();
            assert_eq!(Response::decode(payload).unwrap(), resp, "size {n}");
        }
    }
}

#[test]
fn every_one_byte_corruption_is_rejected_typed() {
    let frames: Vec<(Vec<u8>, u64)> = vec![
        (Request::Ping { corr: 7 }.encode(), MAX_REQUEST_PAYLOAD),
        (
            Request::Run {
                corr: 42,
                priority: 1,
                deadline_ms: Some(250),
                spec: hotspot(123_456),
            }
            .encode(),
            MAX_REQUEST_PAYLOAD,
        ),
        (
            Response::Outcome {
                corr: 8,
                cached: false,
                envelope: filler(64),
            }
            .encode(),
            MAX_RESPONSE_PAYLOAD,
        ),
    ];
    for (frame, cap) in &frames {
        let good_payload = decode_frame(frame, *cap).unwrap().to_vec();
        for pos in 0..frame.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = frame.clone();
                bad[pos] ^= flip;
                // The complete-buffer decoder must reject every
                // corruption with a typed error — magic, version and
                // length flips at the header, checksum mismatches
                // everywhere else. Never a panic, never an Ok.
                let err = decode_frame(&bad, *cap)
                    .err()
                    .unwrap_or_else(|| panic!("corruption at byte {pos} (^{flip:#x}) accepted"));
                assert!(
                    matches!(err, ProtoError::Corrupt(_) | ProtoError::Oversize { .. }),
                    "byte {pos} ^{flip:#x}: {err}"
                );
                // The incremental scanner gets the same bytes. It may
                // legitimately *wait* (a corrupt length field can
                // declare a longer, still-under-cap frame) but must
                // never panic, spin, or yield the original payload.
                let mut s = FrameScanner::new(*cap);
                s.extend(&bad);
                for _ in 0..4 {
                    match s.next_frame() {
                        Ok(Some(p)) => assert_ne!(p, good_payload, "byte {pos} ^{flip:#x}"),
                        Ok(None) => {
                            assert!(s.mid_frame(), "byte {pos} ^{flip:#x}");
                            break;
                        }
                        Err(_) => break,
                    }
                }
            }
        }
    }
}

#[test]
fn every_truncation_waits_and_every_prefix_is_garbage_free() {
    let frame = Request::Run {
        corr: 3,
        priority: 0,
        deadline_ms: None,
        spec: hotspot(777),
    }
    .encode();
    for cut in 0..frame.len() {
        // A truncated buffer is not a frame.
        assert!(
            decode_frame(&frame[..cut], MAX_REQUEST_PAYLOAD).is_err(),
            "cut {cut}"
        );
        // The scanner waits for the rest rather than erroring: every
        // strict prefix of a valid frame is a valid partial frame.
        let mut s = FrameScanner::new(MAX_REQUEST_PAYLOAD);
        s.extend(&frame[..cut]);
        assert_eq!(s.next_frame().unwrap(), None, "cut {cut}");
        assert_eq!(s.mid_frame(), cut > 0);
        // Completing the frame yields exactly the payload.
        s.extend(&frame[cut..]);
        let payload = s.next_frame().unwrap().expect("completed frame");
        assert_eq!(Request::decode(&payload).unwrap().corr(), 3);
        assert_eq!(s.buffered(), 0);
    }
}

#[test]
fn one_byte_writes_reach_the_dispatcher_with_bounded_wakeups() {
    let cache = scratch("drip");
    let (handle, addr) = start_on_any_port(ServeConfig {
        cache_dir: Some(cache.clone()),
        workers: 2,
        ..ServeConfig::default()
    });
    let obs = handle.obs();
    let frame = Request::Run {
        corr: 11,
        priority: 1,
        deadline_ms: None,
        spec: hotspot(101_010),
    }
    .encode();
    let before = obs.counter_value("serve.reactor.wakeups");
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    // Drip the frame one byte at a time, each its own segment: the
    // worst-case read fragmentation the reactor can see.
    for b in &frame {
        stream.write_all(std::slice::from_ref(b)).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut scanner = FrameScanner::new(MAX_RESPONSE_PAYLOAD);
    let mut byte = [0u8; 1];
    let reply = loop {
        if let Some(p) = scanner.next_frame().unwrap() {
            break Response::decode(&p).unwrap();
        }
        assert_ne!(stream.read(&mut byte).unwrap(), 0, "server closed early");
        scanner.extend(&byte);
    };
    match reply {
        Response::Outcome {
            corr,
            cached,
            envelope,
        } => {
            assert_eq!(corr, 11);
            assert!(!cached);
            JobOutcome::from_snapshot_bytes(&envelope).expect("sealed outcome envelope");
        }
        other => panic!("expected Outcome, got {other:?}"),
    }
    // The readiness loop should wake roughly once per delivered byte
    // plus a constant for accept/dispatch traffic. A busy-poll
    // regression (level-triggered POLLOUT registered while nothing is
    // owed, a zero poll timeout) blows this bound by orders of
    // magnitude.
    let wakeups = obs.counter_value("serve.reactor.wakeups") - before;
    assert!(wakeups >= 3, "counter not wired: {wakeups}");
    assert!(
        wakeups <= (frame.len() as u64) * 3 + 96,
        "unbounded wakeups: {wakeups} for a {}-byte frame",
        frame.len()
    );
    drop(stream);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn one_byte_reads_drain_a_large_metrics_frame() {
    let (handle, addr) = start_on_any_port(ServeConfig::default());
    let mut client = BinClient::connect(&addr).unwrap();
    // Prime a request so the exposition is non-trivial.
    match client.request(&Request::Ping { corr: 1 }).unwrap() {
        Response::Pong { corr, draining } => {
            assert_eq!(corr, 1);
            assert!(!draining);
        }
        other => panic!("expected Pong, got {other:?}"),
    }
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .write_all(&Request::Metrics { corr: 2 }.encode())
        .unwrap();
    let mut scanner = FrameScanner::new(MAX_RESPONSE_PAYLOAD);
    let mut byte = [0u8; 1];
    let reply = loop {
        if let Some(p) = scanner.next_frame().unwrap() {
            break Response::decode(&p).unwrap();
        }
        assert_ne!(stream.read(&mut byte).unwrap(), 0, "server closed early");
        scanner.extend(&byte);
    };
    match reply {
        Response::MetricsText { corr, prometheus } => {
            assert_eq!(corr, 2);
            assert!(
                prometheus.contains("serve_requests_received"),
                "exposition missing serve counters"
            );
            assert!(prometheus.len() > 512, "suspiciously small exposition");
        }
        other => panic!("expected MetricsText, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn pipelined_requests_on_one_connection_all_complete() {
    let cache = scratch("pipeline");
    let (handle, addr) = start_on_any_port(ServeConfig {
        cache_dir: Some(cache.clone()),
        ..ServeConfig::default()
    });
    const DEPTH: u64 = 8;
    let mut stream = TcpStream::connect(&addr).unwrap();
    // Write all eight Run frames back-to-back before reading anything:
    // the correlation ids are what let the replies come back in
    // completion order rather than submission order.
    let mut batch = Vec::new();
    for corr in 0..DEPTH {
        batch.extend_from_slice(
            &Request::Run {
                corr,
                priority: (corr % 3) as u8,
                deadline_ms: None,
                spec: hotspot(500_000 + corr as u32),
            }
            .encode(),
        );
    }
    stream.write_all(&batch).unwrap();
    let mut scanner = FrameScanner::new(MAX_RESPONSE_PAYLOAD);
    let mut seen = std::collections::BTreeSet::new();
    let mut buf = [0u8; 4096];
    while seen.len() < DEPTH as usize {
        while let Some(p) = scanner.next_frame().unwrap() {
            match Response::decode(&p).unwrap() {
                Response::Outcome { corr, envelope, .. } => {
                    JobOutcome::from_snapshot_bytes(&envelope).expect("sealed outcome");
                    assert!(seen.insert(corr), "duplicate reply for corr {corr}");
                }
                other => panic!("expected Outcome, got {other:?}"),
            }
        }
        if seen.len() == DEPTH as usize {
            break;
        }
        let n = stream.read(&mut buf).unwrap();
        assert_ne!(n, 0, "server closed with {} replies outstanding", DEPTH);
        scanner.extend(&buf[..n]);
    }
    assert_eq!(seen, (0..DEPTH).collect());
    assert_eq!(handle.obs().counter_value("serve.jobs.executed"), DEPTH);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

/// Waits until `counter` reaches `want` or the deadline passes.
fn await_counter(handle: &ServerHandle, counter: &str, want: u64, patience: Duration) -> u64 {
    let deadline = Instant::now() + patience;
    loop {
        let have = handle.obs().counter_value(counter);
        if have >= want || Instant::now() >= deadline {
            return have;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn mixed_protocol_soak_drops_nothing_and_executes_exactly_once() {
    let cache = scratch("soak");
    let (handle, addr) = start_on_any_port(ServeConfig {
        cache_dir: Some(cache.clone()),
        queue_capacity: 256,
        workers: 4,
        line_timeout: Duration::from_millis(400),
        ..ServeConfig::default()
    });

    const JSON_WORKERS: usize = 4;
    const BIN_WORKERS: usize = 4;
    const PER_WORKER: usize = 6;
    // One spec requested by every protocol at once: the exactly-once
    // witness. ppm 333_333 == fraction 0.333333 on the JSON side.
    const SHARED_PPM: u32 = 333_333;

    let (healthy_failures, lorises): (Vec<String>, Vec<TcpStream>) = std::thread::scope(|scope| {
        let mut tasks = Vec::new();
        // Line-JSON workers: unique fractions 1001..=1024 ppm.
        for w in 0..JSON_WORKERS {
            let addr = addr.clone();
            tasks.push(scope.spawn(move || {
                let mut failures = Vec::new();
                let mut c = match Client::connect(&addr) {
                    Ok(c) => c,
                    Err(e) => return vec![format!("json {w}: connect: {e}")],
                };
                for i in 0..PER_WORKER {
                    let ppm = 1001 + (w * PER_WORKER + i) as u32;
                    let line = format!(
                        r#"{{"op":"run","job":{{"type":"hotspot","fraction":{},"ces":1,"blocks":1}}}}"#,
                        ppm as f64 / 1e6
                    );
                    match c.request(&line) {
                        Ok(reply) => {
                            let status = reply
                                .get("status")
                                .and_then(cedar_serve::json::Json::as_str)
                                .unwrap_or("?")
                                .to_owned();
                            if status != "ok" {
                                failures.push(format!("json {w}.{i}: status {status}"));
                            }
                        }
                        Err(e) => failures.push(format!("json {w}.{i}: {e}")),
                    }
                }
                // The shared spec, through the line protocol.
                let shared = format!(
                    r#"{{"op":"run","job":{{"type":"hotspot","fraction":{},"ces":1,"blocks":1}}}}"#,
                    f64::from(SHARED_PPM) / 1e6
                );
                match c.request(&shared) {
                    Ok(reply)
                        if reply
                            .get("status")
                            .and_then(cedar_serve::json::Json::as_str)
                            == Some("ok") => {}
                    Ok(reply) => failures.push(format!("json {w} shared: {reply:?}")),
                    Err(e) => failures.push(format!("json {w} shared: {e}")),
                }
                failures
            }));
        }
        // Binary workers: unique ppm 2001..=2024, disjoint from JSON.
        for w in 0..BIN_WORKERS {
            let addr = addr.clone();
            tasks.push(scope.spawn(move || {
                let mut failures = Vec::new();
                let mut c = match BinClient::connect(&addr) {
                    Ok(c) => c,
                    Err(e) => return vec![format!("bin {w}: connect: {e}")],
                };
                for i in 0..PER_WORKER {
                    let ppm = 2001 + (w * PER_WORKER + i) as u32;
                    let corr = (w * PER_WORKER + i) as u64;
                    match c.request(&Request::Run {
                        corr,
                        priority: 1,
                        deadline_ms: None,
                        spec: hotspot(ppm),
                    }) {
                        Ok(Response::Outcome {
                            corr: echoed,
                            envelope,
                            ..
                        }) => {
                            if echoed != corr {
                                failures.push(format!("bin {w}.{i}: corr {echoed} != {corr}"));
                            }
                            if JobOutcome::from_snapshot_bytes(&envelope).is_err() {
                                failures.push(format!("bin {w}.{i}: bad envelope"));
                            }
                        }
                        Ok(other) => failures.push(format!("bin {w}.{i}: {other:?}")),
                        Err(e) => failures.push(format!("bin {w}.{i}: {e}")),
                    }
                }
                match c.request(&Request::Run {
                    corr: 9_000 + w as u64,
                    priority: 0,
                    deadline_ms: None,
                    spec: hotspot(SHARED_PPM),
                }) {
                    Ok(Response::Outcome { .. }) => {}
                    Ok(other) => failures.push(format!("bin {w} shared: {other:?}")),
                    Err(e) => failures.push(format!("bin {w} shared: {e}")),
                }
                failures
            }));
        }
        // Adversaries, concurrent with the healthy load.
        let adversary = {
            let addr = addr.clone();
            scope.spawn(move || {
                // Three binary slow-lorises: a partial frame, held
                // open. Reaped by the line_timeout clock.
                let lorises: Vec<TcpStream> = (0..3)
                    .map(|_| {
                        let mut s = TcpStream::connect(&addr).unwrap();
                        s.write_all(b"CSRV").unwrap();
                        s
                    })
                    .collect();
                // Two connections that die mid-frame: a kill, not a
                // drop of anything healthy.
                for _ in 0..2 {
                    let mut s = TcpStream::connect(&addr).unwrap();
                    let frame = Request::Ping { corr: 1 }.encode();
                    s.write_all(&frame[..frame.len() / 2]).unwrap();
                    drop(s);
                }
                // Two half-line JSON clients that die, and one line of
                // garbage that gets a typed invalid reply.
                for _ in 0..2 {
                    let mut s = TcpStream::connect(&addr).unwrap();
                    s.write_all(b"{\"op\":\"ru").unwrap();
                    drop(s);
                }
                {
                    let mut s = TcpStream::connect(&addr).unwrap();
                    s.write_all(b"this is not json\n").unwrap();
                    let mut reply = String::new();
                    let mut r = std::io::BufReader::new(&mut s);
                    std::io::BufRead::read_line(&mut r, &mut reply).unwrap();
                    assert!(reply.contains("\"invalid\""), "{reply}");
                }
                // Two binary corruptions: version skew after a valid
                // magic — a typed corrupt error frame, then close.
                for _ in 0..2 {
                    let mut s = TcpStream::connect(&addr).unwrap();
                    s.write_all(b"CSRV\xFFgarbage").unwrap();
                    let mut scanner = FrameScanner::new(MAX_RESPONSE_PAYLOAD);
                    let mut buf = [0u8; 1024];
                    let reply = loop {
                        if let Some(p) = scanner.next_frame().unwrap() {
                            break Response::decode(&p).unwrap();
                        }
                        let n = s.read(&mut buf).unwrap();
                        assert_ne!(n, 0, "no typed reply before close");
                        scanner.extend(&buf[..n]);
                    };
                    match reply {
                        Response::Error { status, .. } => {
                            assert_eq!(status, ErrStatus::Invalid);
                        }
                        other => panic!("expected Error, got {other:?}"),
                    }
                }
                // A valid Run sent by a client that dies before the
                // reply: a duplicate of the shared spec, so it changes
                // no execution counts.
                {
                    let mut s = TcpStream::connect(&addr).unwrap();
                    s.write_all(
                        &Request::Run {
                            corr: 77,
                            priority: 1,
                            deadline_ms: None,
                            spec: hotspot(SHARED_PPM),
                        }
                        .encode(),
                    )
                    .unwrap();
                    drop(s);
                }
                lorises
            })
        };
        let lorises = adversary.join().unwrap();
        let failures: Vec<String> = tasks.into_iter().flat_map(|t| t.join().unwrap()).collect();
        // The lorises outlive the scope: an early drop is an EOF
        // mid-frame (a silent close), not the stall reap under test.
        (failures, lorises)
    });
    assert!(
        healthy_failures.is_empty(),
        "healthy requests dropped or failed:\n{}",
        healthy_failures.join("\n")
    );

    // Exactly once: every unique spec executed a single time, however
    // many protocols, connections and retries asked for it.
    let unique = (JSON_WORKERS * PER_WORKER + BIN_WORKERS * PER_WORKER + 1) as u64;
    assert_eq!(
        handle.obs().counter_value("serve.jobs.executed"),
        unique,
        "coalesced={} cache_hits={}",
        handle.obs().counter_value("serve.dedup.coalesced"),
        handle.obs().counter_value("serve.cache.hits")
    );
    // The lorises reap on the stall clock; the corrupt frames were
    // counted as they arrived.
    let reaped = await_counter(
        &handle,
        "serve.conn.reaped_read",
        3,
        Duration::from_secs(10),
    );
    assert!(reaped >= 3, "lorises never reaped: {reaped}");
    assert!(handle.obs().counter_value("serve.proto.corrupt") >= 2);
    drop(lorises);

    // Finish through the binary drain path: the ack only comes back
    // once the dispatcher has drained, on a connection that stays
    // readable throughout.
    let mut c = BinClient::connect(&addr).unwrap();
    match c.request(&Request::Shutdown { corr: 5 }).unwrap() {
        Response::ShutdownAck { corr, drained } => {
            assert_eq!(corr, 5);
            assert!(drained);
        }
        other => panic!("expected ShutdownAck, got {other:?}"),
    }
    handle.join();
    let _ = std::fs::remove_dir_all(&cache);
}
