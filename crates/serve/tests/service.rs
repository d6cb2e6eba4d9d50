//! End-to-end integration tests: a real server on an ephemeral port,
//! real TCP clients, and assertions against the server's own counters.

use std::time::Duration;

use cedar_serve::config::ServeConfig;
use cedar_serve::job::JobSpec;
use cedar_serve::loadgen::{BinClient, Client};
use cedar_serve::proto::{Request, Response};
use cedar_serve::server::{start, ServerHandle};
use cedar_snap::{CacheDir, Snapshot, ENVELOPE_HEADER_LEN};

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cedar-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_on_any_port(mut cfg: ServeConfig) -> (ServerHandle, String) {
    cfg.addr = "127.0.0.1:0".to_owned();
    let handle = start(cfg).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn status(reply: &cedar_serve::json::Json) -> String {
    reply
        .get("status")
        .and_then(cedar_serve::json::Json::as_str)
        .unwrap_or("?")
        .to_owned()
}

/// Dispatcher pool widths the memo tests run under: reactors (disk
/// hits) and workers (fresh stores) both insert into the memo, so each
/// memo test runs with one worker and with several.
const WORKER_COUNTS: [usize; 2] = [1, 4];

#[test]
fn burst_of_identical_requests_executes_exactly_once() {
    for workers in WORKER_COUNTS {
        burst_executes_once(workers);
    }
}

fn burst_executes_once(workers: usize) {
    let cache = scratch(&format!("dedup-{workers}"));
    let (handle, addr) = caching_server(&cache, workers);
    const BURST: usize = 12;
    let line = r#"{"op":"run","job":{"type":"table2","kernel":"RK","ces":4,"blocks":2}}"#;
    let statuses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..BURST)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut c = Client::connect(&addr).unwrap();
                    status(&c.request(line).unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(statuses.iter().all(|s| s == "ok"), "{statuses:?}");
    let obs = handle.obs();
    assert_eq!(
        obs.counter_value("serve.jobs.executed"),
        1,
        "{workers} workers: identical burst must collapse to one execution \
         (coalesced={}, cache hits={})",
        obs.counter_value("serve.dedup.coalesced"),
        obs.counter_value("serve.cache.hits"),
    );
    assert_eq!(
        obs.counter_value("serve.dedup.coalesced") + obs.counter_value("serve.cache.hits"),
        (BURST - 1) as u64,
        "{workers} workers: every other request was coalesced or served from cache"
    );

    // A second burst after completion is pure cache: the execution's
    // envelope entered the memo before its waiters were answered.
    let mut c = Client::connect(&addr).unwrap();
    for _ in 0..3 {
        assert_eq!(status(&c.request(line).unwrap()), "ok");
    }
    assert_eq!(obs.counter_value("serve.jobs.executed"), 1);
    assert!(obs.counter_value("serve.cache.hits") >= 3);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn fault_injected_jobs_degrade_without_harming_healthy_ones() {
    let (handle, addr) = start_on_any_port(ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();
    for i in 0..10 {
        let (line, faulty) = if i % 5 == 0 {
            (
                format!(
                    "{{\"op\":\"run\",\"job\":{{\"type\":\"degraded\",\"rate\":0.05,\
                     \"ces\":4,\"blocks\":1,\"seed\":{i}}}}}"
                ),
                true,
            )
        } else {
            (
                format!(
                    "{{\"op\":\"run\",\"job\":{{\"type\":\"hotspot\",\
                     \"fraction\":0.00{i},\"ces\":2,\"blocks\":1}}}}"
                ),
                false,
            )
        };
        let s = status(&c.request(&line).unwrap());
        if faulty {
            assert!(
                s == "degraded" || s == "ok",
                "typed reply expected, got {s}"
            );
        } else {
            assert_eq!(s, "ok", "healthy request must not be harmed by the mix");
        }
    }
    assert_eq!(handle.obs().counter_value("serve.responses.invalid"), 0);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_every_admitted_job() {
    // One worker and batch size one: submitted jobs genuinely queue,
    // and the drain has real backlog to finish.
    let (handle, addr) = start_on_any_port(ServeConfig {
        workers: 1,
        batch_max: 1,
        ..ServeConfig::default()
    });
    const JOBS: usize = 6;
    let workers: Vec<_> = (0..JOBS)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                let line = format!(
                    "{{\"op\":\"run\",\"job\":{{\"type\":\"hotspot\",\
                     \"fraction\":0.0{i}1,\"ces\":4,\"blocks\":2}}}}"
                );
                status(&c.request(&line).unwrap())
            })
        })
        .collect();
    // Let the jobs reach the queue, then drain.
    std::thread::sleep(Duration::from_millis(150));
    let mut control = Client::connect(&addr).unwrap();
    let reply = control.request(r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(
        reply
            .get("drained")
            .and_then(cedar_serve::json::Json::as_bool),
        Some(true)
    );
    for w in workers {
        let s = w.join().unwrap();
        assert!(
            s == "ok" || s == "rejected" || s == "cancelled",
            "every job admitted before the drain must resolve typed, got {s:?}"
        );
    }
    handle.join();
}

#[test]
fn deadline_zero_expires_before_execution() {
    let (handle, addr) = start_on_any_port(ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();
    let reply = c
        .request(
            r#"{"op":"run","deadline_ms":0,"job":{"type":"table2","kernel":"VF","ces":2,"blocks":1}}"#,
        )
        .unwrap();
    assert_eq!(status(&reply), "expired");
    assert_eq!(handle.obs().counter_value("serve.jobs.expired"), 1);
    assert_eq!(handle.obs().counter_value("serve.jobs.executed"), 0);
    handle.shutdown();
}

#[test]
fn zero_capacity_queue_rejects_with_backpressure() {
    let (handle, addr) = start_on_any_port(ServeConfig {
        queue_capacity: 0,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(&addr).unwrap();
    let reply = c
        .request(r#"{"op":"run","job":{"type":"table2","kernel":"TM","ces":2,"blocks":1}}"#)
        .unwrap();
    assert_eq!(status(&reply), "rejected");
    assert_eq!(handle.obs().counter_value("serve.queue.rejected"), 1);
    handle.shutdown();
}

#[test]
fn malformed_lines_get_typed_replies_and_the_connection_survives() {
    let (handle, addr) = start_on_any_port(ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();
    for bad in [
        "this is not json",
        r#"{"op":"transmogrify"}"#,
        r#"{"op":"run"}"#,
        r#"{"op":"run","job":{"type":"table2","kernel":"ZZ"}}"#,
        r#"{"op":"run","job":{"type":"table2","kernel":"RK","ces":999}}"#,
    ] {
        let s = status(&c.request(bad).unwrap());
        assert_eq!(s, "invalid", "{bad:?}");
    }
    // The connection still works after five protocol errors.
    let ping = c.request(r#"{"op":"ping"}"#).unwrap();
    assert_eq!(status(&ping), "ok");
    // All five bad lines count: two at the protocol layer (bad json,
    // unknown op) and three typed `invalid` run replies.
    assert_eq!(handle.obs().counter_value("serve.responses.invalid"), 5);
    handle.shutdown();
}

#[test]
fn http_get_serves_a_prometheus_exposition() {
    use std::io::{Read, Write};
    let (handle, addr) = start_on_any_port(ServeConfig::default());
    // Generate one request so counters are non-trivial.
    let mut c = Client::connect(&addr).unwrap();
    let _ = c.request(r#"{"op":"run","job":{"type":"table2","kernel":"CG","ces":2,"blocks":1}}"#);
    let mut http = std::net::TcpStream::connect(&addr).unwrap();
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    let body = response
        .split("\r\n\r\n")
        .nth(1)
        .expect("header/body split");
    let parsed = cedar_obs::export::parse_prometheus(body).unwrap();
    let received = cedar_obs::export::sanitize_name("serve.requests.received");
    assert!(parsed.get(&received).copied().unwrap_or(0.0) >= 1.0);
    handle.shutdown();
}

#[test]
fn trace_export_is_valid_chrome_json() {
    let (handle, addr) = start_on_any_port(ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();
    let _ = c.request(r#"{"op":"run","job":{"type":"table2","kernel":"TM","ces":2,"blocks":1}}"#);
    let reply = c.request(r#"{"op":"trace"}"#).unwrap();
    assert_eq!(status(&reply), "ok");
    assert!(
        reply.get("chrome_trace").is_some(),
        "trace op must embed the export"
    );
    handle.shutdown();
}

#[test]
fn slow_loris_partial_line_is_reaped_with_a_typed_timeout() {
    use std::io::{Read, Write};
    let (handle, addr) = start_on_any_port(ServeConfig {
        line_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let mut loris = std::net::TcpStream::connect(&addr).unwrap();
    // Half a request line, then a slow drip that never reaches the
    // newline: progress bytes must not reset the per-line budget.
    loris.write_all(b"{\"op\":\"run\",\"job\":{").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let _ = loris.write_all(b"\"ty");
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut text = String::new();
    loris.read_to_string(&mut text).unwrap();
    assert!(
        text.contains("\"timeout\""),
        "reaped connection must get a typed timeout line, got {text:?}"
    );
    assert_eq!(handle.obs().counter_value("serve.conn.reaped_read"), 1);
    handle.shutdown();
}

#[test]
fn idle_connections_outlive_the_line_timeout() {
    let (handle, addr) = start_on_any_port(ServeConfig {
        line_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(&addr).unwrap();
    assert_eq!(status(&c.request(r#"{"op":"ping"}"#).unwrap()), "ok");
    // Many line-timeouts of silence between requests: idleness is not
    // a stalled line and must never be reaped.
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(status(&c.request(r#"{"op":"ping"}"#).unwrap()), "ok");
    assert_eq!(handle.obs().counter_value("serve.conn.reaped_read"), 0);
    handle.shutdown();
}

#[test]
fn half_line_disconnect_is_a_clean_close_not_a_wedge() {
    use std::io::Write;
    let (handle, addr) = start_on_any_port(ServeConfig {
        line_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    for _ in 0..4 {
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        let _ = s.write_all(b"{\"op\":\"ping\"");
        drop(s);
    }
    // The server keeps serving honest clients throughout.
    let mut c = Client::connect(&addr).unwrap();
    assert_eq!(status(&c.request(r#"{"op":"ping"}"#).unwrap()), "ok");
    handle.shutdown();
}

#[test]
fn client_that_stops_reading_is_reaped_by_the_write_timeout() {
    use std::io::Write;
    let (handle, addr) = start_on_any_port(ServeConfig {
        write_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    // Pump metrics requests without ever reading a reply: the kernel
    // buffers fill, the server's reply write blocks past the timeout,
    // and the connection is reaped instead of wedging its handler.
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.set_write_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while handle.obs().counter_value("serve.conn.reaped_write") == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "server never reaped the non-reading client"
        );
        if s.write_all(b"{\"op\":\"metrics\"}\n").is_err() {
            // Connection already torn down server-side; wait for the
            // counter to reflect it.
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    handle.shutdown();
}

#[test]
fn kill_stops_the_server_with_typed_cancellations() {
    let (handle, addr) = start_on_any_port(ServeConfig {
        workers: 1,
        batch_max: 1,
        ..ServeConfig::default()
    });
    let clients: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                let line = format!(
                    "{{\"op\":\"run\",\"job\":{{\"type\":\"hotspot\",\
                     \"fraction\":0.0{i}7,\"ces\":4,\"blocks\":2}}}}"
                );
                c.request(&line).map(|r| status(&r))
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    handle.kill();
    for client in clients {
        // A connection torn down by process exit (Err) is acceptable
        // for requests that never reached admission.
        if let Ok(s) = client.join().unwrap() {
            assert!(
                s == "ok" || s == "cancelled" || s == "rejected",
                "kill must resolve jobs typed, got {s:?}"
            );
        }
    }
}

fn hotspot(ppm: u32) -> JobSpec {
    JobSpec::Hotspot {
        hot_ppm: ppm,
        ces: 2,
        blocks: 1,
    }
}

/// The envelope a fresh execution of `spec` seals: what every reply
/// for it must carry, whichever tier answers.
fn expected_envelope(spec: &JobSpec) -> Vec<u8> {
    spec.execute(ServeConfig::default().max_net_cycles)
        .expect("spec executes")
        .to_snapshot_bytes()
}

/// Runs `spec` over the binary protocol; returns `(cached, envelope)`.
fn run_binary(c: &mut BinClient, corr: u64, spec: &JobSpec) -> (bool, Vec<u8>) {
    let req = Request::Run {
        corr,
        priority: 1,
        deadline_ms: None,
        spec: spec.clone(),
    };
    match c.request(&req).unwrap() {
        Response::Outcome {
            corr: got,
            cached,
            envelope,
        } if got == corr => (cached, envelope),
        other => panic!("expected Outcome {corr}, got {other:?}"),
    }
}

fn caching_server(dir: &std::path::Path, workers: usize) -> (ServerHandle, String) {
    start_on_any_port(ServeConfig {
        cache_dir: Some(dir.to_path_buf()),
        workers,
        ..ServeConfig::default()
    })
}

#[test]
fn restarted_server_answers_the_first_hit_from_disk_and_repeats_from_memory() {
    for workers in WORKER_COUNTS {
        restart_hits_disk_then_memory(workers);
    }
}

fn restart_hits_disk_then_memory(workers: usize) {
    let cache = scratch(&format!("memo-restart-{workers}"));
    let spec = hotspot(250_000);
    let expected = expected_envelope(&spec);

    // Fill the directory: one execution, one store, and the repeat
    // is already a memo hit (the only disk read was the first miss).
    let (handle, addr) = caching_server(&cache, workers);
    let mut c = BinClient::connect(&addr).unwrap();
    assert_eq!(run_binary(&mut c, 0, &spec), (false, expected.clone()));
    assert_eq!(run_binary(&mut c, 1, &spec), (true, expected.clone()));
    let obs = handle.obs();
    assert_eq!(obs.counter_value("serve.jobs.executed"), 1);
    assert_eq!(obs.counter_value("serve.cache.disk_reads"), 1);
    handle.shutdown();

    // A fresh server on the filled directory: one disk read, then
    // memory only; nothing executes.
    let (handle, addr) = caching_server(&cache, workers);
    let mut c = BinClient::connect(&addr).unwrap();
    let obs = handle.obs();
    assert_eq!(run_binary(&mut c, 0, &spec), (true, expected.clone()));
    assert_eq!(obs.counter_value("serve.cache.disk_reads"), 1);
    for corr in 1..4 {
        assert_eq!(run_binary(&mut c, corr, &spec), (true, expected.clone()));
    }
    assert_eq!(obs.counter_value("serve.cache.disk_reads"), 1);
    assert_eq!(obs.counter_value("serve.cache.hits"), 4);
    assert_eq!(obs.counter_value("serve.jobs.executed"), 0);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn corrupt_disk_entry_is_quarantined_reexecuted_and_never_memoized() {
    for workers in WORKER_COUNTS {
        corrupt_entry_is_reexecuted(workers);
    }
}

fn corrupt_entry_is_reexecuted(workers: usize) {
    let cache = scratch(&format!("memo-corrupt-{workers}"));
    let spec = hotspot(125_000);
    let expected = expected_envelope(&spec);

    let (handle, addr) = caching_server(&cache, workers);
    let mut c = BinClient::connect(&addr).unwrap();
    assert_eq!(run_binary(&mut c, 0, &spec), (false, expected.clone()));
    handle.shutdown();

    // Flip one payload byte of the stored entry: its checksum now fails.
    let dir = CacheDir::new(&cache).unwrap();
    let path = dir.entry_path(&spec.key());
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[ENVELOPE_HEADER_LEN] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let (handle, addr) = caching_server(&cache, workers);
    let mut c = BinClient::connect(&addr).unwrap();
    let obs = handle.obs();
    assert_eq!(run_binary(&mut c, 0, &spec), (false, expected.clone()));
    assert_eq!(obs.counter_value("serve.jobs.executed"), 1);
    assert_eq!(obs.counter_value("serve.cache.disk_reads"), 1);
    assert_eq!(dir.corrupt_entries().unwrap().len(), 1, "entry quarantined");
    // Repeats come from the memo, and they carry the re-executed
    // bytes, never the corrupt ones.
    for corr in 1..3 {
        assert_eq!(run_binary(&mut c, corr, &spec), (true, expected.clone()));
    }
    assert_eq!(obs.counter_value("serve.cache.disk_reads"), 1);
    assert_eq!(obs.counter_value("serve.jobs.executed"), 1);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn cacheless_server_reexecutes_a_repeated_spec() {
    let (handle, addr) = start_on_any_port(ServeConfig::default());
    let spec = hotspot(375_000);
    let expected = expected_envelope(&spec);
    let mut c = BinClient::connect(&addr).unwrap();
    for corr in 0..2 {
        assert_eq!(run_binary(&mut c, corr, &spec), (false, expected.clone()));
    }
    let obs = handle.obs();
    assert_eq!(obs.counter_value("serve.jobs.executed"), 2);
    assert_eq!(obs.counter_value("serve.cache.hits"), 0);
    assert_eq!(obs.counter_value("serve.cache.disk_reads"), 0);
    handle.shutdown();
}
