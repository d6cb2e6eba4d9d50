//! The load-generator harness: drives a running server over TCP,
//! checks the serving tier's end-to-end invariants, and writes the
//! `BENCH_serve.json` report.
//!
//! Four phases, each exercising one claim the service makes:
//!
//! 1. **Dedup burst** — a burst of identical requests must collapse to
//!    exactly one execution (or zero executions and all cache hits if
//!    a previous run warmed the disk cache), asserted from the
//!    server's own counters, not from client-side timing.
//! 2. **Fault mix** — a seeded mix with ~2% fault-injected jobs: every
//!    request gets a typed reply and no *healthy* request is dropped
//!    or errored because a degraded one shared its batch.
//! 3. **Closed loop** — `c` clients, each issuing unique jobs
//!    back-to-back, at increasing `c`: offered load versus p50/p95/p99
//!    latency, the saturation-knee curve.
//! 4. **Open loop** — seeded exponential arrivals at a fixed offered
//!    rate, the arrival process the closed loop can't produce.
//! 5. **Adversarial** (opt-in) — slow-loris connections that never
//!    finish a request line and clients that write half a line and
//!    vanish: every loris must be reaped with a typed `timeout` line
//!    while an idle well-behaved connection opened before the wave
//!    survives it untouched.
//! 6. **Binary peak** — the `b"CSRV"` protocol under multiplexed,
//!    pipelined load: a warm pass executes a small spec set to fill
//!    the memoization cache, then a connection sweep (up to
//!    `--conns`, default 10 000) replays those specs as cache hits
//!    from a single-threaded `poll(2)` client reactor, producing the
//!    connections-versus-p99 curve and the peak throughput figure.
//!
//! The seeded mix and arrival schedule make runs reproducible; only
//! the measured latencies vary with the host.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use cedar_obs::export::{parse_prometheus, sanitize_name, validate_json};
use cedar_sim::rng::SplitMix64;

use crate::job::JobSpec;
use crate::json::{self, Json};
use crate::proto::{FrameScanner, Request, Response, MAX_RESPONSE_PAYLOAD};
use crate::sys::{poll_fds, PollFd, POLLIN, POLLOUT};

/// Loadgen settings (see the `loadgen` binary for the flag surface).
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Smoke mode: small counts, CI-friendly runtimes.
    pub smoke: bool,
    /// Seed for the job mix and the open-loop arrival schedule.
    pub seed: u64,
    /// Send a graceful `shutdown` after the run and assert it drained.
    pub shutdown: bool,
    /// Run the adversarial slow-loris / partial-write phase. Requires
    /// the server to be configured with `line_timeout` close to
    /// [`LoadgenConfig::line_timeout_ms`], or the phase will stall
    /// waiting for reaps that take the server's (longer) default.
    pub adversarial: bool,
    /// The `line_timeout` the *server* was started with, in ms — sets
    /// this harness's patience while waiting for loris reaps.
    pub line_timeout_ms: u64,
    /// Top of the binary-phase connection sweep. `0` picks the mode
    /// default: 64 in smoke, 10 000 in full.
    pub conns: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7878".to_owned(),
            smoke: false,
            seed: 0xCEDA,
            shutdown: false,
            adversarial: false,
            line_timeout_ms: 1_000,
            conns: 0,
        }
    }
}

/// One closed-loop load level's measurements.
#[derive(Debug, Clone)]
pub struct LevelReport {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests completed across all clients.
    pub requests: usize,
    /// Achieved throughput, requests per second.
    pub throughput_rps: f64,
    /// Latency percentiles in microseconds.
    pub p50_us: u64,
    /// 95th percentile latency, µs.
    pub p95_us: u64,
    /// 99th percentile latency, µs.
    pub p99_us: u64,
}

/// One binary-protocol connection-sweep level: `conns` multiplexed
/// pipelined connections replaying memoized specs.
#[derive(Debug, Clone)]
pub struct ConnLevelReport {
    /// Concurrent multiplexed connections.
    pub conns: usize,
    /// Requests completed across the sweep.
    pub requests: usize,
    /// Achieved throughput, requests per second.
    pub throughput_rps: f64,
    /// Median latency, µs.
    pub p50_us: u64,
    /// 99th percentile latency, µs.
    pub p99_us: u64,
}

/// Binary-protocol phase results (schema's `binary` object).
#[derive(Debug, Clone)]
pub struct BinaryReport {
    /// Distinct specs executed by the warm pass (the replay set).
    pub warm_jobs: usize,
    /// Warm-pass throughput — lockstep, cold cache: the baseline the
    /// peak figure is honestly *not* comparable to.
    pub warm_rps: f64,
    /// The connections-versus-latency curve, increasing `conns`.
    pub curve: Vec<ConnLevelReport>,
    /// Best throughput across the curve (memoized, pipelined).
    pub peak_rps: f64,
    /// p50 at the peak-throughput level, µs.
    pub peak_p50_us: u64,
    /// p99 at the peak-throughput level, µs.
    pub peak_p99_us: u64,
}

/// Adversarial-phase measurements (schema's `adversarial` object).
#[derive(Debug, Clone)]
pub struct AdversarialReport {
    /// Slow-loris connections opened (each holding a partial line).
    pub loris_conns: usize,
    /// Connections the server reaped for a stalled read (must cover
    /// every loris).
    pub reaped_read: u64,
    /// Half-line-then-disconnect clients thrown at the server.
    pub partial_write_conns: usize,
    /// Whether the idle control connection opened before the wave was
    /// still serviceable after it — idleness must never be reaped.
    pub idle_survived: bool,
}

/// The full harness result, rendered into `BENCH_serve.json`.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// `smoke` or `full`.
    pub mode: &'static str,
    /// Dedup-burst phase: burst size sent.
    pub dedup_burst: usize,
    /// Executions the burst actually caused (asserted ≤ 1).
    pub dedup_executed: u64,
    /// Disk-cache hits the burst was served from.
    pub dedup_cache_hits: u64,
    /// In-flight coalesces the burst produced.
    pub dedup_coalesced: u64,
    /// Fault-mix phase: requests sent / ok / degraded / typed errors.
    pub mix_requests: usize,
    /// Healthy replies in the mix.
    pub mix_ok: usize,
    /// Typed degraded replies in the mix.
    pub mix_degraded: usize,
    /// Typed error replies in the mix (stalls); never raw disconnects.
    pub mix_errors: usize,
    /// Healthy requests that failed — the mix assertion requires 0.
    pub mix_healthy_dropped: usize,
    /// Closed-loop levels, in increasing offered load.
    pub levels: Vec<LevelReport>,
    /// Open-loop offered rate, requests per second.
    pub open_offered_rps: f64,
    /// Open-loop achieved completion rate.
    pub open_achieved_rps: f64,
    /// Open-loop p50 latency, µs.
    pub open_p50_us: u64,
    /// Open-loop p99 latency, µs.
    pub open_p99_us: u64,
    /// Adversarial phase results; `None` when the phase was not run.
    pub adversarial: Option<AdversarialReport>,
    /// Binary-protocol warm/peak phase and the connection curve.
    pub binary: BinaryReport,
    /// Top of the connection sweep (the `--conns` setting, resolved).
    pub conns: usize,
    /// The harness process's soft fd limit, for judging how honest the
    /// sweep could be (10 000 connections need ≥ ~10 050 fds).
    pub fd_limit: u64,
    /// End-of-run server observability snapshot: every `serve.*`
    /// series from the metrics exposition (sanitized names, `cedar_`
    /// prefix stripped), scraped over the control connection before
    /// shutdown. Queue depths, reap counts and shed totals land in the
    /// benchmark history through this.
    pub obs: Vec<(String, f64)>,
    /// Whether the post-run graceful shutdown drained cleanly.
    pub drained: Option<bool>,
    /// Git commit the run measured (stamped via cedar-track).
    pub commit: String,
    /// ISO-8601 UTC timestamp of the run.
    pub timestamp: String,
}

/// One line-protocol client connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr`, retrying briefly so a just-spawned server
    /// can finish binding.
    ///
    /// # Errors
    ///
    /// Returns a description if the server never becomes reachable.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    // Mirror the server: tiny request lines must not
                    // sit in Nagle's buffer behind a delayed ACK.
                    let _ = stream.set_nodelay(true);
                    let reader =
                        BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
                    return Ok(Client {
                        reader,
                        writer: stream,
                    });
                }
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => return Err(format!("connect {addr}: {e}")),
            }
        }
    }

    /// Sends one request line and reads the one reply line.
    ///
    /// # Errors
    ///
    /// Returns a description on I/O failure or an unparseable reply —
    /// both violations of the protocol's "always a typed line" rule.
    pub fn request(&mut self, line: &str) -> Result<Json, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection mid-request".to_owned()),
            Ok(_) => json::parse(reply.trim()).map_err(|e| format!("bad reply: {e}")),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Reads a named counter from the server's `metrics` op.
    ///
    /// # Errors
    ///
    /// Returns a description if the exposition cannot be fetched or
    /// parsed.
    pub fn counter(&mut self, name: &str) -> Result<f64, String> {
        let reply = self.request(r#"{"op":"metrics"}"#)?;
        let text = reply
            .get("prometheus")
            .and_then(Json::as_str)
            .ok_or("metrics reply missing prometheus field")?;
        let parsed = parse_prometheus(text)?;
        Ok(parsed.get(&sanitize_name(name)).copied().unwrap_or(0.0))
    }
}

/// One lockstep binary-protocol connection.
pub struct BinClient {
    stream: TcpStream,
    scanner: FrameScanner,
}

impl BinClient {
    /// Connects to `addr`, retrying briefly so a just-spawned server
    /// can finish binding.
    ///
    /// # Errors
    ///
    /// Returns a description if the server never becomes reachable.
    pub fn connect(addr: &str) -> Result<BinClient, String> {
        let stream = connect_retry(addr, Duration::from_secs(10))?;
        let _ = stream.set_nodelay(true);
        Ok(BinClient {
            stream,
            scanner: FrameScanner::new(MAX_RESPONSE_PAYLOAD),
        })
    }

    /// Sends one request frame and reads the one response frame.
    ///
    /// # Errors
    ///
    /// Returns a description on I/O failure or a malformed frame —
    /// both protocol violations on a healthy connection.
    pub fn request(&mut self, req: &Request) -> Result<Response, String> {
        self.stream
            .write_all(&req.encode())
            .map_err(|e| format!("send: {e}"))?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(payload) = self
                .scanner
                .next_frame()
                .map_err(|e| format!("bad frame: {e}"))?
            {
                return Response::decode(&payload).map_err(|e| format!("bad response: {e}"));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection mid-request".to_owned()),
                Ok(n) => self.scanner.extend(&chunk[..n]),
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }
}

fn connect_retry(addr: &str, patience: Duration) -> Result<TcpStream, String> {
    let deadline = Instant::now() + patience;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            // Early connects can race the bind, and a mass sweep can
            // transiently overflow the accept backlog; both heal.
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(format!("connect {addr}: {e}")),
        }
    }
}

/// The harness process's soft limit on open fds, from
/// `/proc/self/limits` (0 if unreadable — non-Linux).
fn fd_limit() -> u64 {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Linearly interpolated percentile over a sorted sample set — the
/// standard "R-7" estimator. The old nearest-rank rounding overstated
/// tail percentiles on the small per-level sample counts this harness
/// collects (at 96 samples, `p99` rounded straight to the maximum);
/// interpolation keeps adjacent levels comparable.
fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = (sorted_us.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    let a = sorted_us[lo] as f64;
    let b = sorted_us[hi] as f64;
    (a + (b - a) * frac).round() as u64
}

fn status_of(reply: &Json) -> &str {
    reply.get("status").and_then(Json::as_str).unwrap_or("?")
}

/// A unique-per-index job line: distinct `fraction` ppm means distinct
/// dedup keys, so saturation levels measure execution, not the cache.
fn unique_job(global_idx: u64) -> String {
    let ppm = 1 + (global_idx % 900_000);
    format!(
        "{{\"op\":\"run\",\"job\":{{\"type\":\"hotspot\",\"fraction\":{},\"ces\":2,\"blocks\":1}}}}",
        ppm as f64 / 1e6
    )
}

fn run_closed_level(
    addr: &str,
    clients: usize,
    per_client: usize,
    idx_base: u64,
) -> Result<LevelReport, String> {
    let started = Instant::now();
    let mut latencies: Vec<u64> = Vec::with_capacity(clients * per_client);
    let results: Vec<Result<Vec<u64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || -> Result<Vec<u64>, String> {
                    let mut client = Client::connect(addr)?;
                    let mut times = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let idx = idx_base + (c * per_client + i) as u64;
                        let sent = Instant::now();
                        let reply = client.request(&unique_job(idx))?;
                        let us = u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX);
                        match status_of(&reply) {
                            "ok" | "degraded" => times.push(us),
                            "rejected" => {} // shed load is legal at saturation
                            other => return Err(format!("unexpected status {other:?}")),
                        }
                    }
                    Ok(times)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    for r in results {
        latencies.extend(r?);
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    latencies.sort_unstable();
    Ok(LevelReport {
        clients,
        requests: latencies.len(),
        throughput_rps: latencies.len() as f64 / elapsed,
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
    })
}

/// Runs every phase against the server at `cfg.addr`.
///
/// # Errors
///
/// Returns a description of the first violated invariant — a dedup
/// burst that executed more than once or never coalesced, a healthy
/// request lost to the fault mix, a non-monotone saturation curve, or
/// a protocol breach.
#[allow(clippy::too_many_lines)]
pub fn run(cfg: &LoadgenConfig) -> Result<LoadReport, String> {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut control = Client::connect(&cfg.addr)?;
    let ping = control.request(r#"{"op":"ping"}"#)?;
    if status_of(&ping) != "ok" {
        return Err("server did not answer ping".to_owned());
    }

    // Phase 1: dedup burst. All clients fire the same spec at once;
    // the server's own counters are the ground truth. The spec is a
    // heavy one (tens of ms in a release build, where a small Table-2
    // cell takes a tenth of a ms), so it is still running when the
    // rest of the burst arrives and must be coalesced onto it.
    let burst = if cfg.smoke { 8 } else { 16 };
    let executed_before = control.counter("serve.jobs.executed")?;
    let hits_before = control.counter("serve.cache.hits")?;
    let coalesced_before = control.counter("serve.dedup.coalesced")?;
    let burst_line = r#"{"op":"run","job":{"type":"degraded","rate":0.05,"ces":32,"blocks":8}}"#;
    let addr = cfg.addr.clone();
    let burst_results: Vec<Result<String, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..burst)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || -> Result<String, String> {
                    let mut client = Client::connect(&addr)?;
                    let reply = client.request(burst_line)?;
                    Ok(status_of(&reply).to_owned())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("burst client panicked"))
            .collect()
    });
    for r in &burst_results {
        match r {
            Ok(status) if status == "ok" || status == "degraded" => {}
            Ok(other) => return Err(format!("burst request got status {other:?}")),
            Err(e) => return Err(format!("burst request failed: {e}")),
        }
    }
    let dedup_executed = (control.counter("serve.jobs.executed")? - executed_before) as u64;
    let dedup_cache_hits = (control.counter("serve.cache.hits")? - hits_before) as u64;
    let dedup_coalesced = (control.counter("serve.dedup.coalesced")? - coalesced_before) as u64;
    let burst_u64 = burst as u64;
    let deduped_ok = dedup_executed == 1 || (dedup_executed == 0 && dedup_cache_hits == burst_u64);
    if !deduped_ok {
        return Err(format!(
            "dedup failed: burst of {burst} identical requests caused \
             {dedup_executed} executions ({dedup_cache_hits} cache hits)"
        ));
    }
    if dedup_executed == 1 && dedup_coalesced == 0 {
        return Err(format!(
            "dedup burst of {burst} never coalesced: the one execution \
             finished before any repeat arrived ({dedup_cache_hits} cache hits)"
        ));
    }

    // Phase 2: seeded fault mix, ~2% fault-injected jobs. Healthy
    // requests must all succeed even sharing batches with faulty ones.
    let mix_requests = if cfg.smoke { 24 } else { 96 };
    let mut mix_lines: Vec<(bool, String)> = Vec::with_capacity(mix_requests);
    for i in 0..mix_requests {
        // The first request is always faulty so every run — however
        // the 2% draws land — exercises the degraded path end to end.
        let faulty = i == 0 || rng.next_bool(0.02);
        let line = if faulty {
            format!(
                "{{\"op\":\"run\",\"job\":{{\"type\":\"degraded\",\"rate\":0.05,\
                 \"ces\":4,\"blocks\":1,\"seed\":{}}}}}",
                rng.next_u64() & 0xffff_ffff
            )
        } else {
            unique_job(1_000_000 + i as u64)
        };
        mix_lines.push((faulty, line));
    }
    let mix_clients = if cfg.smoke { 3 } else { 6 };
    let chunks: Vec<Vec<(bool, String)>> = (0..mix_clients)
        .map(|c| {
            mix_lines
                .iter()
                .skip(c)
                .step_by(mix_clients)
                .cloned()
                .collect()
        })
        .collect();
    let mix_results: Vec<Result<Vec<(bool, String)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let addr = addr.clone();
                scope.spawn(move || -> Result<Vec<(bool, String)>, String> {
                    let mut client = Client::connect(&addr)?;
                    let mut out = Vec::with_capacity(chunk.len());
                    for (faulty, line) in chunk {
                        let reply = client.request(&line)?;
                        out.push((faulty, status_of(&reply).to_owned()));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mix client panicked"))
            .collect()
    });
    let (mut mix_ok, mut mix_degraded, mut mix_errors, mut mix_healthy_dropped) = (0, 0, 0, 0);
    for r in mix_results {
        for (faulty, status) in r? {
            match status.as_str() {
                "ok" => mix_ok += 1,
                "degraded" => mix_degraded += 1,
                "error" => mix_errors += 1,
                other => return Err(format!("mix request got status {other:?}")),
            }
            if !faulty && status != "ok" {
                mix_healthy_dropped += 1;
            }
        }
    }
    if mix_healthy_dropped > 0 {
        return Err(format!(
            "{mix_healthy_dropped} healthy requests were dropped or degraded by the fault mix"
        ));
    }

    // Phase 3: closed-loop saturation levels.
    let level_clients: &[usize] = if cfg.smoke { &[1, 2, 4] } else { &[1, 4, 16] };
    let per_client = if cfg.smoke { 6 } else { 16 };
    let mut levels = Vec::with_capacity(level_clients.len());
    let mut idx_base = 2_000_000u64;
    for &clients in level_clients {
        let level = run_closed_level(&addr, clients, per_client, idx_base)?;
        idx_base += (clients * per_client) as u64;
        levels.push(level);
    }
    // The knee check: more offered load must not *reduce* p50 beyond
    // noise — a shrinking latency under growing load means the harness
    // measured the cache, not the service.
    for pair in levels.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        if lo.requests > 0 && hi.requests > 0 && (hi.p50_us as f64) < (lo.p50_us as f64) * 0.5 {
            return Err(format!(
                "saturation curve not monotone: p50 fell from {}µs at {} clients \
                 to {}µs at {} clients",
                lo.p50_us, lo.clients, hi.p50_us, hi.clients
            ));
        }
    }

    // Phase 4: open loop — seeded exponential arrivals at a fixed
    // offered rate, one thread per in-flight request.
    let offered_rps: f64 = if cfg.smoke { 40.0 } else { 120.0 };
    let open_n = if cfg.smoke { 20 } else { 120 };
    let mut schedule_us: Vec<u64> = Vec::with_capacity(open_n);
    let mut t = 0.0f64;
    for _ in 0..open_n {
        let u = rng.next_f64().max(1e-12);
        t += -u.ln() / offered_rps;
        schedule_us.push((t * 1e6) as u64);
    }
    let open_started = Instant::now();
    let open_results: Vec<Result<u64, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedule_us
            .iter()
            .enumerate()
            .map(|(i, &at_us)| {
                let addr = addr.clone();
                scope.spawn(move || -> Result<u64, String> {
                    let target = Duration::from_micros(at_us);
                    let now = open_started.elapsed();
                    if target > now {
                        std::thread::sleep(target - now);
                    }
                    let mut client = Client::connect(&addr)?;
                    let sent = Instant::now();
                    let reply = client.request(&unique_job(3_000_000 + i as u64))?;
                    match status_of(&reply) {
                        "ok" | "degraded" | "rejected" => {
                            Ok(u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX))
                        }
                        other => Err(format!("open-loop status {other:?}")),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client panicked"))
            .collect()
    });
    let open_elapsed = open_started.elapsed().as_secs_f64().max(1e-9);
    let mut open_latencies = Vec::with_capacity(open_n);
    for r in open_results {
        open_latencies.push(r?);
    }
    open_latencies.sort_unstable();

    // Phase 5 (opt-in): adversarial clients. Slow-loris connections
    // hold a partial request line open; the server must reap each with
    // a typed timeout line, while an idle-but-honest connection opened
    // before the wave sails through untouched.
    let adversarial = if cfg.adversarial {
        Some(run_adversarial(cfg, &mut control)?)
    } else {
        None
    };

    // Phase 6: binary warm pass and the multiplexed connection sweep,
    // sharing the listener with the line-protocol control connection —
    // which doubles as the mixed-protocol check under load.
    let max_conns = if cfg.conns > 0 {
        cfg.conns
    } else if cfg.smoke {
        64
    } else {
        10_000
    };
    let binary = run_binary_phase(cfg, max_conns)?;
    if status_of(&control.request(r#"{"op":"ping"}"#)?) != "ok" {
        return Err("line-protocol control connection broke during the binary sweep".to_owned());
    }

    // Observability snapshot: scrape the full exposition once, before
    // shutdown tears the server down, and keep every serve.* series.
    let obs = scrape_obs(&mut control)?;

    // Optional graceful shutdown: the drain must complete and answer.
    let drained = if cfg.shutdown {
        let reply = control.request(r#"{"op":"shutdown"}"#)?;
        Some(reply.get("drained").and_then(Json::as_bool) == Some(true))
    } else {
        None
    };
    if drained == Some(false) {
        return Err("graceful shutdown did not report a completed drain".to_owned());
    }

    Ok(LoadReport {
        mode: if cfg.smoke { "smoke" } else { "full" },
        dedup_burst: burst,
        dedup_executed,
        dedup_cache_hits,
        dedup_coalesced,
        mix_requests,
        mix_ok,
        mix_degraded,
        mix_errors,
        mix_healthy_dropped,
        levels,
        open_offered_rps: offered_rps,
        open_achieved_rps: open_latencies.len() as f64 / open_elapsed,
        open_p50_us: percentile(&open_latencies, 0.50),
        open_p99_us: percentile(&open_latencies, 0.99),
        adversarial,
        binary,
        conns: max_conns,
        fd_limit: fd_limit(),
        obs,
        drained,
        commit: cedar_track::meta::commit_id(),
        timestamp: cedar_track::meta::timestamp(),
    })
}

/// Scrapes the server's Prometheus exposition through the control
/// connection and returns every `serve.*` series (sanitized name with
/// the `cedar_` prefix stripped, so `serve.queue.depth` comes back as
/// `serve_queue_depth`).
fn scrape_obs(control: &mut Client) -> Result<Vec<(String, f64)>, String> {
    let reply = control.request(r#"{"op":"metrics"}"#)?;
    let text = reply
        .get("prometheus")
        .and_then(Json::as_str)
        .ok_or("metrics reply missing prometheus field")?;
    let parsed = parse_prometheus(text)?;
    Ok(parsed
        .into_iter()
        .filter_map(|(name, value)| {
            let short = name.strip_prefix("cedar_")?;
            // Scalar serve.* series only: the per-bucket histogram
            // rows (labelled `{le="..."}`) would bury the queue and
            // reap counters under hundreds of bucket entries.
            if short.starts_with("serve_") && !short.contains('{') && value.is_finite() {
                Some((short.to_owned(), value))
            } else {
                None
            }
        })
        .collect())
}

fn run_adversarial(cfg: &LoadgenConfig, control: &mut Client) -> Result<AdversarialReport, String> {
    let reaped_before = control.counter("serve.conn.reaped_read")?;
    // The survivor: opened before the wave, silent throughout it.
    let mut idle = Client::connect(&cfg.addr)?;

    let loris_conns = if cfg.smoke { 3 } else { 8 };
    let mut lorises = Vec::with_capacity(loris_conns);
    for _ in 0..loris_conns {
        let mut s = TcpStream::connect(&cfg.addr).map_err(|e| format!("loris connect: {e}"))?;
        s.write_all(b"{\"op\":\"run\",\"job\":{\"ty")
            .map_err(|e| format!("loris send: {e}"))?;
        lorises.push(s);
    }
    // Half a line, then gone: the server must just see EOF and move on.
    let partial_write_conns = if cfg.smoke { 2 } else { 4 };
    for _ in 0..partial_write_conns {
        let mut s = TcpStream::connect(&cfg.addr).map_err(|e| format!("partial connect: {e}"))?;
        let _ = s.write_all(b"{\"op\":\"ping\"");
        drop(s);
    }

    // Wait for the server to reap every loris.
    let deadline = Instant::now() + Duration::from_millis(cfg.line_timeout_ms * 4 + 2_000);
    let mut reaped_read;
    loop {
        reaped_read = (control.counter("serve.conn.reaped_read")? - reaped_before) as u64;
        if reaped_read >= loris_conns as u64 {
            break;
        }
        if Instant::now() > deadline {
            return Err(format!(
                "slow-loris reap incomplete: {reaped_read}/{loris_conns} \
                 connections reaped within the deadline"
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    // Each loris must have received a typed timeout line before close.
    for mut s in lorises {
        let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
        let mut text = String::new();
        match s.read_to_string(&mut text) {
            Ok(_) if text.contains("\"timeout\"") => {}
            Ok(_) => {
                return Err(format!(
                    "loris closed without a typed timeout line: {text:?}"
                ))
            }
            Err(e) => return Err(format!("loris read-back failed: {e}")),
        }
    }
    // The honest idle connection must still be serviceable.
    let idle_survived = status_of(&idle.request(r#"{"op":"ping"}"#)?) == "ok";
    if !idle_survived {
        return Err("an idle (zero-byte) connection was reaped by the line timeout".to_owned());
    }
    Ok(AdversarialReport {
        loris_conns,
        reaped_read,
        partial_write_conns,
        idle_survived,
    })
}

/// The replay spec set for the binary phase. `ces: 4` keeps these
/// keys disjoint from the line-protocol phases' `ces: 2` hotspot jobs,
/// so the warm pass measures real executions on a fresh server.
fn binary_spec(i: usize) -> JobSpec {
    JobSpec::Hotspot {
        hot_ppm: 1 + (i as u32 % 900_000),
        ces: 4,
        blocks: 1,
    }
}

/// Connection counts for the sweep: fixed low rungs for the curve's
/// shape, topped by the configured maximum.
fn curve_levels(smoke: bool, max_conns: usize) -> Vec<usize> {
    let base: &[usize] = if smoke { &[4, 16] } else { &[16, 256, 2048] };
    let mut levels: Vec<usize> = base.iter().copied().filter(|&c| c < max_conns).collect();
    levels.push(max_conns);
    levels
}

/// Phase 6: warm the memoization cache over one lockstep binary
/// connection, then sweep multiplexed connection counts replaying the
/// warmed specs — the connections-versus-p99 curve and the peak
/// throughput figure, both on the zero-copy memoized path.
fn run_binary_phase(cfg: &LoadgenConfig, max_conns: usize) -> Result<BinaryReport, String> {
    let warm_jobs = if cfg.smoke { 16 } else { 32 };
    let warm_started = Instant::now();
    let mut warm = BinClient::connect(&cfg.addr)?;
    for i in 0..warm_jobs {
        let req = Request::Run {
            corr: i as u64,
            priority: 1,
            deadline_ms: None,
            spec: binary_spec(i),
        };
        match warm.request(&req)? {
            Response::Outcome { corr, .. } if corr == i as u64 => {}
            other => return Err(format!("warm request got {other:?}")),
        }
    }
    let warm_rps = warm_jobs as f64 / warm_started.elapsed().as_secs_f64().max(1e-9);

    let mut curve = Vec::new();
    for conns in curve_levels(cfg.smoke, max_conns) {
        let total = if cfg.smoke {
            (conns * 4).max(256)
        } else {
            (conns * 2).max(4_000)
        };
        curve.push(run_conn_level(&cfg.addr, conns, total, warm_jobs)?);
    }
    let peak = curve
        .iter()
        .max_by(|a, b| a.throughput_rps.total_cmp(&b.throughput_rps))
        .expect("curve has at least one level")
        .clone();
    Ok(BinaryReport {
        warm_jobs,
        warm_rps,
        curve,
        peak_rps: peak.throughput_rps,
        peak_p50_us: peak.p50_us,
        peak_p99_us: peak.p99_us,
    })
}

/// One sweep level: `conns` nonblocking connections driven by a
/// single-threaded `poll(2)` loop (the client-side mirror of the
/// server's reactor), each pipelining up to a fixed window of
/// requests. Latency is measured enqueue-to-decode per correlation id.
fn run_conn_level(
    addr: &str,
    conns: usize,
    total: usize,
    warm_jobs: usize,
) -> Result<ConnLevelReport, String> {
    const WINDOW: usize = 4;
    struct Mux {
        stream: TcpStream,
        scanner: FrameScanner,
        outbox: Vec<u8>,
        written: usize,
        inflight: usize,
    }
    fn enqueue(m: &mut Mux, idx: usize, warm_jobs: usize, send_time: &mut Vec<Instant>) {
        let req = Request::Run {
            corr: idx as u64,
            priority: 1,
            deadline_ms: None,
            spec: binary_spec(idx % warm_jobs),
        };
        m.outbox.extend_from_slice(&req.encode());
        m.inflight += 1;
        debug_assert_eq!(send_time.len(), idx, "corr must index send_time");
        send_time.push(Instant::now());
    }

    let mut muxes = Vec::with_capacity(conns);
    for _ in 0..conns {
        let stream = connect_retry(addr, Duration::from_secs(30))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        muxes.push(Mux {
            stream,
            scanner: FrameScanner::new(MAX_RESPONSE_PAYLOAD),
            outbox: Vec::new(),
            written: 0,
            inflight: 0,
        });
    }

    let mut send_time: Vec<Instant> = Vec::with_capacity(total);
    let mut latencies: Vec<u64> = Vec::with_capacity(total);
    let mut next = 0usize;
    let started = Instant::now();
    for m in &mut muxes {
        for _ in 0..WINDOW {
            if next < total {
                enqueue(m, next, warm_jobs, &mut send_time);
                next += 1;
            }
        }
    }

    let deadline = started + Duration::from_secs(120);
    let mut fds: Vec<PollFd> = Vec::with_capacity(conns);
    let mut idxs: Vec<usize> = Vec::with_capacity(conns);
    let mut chunk = [0u8; 16 * 1024];
    while latencies.len() < total {
        if Instant::now() > deadline {
            return Err(format!(
                "connection sweep wedged: {}/{total} replies after 120s at {conns} conns",
                latencies.len()
            ));
        }
        fds.clear();
        idxs.clear();
        for (i, m) in muxes.iter().enumerate() {
            let mut events = 0i16;
            if m.written < m.outbox.len() {
                events |= POLLOUT;
            }
            if m.inflight > 0 {
                events |= POLLIN;
            }
            if events != 0 {
                fds.push(PollFd::new(m.stream.as_raw_fd(), events));
                idxs.push(i);
            }
        }
        if fds.is_empty() {
            return Err("connection sweep wedged: replies missing with no pending I/O".to_owned());
        }
        poll_fds(&mut fds, Some(Duration::from_secs(10))).map_err(|e| format!("poll: {e}"))?;
        for (k, &ci) in idxs.iter().enumerate() {
            let m = &mut muxes[ci];
            if fds[k].ready(POLLOUT) && m.written < m.outbox.len() {
                loop {
                    match m.stream.write(&m.outbox[m.written..]) {
                        Ok(0) => return Err("server closed mid-sweep".to_owned()),
                        Ok(n) => {
                            m.written += n;
                            if m.written == m.outbox.len() {
                                m.outbox.clear();
                                m.written = 0;
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => return Err(format!("send: {e}")),
                    }
                }
            }
            if !fds[k].ready(POLLIN) {
                continue;
            }
            loop {
                match m.stream.read(&mut chunk) {
                    Ok(0) => return Err("server closed mid-sweep".to_owned()),
                    Ok(n) => {
                        m.scanner.extend(&chunk[..n]);
                        while let Some(payload) = m
                            .scanner
                            .next_frame()
                            .map_err(|e| format!("bad frame: {e}"))?
                        {
                            match Response::decode(&payload)
                                .map_err(|e| format!("bad response: {e}"))?
                            {
                                Response::Outcome { corr, .. } => {
                                    let us = send_time[usize::try_from(corr)
                                        .map_err(|_| "corr out of range".to_owned())?]
                                    .elapsed()
                                    .as_micros();
                                    latencies.push(u64::try_from(us).unwrap_or(u64::MAX));
                                    m.inflight -= 1;
                                    if next < total {
                                        enqueue(m, next, warm_jobs, &mut send_time);
                                        next += 1;
                                    }
                                }
                                Response::Error { status, reason, .. } => {
                                    return Err(format!(
                                        "sweep request failed: {} {reason:?}",
                                        status.as_str()
                                    ))
                                }
                                other => return Err(format!("unexpected response {other:?}")),
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("recv: {e}")),
                }
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    latencies.sort_unstable();
    Ok(ConnLevelReport {
        conns,
        requests: latencies.len(),
        throughput_rps: latencies.len() as f64 / elapsed,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
    })
}

impl LoadReport {
    /// Renders the report as the `BENCH_serve.json` document. The
    /// output always passes [`cedar_obs::export::validate_json`].
    #[must_use]
    pub fn to_json(&self) -> String {
        fn f(x: f64) -> String {
            if x.is_finite() {
                format!("{x:.3}")
            } else {
                "0".to_owned()
            }
        }
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": \"cedar-bench-serve/4\",\n");
        out.push_str(&format!(
            "  \"commit\": \"{}\",\n",
            cedar_obs::export::escape_json(&self.commit)
        ));
        out.push_str(&format!(
            "  \"timestamp\": \"{}\",\n",
            cedar_obs::export::escape_json(&self.timestamp)
        ));
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        out.push_str(&format!(
            "  \"dedup\": {{\"burst\": {}, \"executed\": {}, \"cache_hits\": {}, \
             \"coalesced\": {}}},\n",
            self.dedup_burst, self.dedup_executed, self.dedup_cache_hits, self.dedup_coalesced
        ));
        out.push_str(&format!(
            "  \"fault_mix\": {{\"requests\": {}, \"ok\": {}, \"degraded\": {}, \
             \"errors\": {}, \"healthy_dropped\": {}}},\n",
            self.mix_requests,
            self.mix_ok,
            self.mix_degraded,
            self.mix_errors,
            self.mix_healthy_dropped
        ));
        out.push_str("  \"closed_loop\": [\n");
        for (i, level) in self.levels.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"clients\": {}, \"requests\": {}, \"throughput_rps\": {}, \
                 \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}}}{}\n",
                level.clients,
                level.requests,
                f(level.throughput_rps),
                level.p50_us,
                level.p95_us,
                level.p99_us,
                if i + 1 == self.levels.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"open_loop\": {{\"offered_rps\": {}, \"achieved_rps\": {}, \
             \"p50_us\": {}, \"p99_us\": {}}},\n",
            f(self.open_offered_rps),
            f(self.open_achieved_rps),
            self.open_p50_us,
            self.open_p99_us
        ));
        match &self.adversarial {
            Some(adv) => out.push_str(&format!(
                "  \"adversarial\": {{\"loris_conns\": {}, \"reaped_read\": {}, \
                 \"partial_write_conns\": {}, \"idle_survived\": {}}},\n",
                adv.loris_conns, adv.reaped_read, adv.partial_write_conns, adv.idle_survived
            )),
            None => out.push_str("  \"adversarial\": null,\n"),
        }
        out.push_str(&format!(
            "  \"binary\": {{\"warm_jobs\": {}, \"warm_rps\": {}, \"peak_rps\": {}, \
             \"peak_p50_us\": {}, \"peak_p99_us\": {}, \"conn_curve\": [\n",
            self.binary.warm_jobs,
            f(self.binary.warm_rps),
            f(self.binary.peak_rps),
            self.binary.peak_p50_us,
            self.binary.peak_p99_us
        ));
        for (i, level) in self.binary.curve.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"conns\": {}, \"requests\": {}, \"throughput_rps\": {}, \
                 \"p50_us\": {}, \"p99_us\": {}}}{}\n",
                level.conns,
                level.requests,
                f(level.throughput_rps),
                level.p50_us,
                level.p99_us,
                if i + 1 == self.binary.curve.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("  ]},\n");
        out.push_str(&format!(
            "  \"conns\": {}, \"fd_limit\": {},\n",
            self.conns, self.fd_limit
        ));
        out.push_str("  \"obs\": {");
        for (i, (name, value)) in self.obs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {}",
                cedar_obs::export::escape_json(name),
                f(*value)
            ));
        }
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"drained\": {}\n}}\n",
            match self.drained {
                Some(b) => b.to_string(),
                None => "null".to_owned(),
            }
        ));
        debug_assert!(validate_json(&out).is_ok(), "report must be valid JSON");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        // Rank 49.5 over 1..=100: halfway between 50 and 51.
        assert_eq!(percentile(&v, 0.50), 51);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        // The interpolation itself: p50 of [0, 10] is 5, not either
        // endpoint, and p75 of [0, 10, 20, 30] lands between samples.
        assert_eq!(percentile(&[0, 10], 0.50), 5);
        assert_eq!(percentile(&[0, 10, 20, 30], 0.75), 23);
        // A two-sample tail must not snap to the max (the old
        // nearest-rank bug): p99 of [100, 200] is 199, not 200.
        assert_eq!(percentile(&[100, 200], 0.99), 199);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn unique_jobs_have_unique_specs() {
        let a = unique_job(1);
        let b = unique_job(2);
        assert_ne!(a, b);
        assert!(json::parse(&a).is_ok());
    }

    #[test]
    fn report_renders_valid_json() {
        let report = LoadReport {
            mode: "smoke",
            dedup_burst: 8,
            dedup_executed: 1,
            dedup_cache_hits: 0,
            dedup_coalesced: 7,
            mix_requests: 24,
            mix_ok: 23,
            mix_degraded: 1,
            mix_errors: 0,
            mix_healthy_dropped: 0,
            levels: vec![LevelReport {
                clients: 1,
                requests: 6,
                throughput_rps: 12.5,
                p50_us: 800,
                p95_us: 1200,
                p99_us: 1500,
            }],
            open_offered_rps: 40.0,
            open_achieved_rps: 39.2,
            open_p50_us: 900,
            open_p99_us: 2100,
            adversarial: Some(AdversarialReport {
                loris_conns: 3,
                reaped_read: 3,
                partial_write_conns: 2,
                idle_survived: true,
            }),
            binary: BinaryReport {
                warm_jobs: 16,
                warm_rps: 850.0,
                curve: vec![
                    ConnLevelReport {
                        conns: 4,
                        requests: 256,
                        throughput_rps: 9000.0,
                        p50_us: 300,
                        p99_us: 900,
                    },
                    ConnLevelReport {
                        conns: 64,
                        requests: 256,
                        throughput_rps: 15000.0,
                        p50_us: 400,
                        p99_us: 2100,
                    },
                ],
                peak_rps: 15000.0,
                peak_p50_us: 400,
                peak_p99_us: 2100,
            },
            conns: 64,
            fd_limit: 1024,
            obs: vec![
                ("serve_conn_reaped_read".to_owned(), 3.0),
                ("serve_queue_shed".to_owned(), 0.0),
            ],
            drained: Some(true),
            commit: "abc123".to_owned(),
            timestamp: "2026-08-08T00:00:00Z".to_owned(),
        };
        let text = report.to_json();
        validate_json(&text).unwrap();
        let parsed = json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("cedar-bench-serve/4")
        );
        assert_eq!(parsed.get("commit").and_then(Json::as_str), Some("abc123"));
        assert_eq!(
            parsed
                .get("binary")
                .and_then(|b| b.get("peak_rps"))
                .and_then(Json::as_f64),
            Some(15000.0)
        );
        match parsed.get("binary").and_then(|b| b.get("conn_curve")) {
            Some(Json::Arr(levels)) => assert_eq!(levels.len(), 2),
            other => panic!("conn_curve should be a 2-entry array, got {other:?}"),
        }
        assert_eq!(parsed.get("conns").and_then(Json::as_u64), Some(64));
        assert_eq!(parsed.get("fd_limit").and_then(Json::as_u64), Some(1024));
        assert_eq!(
            parsed
                .get("obs")
                .and_then(|o| o.get("serve_conn_reaped_read"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            parsed
                .get("adversarial")
                .and_then(|a| a.get("reaped_read"))
                .and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(
            parsed
                .get("dedup")
                .and_then(|d| d.get("executed"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }
}
