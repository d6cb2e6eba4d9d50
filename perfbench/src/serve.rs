//! The `serve` workload: an in-process `cedar_serve` server driven over
//! CSRV binary frames by one client thread.
//!
//! The window alternates one-second phases of two closed loops: the
//! hit loop repeats specs memoized during set-up, so the reactor
//! answers from the cache; the execute loop sends specs never seen
//! before, so the dispatcher executes them. Hit phases set `ops_per_s`
//! and execute phases `sim_cycles_per_s`, so neither path can hide
//! behind the other.
//!
//! The execute loop talks to a second server without a cache
//! directory. The cache may live only inside the benchmark's checkout,
//! which is ext4 here, not tmpfs, and there a store's cost swung
//! tenfold with the filesystem's state: with every fresh result
//! stored, the execute rate spread by ±30% across runs of the same
//! code. For the same reason set-up writes nothing: the hit set is
//! stored once, off the clock ([`memoize`]). The store is timed per
//! call in the traced run's replay (`snap.store_us`).
//!
//! The loops alternate rather than overlap. Run together on two cores,
//! client, reactor and dispatcher are three busy threads, and the
//! dispatcher also waits on the metrics mutex the reactor takes for
//! every hit: the execute rate then swung by ±30% between runs of the
//! same code, even with each thread pinned to a core.

use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::path::Path;
use std::time::{Duration, Instant};

use cedar_exec::run_sweep_on;
use cedar_obs::export::parse_prometheus;
use cedar_serve::job::{JobOutcome, JobSpec};
use cedar_serve::proto::{
    decode_frame, FrameScanner, Request, Response, MAX_REQUEST_PAYLOAD, MAX_RESPONSE_PAYLOAD,
};
use cedar_serve::sys::{poll_fds, PollFd, POLLIN, POLLOUT};
use cedar_serve::{ServeConfig, ServerHandle};
use cedar_snap::{CacheDir, Snapshot};

use crate::gen::ServePlan;
use crate::layers::{self, ratio, NetTotals, MAX_NET_CYCLES};
use crate::report::Report;
use crate::trace::{render_table, Tracer};
use crate::{stats, Args, SetUps};

/// How long the client waits on a silent server before giving up.
const STALL: Duration = Duration::from_secs(30);

fn config(cache_dir: Option<&Path>) -> ServeConfig {
    ServeConfig {
        // One reactor and one worker: in each phase the client and one
        // server thread are busy, one per core of a two-core host.
        reactor_threads: 1,
        workers: 1,
        queue_capacity: 64,
        batch_max: 8,
        max_net_cycles: MAX_NET_CYCLES,
        cache_dir: cache_dir.map(Path::to_path_buf),
        ..ServeConfig::default()
    }
}

fn proto_err(e: impl std::fmt::Debug) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, format!("{e:?}"))
}

/// One nonblocking client connection of a pipelined window.
struct Conn {
    stream: TcpStream,
    scanner: FrameScanner,
    chunk: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            scanner: FrameScanner::new(MAX_RESPONSE_PAYLOAD),
            chunk: vec![0; 64 * 1024],
        })
    }

    fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let mut off = 0;
        while off < frame.len() {
            match self.stream.write(&frame[off..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    poll_fds(&mut [PollFd::new(self.fd(), POLLOUT)], Some(STALL))?;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads what has arrived and appends every complete response.
    fn drain(&mut self, out: &mut Vec<Response>) -> io::Result<()> {
        loop {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.scanner.extend(&self.chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        while let Some(payload) = self.scanner.next_frame().map_err(proto_err)? {
            out.push(Response::decode(&payload).map_err(proto_err)?);
        }
        Ok(())
    }
}

fn run_request(corr: u64, spec: JobSpec) -> Request {
    Request::Run {
        corr,
        priority: 1,
        deadline_ms: None,
        spec,
    }
}

/// The two started servers, the hit set memoized in the first.
struct Stage {
    /// Answers the hit loop from its cache directory.
    cache_server: ServerHandle,
    /// Executes the execute loop's fresh specs; no cache directory.
    exec_server: ServerHandle,
    /// Envelope each hit-set spec was first answered with.
    hit_ref: Vec<Vec<u8>>,
}

impl Stage {
    fn server(&self, lane: Lane) -> &ServerHandle {
        match lane {
            Lane::Hit => &self.cache_server,
            Lane::Exec => &self.exec_server,
        }
    }

    /// Drains and stops both servers, keeping the reference envelopes.
    fn shutdown(self) -> Vec<Vec<u8>> {
        self.cache_server.shutdown();
        self.exec_server.shutdown();
        self.hit_ref
    }
}

/// Set-up: start both servers, the caching one on `cache_dir`, and
/// execute the whole hit set through the cacheless one. It writes
/// nothing to disk; [`memoize`] fills the cache.
fn set_up(plan: &ServePlan, cache_dir: &Path, report: &mut Report) -> io::Result<Stage> {
    let cache_server = cedar_serve::start(config(Some(cache_dir)))?;
    let exec_server = cedar_serve::start(config(None))?;
    let hit_ref = execute_hit_set(&exec_server, plan, report)?;
    Ok(Stage {
        cache_server,
        exec_server,
        hit_ref,
    })
}

/// Requests set-up keeps outstanding: enough that the dispatcher
/// always has the next job queued, so set-up times the executions and
/// not a chain of thread wake-ups per request.
const SET_UP_DEPTH: usize = 8;

/// Sends the hit set to `server`, [`SET_UP_DEPTH`] requests at a time.
/// Every reply must be a fresh execution; returns the envelopes in
/// hit-set order.
fn execute_hit_set(
    server: &ServerHandle,
    plan: &ServePlan,
    report: &mut Report,
) -> io::Result<Vec<Vec<u8>>> {
    let specs = plan.hit_set();
    let mut conn = Conn::open(server.addr())?;
    let mut envelopes = vec![Vec::new(); specs.len()];
    let (mut sent, mut answered) = (0, 0);
    let mut got = Vec::new();
    while answered < specs.len() {
        while sent < specs.len() && sent - answered < SET_UP_DEPTH {
            conn.send(&run_request(sent as u64, specs[sent].clone()).encode())?;
            sent += 1;
        }
        if poll_fds(&mut [PollFd::new(conn.fd(), POLLIN)], Some(STALL))? == 0 {
            return Err(io::Error::new(ErrorKind::TimedOut, "server went silent"));
        }
        conn.drain(&mut got)?;
        for resp in got.drain(..) {
            answered += 1;
            report.attempted += 1;
            match resp {
                Response::Outcome {
                    corr,
                    cached: false,
                    envelope,
                } if envelopes.get(corr as usize).is_some_and(Vec::is_empty) => {
                    envelopes[corr as usize] = envelope;
                }
                other => report.fail(format!("set-up reply {other:?}")),
            }
        }
    }
    Ok(envelopes)
}

/// Memoizes the hit set: the caching server executes and stores it.
/// This runs once, off the set-up clock, because its stores are file
/// creations in the checkout: on ext4, 256 of them took anywhere from
/// 8 ms to 130 ms from one minute to the next, more than the rest of
/// set-up moved. Its envelopes must equal the set-up's.
fn memoize(stage: &Stage, plan: &ServePlan, report: &mut Report) -> io::Result<()> {
    let stored = execute_hit_set(&stage.cache_server, plan, report)?;
    report.attempted += 1;
    if stored != stage.hit_ref {
        report.fail("the caching server executed different envelopes".to_owned());
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Hit,
    Exec,
}

/// Requests each loop keeps outstanding. Eight pipelined hits let the
/// reactor answer a burst per wakeup; two executes keep the next job
/// queued while one runs, so the dispatcher never waits on the client.
const HIT_DEPTH: usize = 8;
const EXEC_DEPTH: usize = 2;

/// Length of one phase.
const PHASE: Duration = Duration::from_secs(1);

/// Slice length for the rates.
const SLICE_S: f64 = 0.1;

/// Hits of a traced window that get a round-trip span and are replayed
/// in-process: enough for stable per-stage means, few enough that the
/// spans file stays a few MB. Every execute is traced.
const TRACE_HIT_CAP: usize = 20_000;

struct Pending {
    corr: u64,
    sent: Instant,
    item: u64,
}

/// What a window produced.
#[derive(Default)]
struct WindowOut {
    elapsed_s: f64,
    /// Requests answered in each full slice.
    slice_ops: Vec<u64>,
    hits: u64,
    execs: u64,
    hit_lat: stats::Histogram,
    exec_lat: stats::Histogram,
    /// `(fresh spec index, answer time in s, reply envelope)` of every
    /// execute.
    exec_replies: Vec<(u64, f64, Vec<u8>)>,
    /// `(lane, item)` of the traced answers (every execute, the first
    /// [`TRACE_HIT_CAP`] hits), in answer order: what the replay re-runs.
    traced: Vec<(Lane, u64)>,
}

impl WindowOut {
    fn slice_of(&self, at_s: f64) -> Option<usize> {
        let k = (at_s / SLICE_S) as usize;
        (k < self.slice_ops.len()).then_some(k)
    }

    /// Requests per second in each 100 ms slice.
    fn slice_ops_per_s(&self) -> impl Iterator<Item = f64> + '_ {
        self.slice_ops.iter().map(|&n| n as f64 / SLICE_S)
    }

    /// Simulated cycles executed per second in each 100 ms slice.
    fn slice_cycles_per_s(&self) -> Vec<f64> {
        let mut cycles = vec![0u64; self.slice_ops.len()];
        for (_, at, env) in &self.exec_replies {
            if let (Some(k), Ok(o)) = (self.slice_of(*at), JobOutcome::from_snapshot_bytes(env)) {
                cycles[k] += o.net_cycles;
            }
        }
        cycles.iter().map(|&c| c as f64 / SLICE_S).collect()
    }

    /// Adds a later phase's answers to this one's.
    fn absorb(&mut self, later: WindowOut) {
        self.elapsed_s += later.elapsed_s;
        self.hits += later.hits;
        self.execs += later.execs;
        self.hit_lat.merge(&later.hit_lat);
        self.exec_lat.merge(&later.exec_lat);
        self.exec_replies.extend(later.exec_replies);
        self.traced.extend(later.traced);
    }
}

/// What the alternating phases produced.
struct Phases {
    all: WindowOut,
    /// Seconds spent in execute phases.
    exec_s: f64,
    /// Hits answered per second, per slice of the hit phases.
    hit_rates: Vec<f64>,
    /// Simulated cycles executed per second, per slice of the execute
    /// phases.
    cycle_rates: Vec<f64>,
}

impl Phases {
    /// Hit requests per second of the fastest hit-phase slice
    /// ([`stats::best`]).
    fn hits_per_s(&self) -> f64 {
        stats::best(&self.hit_rates)
    }

    /// Simulated cycles per second of the fastest execute-phase slice.
    fn cycles_per_s(&self) -> f64 {
        stats::best(&self.cycle_rates)
    }
}

struct Client {
    plan: ServePlan,
    next_exec: u64,
    next_corr: u64,
}

impl Client {
    fn issue(&mut self, lane: Lane, conn: &mut Conn) -> io::Result<Pending> {
        self.next_corr += 1;
        let (item, spec) = match lane {
            Lane::Hit => {
                let i = self.plan.next_hit();
                (i as u64, self.plan.hit_set()[i].clone())
            }
            Lane::Exec => {
                self.next_exec += 1;
                (self.next_exec, self.plan.exec_spec(self.next_exec))
            }
        };
        let sent = Instant::now();
        conn.send(&run_request(self.next_corr, spec).encode())?;
        Ok(Pending {
            corr: self.next_corr,
            sent,
            item,
        })
    }

    /// Runs one loop on a fresh connection for `window`, then lets its
    /// outstanding requests finish. With a tracer, each traced round
    /// trip (every execute; hits while `hit_room` lasts) becomes a
    /// `serve.round_trip` span.
    fn window(
        &mut self,
        stage: &Stage,
        lane: Lane,
        window: Duration,
        mut tracer: Option<&mut Tracer>,
        mut hit_room: usize,
        report: &mut Report,
    ) -> io::Result<WindowOut> {
        let depth = match lane {
            Lane::Hit => HIT_DEPTH,
            Lane::Exec => EXEC_DEPTH,
        };
        let mut conn = Conn::open(stage.server(lane).addr())?;
        let mut out = WindowOut {
            slice_ops: vec![0; ((window.as_secs_f64() / SLICE_S) as usize).max(1)],
            ..WindowOut::default()
        };
        let mut pending = Vec::with_capacity(depth);
        let start = Instant::now();
        for _ in 0..depth {
            pending.push(self.issue(lane, &mut conn)?);
        }
        let mut got = Vec::new();
        while !pending.is_empty() {
            let stop = start.elapsed() >= window;
            if poll_fds(&mut [PollFd::new(conn.fd(), POLLIN)], Some(STALL))? == 0 {
                return Err(io::Error::new(ErrorKind::TimedOut, "server went silent"));
            }
            conn.drain(&mut got)?;
            for resp in got.drain(..) {
                let Some(at) = pending.iter().position(|p: &Pending| p.corr == resp.corr()) else {
                    report.fail(format!("unsolicited response {resp:?}"));
                    continue;
                };
                let p = pending.swap_remove(at);
                let ns = u64::try_from(p.sent.elapsed().as_nanos()).unwrap_or(u64::MAX);
                if let Some(t) = tracer.as_deref_mut() {
                    if lane == Lane::Exec || hit_room > 0 {
                        if lane == Lane::Hit {
                            hit_room -= 1;
                        }
                        let end = t.now();
                        t.record(
                            p.corr,
                            "serve.round_trip",
                            None,
                            end.saturating_sub(ns),
                            end,
                        );
                        out.traced.push((lane, p.item));
                    }
                }
                let done_s = start.elapsed().as_secs_f64();
                if let Some(k) = out.slice_of(done_s) {
                    out.slice_ops[k] += 1;
                }
                self.answer(lane, &p, resp, ns, done_s, stage, &mut out, report);
                if !stop {
                    pending.push(self.issue(lane, &mut conn)?);
                }
            }
        }
        out.elapsed_s = start.elapsed().as_secs_f64();
        Ok(out)
    }

    /// Alternates hit and execute phases for `window` (at least one of
    /// each). Returns the merged answers and the per-slice rates of
    /// each phase kind: hits per second, executed cycles per second.
    /// `between(progress, report)` runs before each phase; `progress`
    /// is the share of the phases done.
    fn phases(
        &mut self,
        stage: &Stage,
        window: Duration,
        mut tracer: Option<&mut Tracer>,
        report: &mut Report,
        mut between: impl FnMut(f64, &mut Report) -> io::Result<()>,
    ) -> io::Result<Phases> {
        let pairs = ((window.as_secs_f64() / (2.0 * PHASE.as_secs_f64())).round() as usize).max(1);
        let mut all = WindowOut::default();
        let mut hit_rates = Vec::new();
        let mut cycle_rates = Vec::new();
        let mut exec_s = 0.0;
        for pair in 0..pairs {
            for (half, lane) in [Lane::Hit, Lane::Exec].into_iter().enumerate() {
                between((2 * pair + half) as f64 / (2 * pairs) as f64, report)?;
                let hits_traced = all.traced.iter().filter(|(l, _)| *l == Lane::Hit).count();
                let w = self.window(
                    stage,
                    lane,
                    PHASE,
                    tracer.as_deref_mut(),
                    TRACE_HIT_CAP.saturating_sub(hits_traced),
                    report,
                )?;
                match lane {
                    Lane::Hit => hit_rates.extend(w.slice_ops_per_s()),
                    Lane::Exec => {
                        cycle_rates.extend(w.slice_cycles_per_s());
                        exec_s += w.elapsed_s;
                    }
                }
                all.absorb(w);
            }
        }
        Ok(Phases {
            all,
            exec_s,
            hit_rates,
            cycle_rates,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn answer(
        &self,
        lane: Lane,
        p: &Pending,
        resp: Response,
        ns: u64,
        done_s: f64,
        stage: &Stage,
        out: &mut WindowOut,
        report: &mut Report,
    ) {
        let Response::Outcome {
            cached, envelope, ..
        } = resp
        else {
            return report.fail(format!("{lane:?} request {}: {resp:?}", p.corr));
        };
        match lane {
            Lane::Hit => {
                out.hits += 1;
                out.hit_lat.record(ns);
                if !cached || envelope != stage.hit_ref[p.item as usize] {
                    report.fail(format!("hit {}: cached={cached}, envelope differs", p.corr));
                }
            }
            Lane::Exec => {
                out.execs += 1;
                out.exec_lat.record(ns);
                if cached {
                    report.fail(format!("fresh spec {} answered from the cache", p.item));
                }
                out.exec_replies.push((p.item, done_s, envelope));
            }
        }
    }
}

/// Server-side numbers over a window: counter and histogram deltas.
#[derive(Debug, Default, Clone, Copy)]
struct ObsSnap {
    hits: f64,
    executed: f64,
    received: f64,
    wakeups: f64,
    wait_sum: f64,
    wait_n: f64,
    service_sum: f64,
    service_n: f64,
    latency_sum: f64,
    latency_n: f64,
}

impl ObsSnap {
    /// Both servers' numbers, summed.
    fn take(stage: &Stage) -> ObsSnap {
        let servers = [&stage.cache_server, &stage.exec_server];
        let counter = |name: &str| -> f64 {
            servers
                .iter()
                .map(|s| s.obs().counter_value(name) as f64)
                .sum()
        };
        let series: Vec<_> = servers
            .iter()
            .map(|s| {
                parse_prometheus(&s.obs().prometheus()).expect("the server's exposition parses")
            })
            .collect();
        let histogram = |name: &str| -> f64 { series.iter().filter_map(|m| m.get(name)).sum() };
        ObsSnap {
            hits: counter("serve.cache.hits"),
            executed: counter("serve.jobs.executed"),
            received: counter("serve.requests.received"),
            wakeups: counter("serve.reactor.wakeups"),
            wait_sum: histogram("cedar_serve_queue_wait_us_sum"),
            wait_n: histogram("cedar_serve_queue_wait_us_count"),
            service_sum: histogram("cedar_serve_job_service_us_sum"),
            service_n: histogram("cedar_serve_job_service_us_count"),
            latency_sum: histogram("cedar_serve_request_latency_us_sum"),
            latency_n: histogram("cedar_serve_request_latency_us_count"),
        }
    }

    fn minus(self, o: ObsSnap) -> ObsSnap {
        ObsSnap {
            hits: self.hits - o.hits,
            executed: self.executed - o.executed,
            received: self.received - o.received,
            wakeups: self.wakeups - o.wakeups,
            wait_sum: self.wait_sum - o.wait_sum,
            wait_n: self.wait_n - o.wait_n,
            service_sum: self.service_sum - o.service_sum,
            service_n: self.service_n - o.service_n,
            latency_sum: self.latency_sum - o.latency_sum,
            latency_n: self.latency_n - o.latency_n,
        }
    }
}

/// The server's counters must show exactly the client's split.
fn check_split(obs: &ObsSnap, w: &WindowOut, report: &mut Report) {
    report.attempted += 1;
    if obs.hits != w.hits as f64 || obs.executed != w.execs as f64 {
        report.fail(format!(
            "server counted {} hits / {} executions, client sent {} / {}",
            obs.hits, obs.executed, w.hits, w.execs
        ));
    }
}

/// Compares every reply envelope with `JobOutcome::to_snapshot_bytes`
/// of a direct `JobSpec::execute` of its spec, off the clock.
fn verify(plan: &ServePlan, hit_ref: &[Vec<u8>], w: &WindowOut, nproc: usize, report: &mut Report) {
    let direct = |spec: &JobSpec| {
        spec.execute(MAX_NET_CYCLES)
            .map(|o| o.to_snapshot_bytes())
            .ok()
    };
    let hit_ok = run_sweep_on(nproc, plan.hit_set().to_vec(), |s| direct(&s));
    for (i, want) in hit_ok.iter().enumerate() {
        report.attempted += 1;
        if want.as_deref() != Some(hit_ref[i].as_slice()) {
            report.fail(format!("hit-set spec {i}: served envelope differs"));
        }
    }
    let inputs: Vec<&(u64, f64, Vec<u8>)> = w.exec_replies.iter().collect();
    let bad = run_sweep_on(nproc, inputs, |(i, _, env)| {
        direct(&plan.exec_spec(*i)).as_deref() != Some(env.as_slice())
    });
    report.attempted += w.hits + w.execs;
    for ((i, _, _), bad) in w.exec_replies.iter().zip(bad) {
        if bad {
            report.fail(format!("fresh spec {i}: served envelope differs"));
        }
    }
}

fn pct_us(h: &stats::Histogram, p: f64) -> f64 {
    h.percentile_ns(p).map_or(0.0, |ns| ns / 1e3)
}

fn latency_extras(w: &WindowOut, report: &mut Report) {
    report.extra("hit_p50_us", "us", pct_us(&w.hit_lat, 0.5));
    report.extra("hit_p99_us", "us", pct_us(&w.hit_lat, 0.99));
    report.extra("exec_p50_us", "us", pct_us(&w.exec_lat, 0.5));
    report.extra("exec_p99_us", "us", pct_us(&w.exec_lat, 0.99));
    report.extra("hit_samples", "count", w.hit_lat.count() as f64);
    report.extra("exec_samples", "count", w.exec_lat.count() as f64);
}

fn fail_io(report: &mut Report, what: &str, e: &io::Error) -> Report {
    report.fail(format!("{what}: {e}"));
    std::mem::take(report)
}

/// The timed run: end-to-end metrics.
pub fn run(args: &Args, nproc: usize, run_dir: &Path) -> Report {
    let mut report = Report::default();
    report.notes.push(format!(
        "cache filesystem: {}",
        crate::sys::fs_type(run_dir)
    ));
    // Set-up tries run spread through the window (see `SetUps`). The
    // first one's servers serve the window; every later one must
    // execute the same envelopes and is shut down again before the
    // next phase. All share one cache directory, which only the
    // first one's caching server ever writes.
    let cache_dir = run_dir.join("cache");
    let mut setups = SetUps::default();
    let try_set_up = |setups: &mut SetUps, report: &mut Report| {
        setups.time(|| set_up(&ServePlan::new(args.seed), &cache_dir, report))
    };
    let stage = match try_set_up(&mut setups, &mut report)
        .and_then(|stage| memoize(&stage, &ServePlan::new(args.seed), &mut report).map(|()| stage))
    {
        Ok(s) => s,
        Err(e) => return fail_io(&mut report, "set-up", &e),
    };
    let extra_set_up = |setups: &mut SetUps, report: &mut Report| -> io::Result<()> {
        let again = try_set_up(setups, report)?.shutdown();
        report.attempted += 1;
        if again != stage.hit_ref {
            report.fail("a later set-up executed different envelopes".to_owned());
        }
        Ok(())
    };
    let mut client = Client {
        plan: ServePlan::new(args.seed),
        next_exec: 0,
        next_corr: 1 << 32,
    };
    let before = ObsSnap::take(&stage);
    let phases = client.phases(
        &stage,
        args.window(),
        None,
        &mut report,
        |progress, report| {
            if setups.due(progress) {
                extra_set_up(&mut setups, report)?;
            }
            Ok(())
        },
    );
    let phases = match phases {
        Ok(p) => p,
        Err(e) => return fail_io(&mut report, "window", &e),
    };
    let obs = ObsSnap::take(&stage).minus(before);
    while !setups.done() {
        if let Err(e) = extra_set_up(&mut setups, &mut report) {
            return fail_io(&mut report, "set-up", &e);
        }
    }
    let rss = crate::sys::peak_rss_mb().unwrap_or(0.0);
    let hit_ref = stage.shutdown();

    let w = &phases.all;
    check_split(&obs, w, &mut report);
    verify(&client.plan, &hit_ref, w, nproc, &mut report);
    report.metric("ops_per_s", phases.hits_per_s());
    report.metric("sim_cycles_per_s", phases.cycles_per_s());
    setups.report(&mut report);
    report.extra("peak_rss_mb", "MB", rss);
    report.extra("rps", "1/s", phases.hits_per_s());
    report.extra(
        "rps_mean",
        "1/s",
        w.hits as f64 / (w.elapsed_s - phases.exec_s),
    );
    report.extra("points_per_s", "1/s", w.execs as f64 / phases.exec_s);
    latency_extras(w, &mut report);
    report.extra("window_s", "s", w.elapsed_s);
    report
}

/// Replays the traced window's requests in-process, stage by stage:
/// decode → key → load/unseal or execute → store → encode.
fn replay(
    client: &Client,
    stage: &Stage,
    w: &WindowOut,
    dir: &Path,
    t: &mut Tracer,
    totals: &mut NetTotals,
    report: &mut Report,
) -> io::Result<f64> {
    let cache = CacheDir::new(dir)?;
    for (spec, env) in client.plan.hit_set().iter().zip(&stage.hit_ref) {
        cache.store_bytes(&spec.key(), env)?;
    }
    let served: HashMap<u64, &[u8]> = w
        .exec_replies
        .iter()
        .map(|(i, _, env)| (*i, env.as_slice()))
        .collect();
    let work: Vec<(bool, u64, Vec<u8>)> = w
        .traced
        .iter()
        .map(|&(lane, item)| {
            let spec = match lane {
                Lane::Hit => client.plan.hit_set()[item as usize].clone(),
                Lane::Exec => client.plan.exec_spec(item),
            };
            (lane == Lane::Hit, item, run_request(0, spec).encode())
        })
        .collect();
    let start = Instant::now();
    let p = Some("serve.request");
    for (id, (hit, item, frame)) in work.iter().enumerate() {
        let id = id as u64;
        let begin = t.now();
        let req = t.time(id, "serve.decode", p, || {
            decode_frame(frame, MAX_REQUEST_PAYLOAD).and_then(Request::decode)
        });
        let Ok(Request::Run { corr, spec, .. }) = req else {
            report.fail(format!("replayed frame {id} failed to decode"));
            continue;
        };
        let key = t.time(id, "serve.key", p, || spec.key());
        let envelope = if *hit {
            let bytes = t.time(id, "snap.load", p, || cache.load_bytes(&key));
            let Some(bytes) = bytes else {
                report.fail(format!("replayed hit {item} missed the cache"));
                continue;
            };
            let ok = t.time(id, "snap.unseal", p, || {
                JobOutcome::from_snapshot_bytes(&bytes)
            });
            if ok.is_err() || bytes != stage.hit_ref[*item as usize] {
                report.fail(format!("replayed hit {item} differs"));
            }
            bytes
        } else {
            let e0 = t.now();
            let r = layers::traced_execute(&spec, id, "serve.execute", t);
            let e1 = t.now();
            t.record(id, "serve.execute", p, e0, e1);
            let Ok((outcome, point)) = r else {
                report.fail(format!("replayed execute {item} failed"));
                continue;
            };
            totals.add(&point);
            let bytes = outcome.to_snapshot_bytes();
            let stored = t.time(id, "snap.store", p, || cache.store_bytes(&key, &bytes));
            if stored.is_err() || served.get(item) != Some(&bytes.as_slice()) {
                report.fail(format!(
                    "replayed execute {item} differs from the served one"
                ));
            }
            bytes
        };
        let frame = t.time(id, "serve.encode", p, || {
            Response::Outcome {
                corr,
                cached: *hit,
                envelope,
            }
            .encode()
        });
        std::hint::black_box(frame);
        let end = t.now();
        t.record(id, "serve.request", None, begin, end);
    }
    Ok(start.elapsed().as_secs_f64())
}

/// The traced run: per-layer metrics and the layer tables.
pub fn run_traced(args: &Args, nproc: usize, run_dir: &Path) -> Report {
    let mut report = Report::default();
    let plan = ServePlan::new(args.seed);
    let stage = match set_up(&plan, &run_dir.join("cache"), &mut report)
        .and_then(|stage| memoize(&stage, &plan, &mut report).map(|()| stage))
    {
        Ok(s) => s,
        Err(e) => return fail_io(&mut report, "set-up", &e),
    };
    let mut client = Client {
        plan,
        next_exec: 0,
        next_corr: 1 << 32,
    };
    let half = args.window() / 2;
    let plain = match client.phases(&stage, half, None, &mut report, |_, _| Ok(())) {
        Ok(p) => p,
        Err(e) => return fail_io(&mut report, "untraced window", &e),
    };
    let mut tracer = Tracer::new(Instant::now());
    let before = ObsSnap::take(&stage);
    let traced_phases =
        match client.phases(&stage, half, Some(&mut tracer), &mut report, |_, _| Ok(())) {
            Ok(p) => p,
            Err(e) => return fail_io(&mut report, "traced window", &e),
        };
    let obs = ObsSnap::take(&stage).minus(before);
    let traced = &traced_phases.all;
    check_split(&obs, traced, &mut report);

    let mut totals = NetTotals::default();
    let replay_s = match replay(
        &client,
        &stage,
        traced,
        &run_dir.join("replay"),
        &mut tracer,
        &mut totals,
        &mut report,
    ) {
        Ok(s) => s,
        Err(e) => return fail_io(&mut report, "replay", &e),
    };
    let hit_ref = stage.shutdown();
    verify(&client.plan, &hit_ref, &plain.all, nproc, &mut report);
    verify(&client.plan, &hit_ref, traced, nproc, &mut report);

    let plain_ops = plain.hits_per_s();
    let traced_ops = traced_phases.hits_per_s();
    let rtt_us = ratio(
        (traced.hit_lat.sum_ns() + traced.exec_lat.sum_ns()) / 1e3,
        (traced.hit_lat.count() + traced.exec_lat.count()) as f64,
    );
    let server_us = ratio(obs.latency_sum, obs.latency_n);
    let service_s = obs.service_sum / 1e6;

    // Round trips happened in the socket window; the replay table
    // covers only the in-process stages.
    let (_, round_trip_s) = tracer.total("serve.round_trip");
    let rows = [
        ("serve", tracer.self_s("serve") - round_trip_s),
        ("snap", tracer.self_s("snap")),
        ("net", tracer.self_s("net")),
    ];
    let attributed: f64 = rows.iter().map(|(_, s)| s).sum();
    report.notes.push(render_table(
        &format!(
            "layer table (in-process replay of {} of {} requests: every execute, the first hits)",
            traced.traced.len(),
            traced.hits + traced.execs
        ),
        replay_s,
        &rows,
    ));
    report.notes.push(format!(
        "socket window: client round trip {rtt_us:.1} us = wire+reactor {:.1} us + server {server_us:.1} us \
         (queue wait {:.1} us, service {:.1} us per execute)",
        rtt_us - server_us,
        ratio(obs.wait_sum, obs.wait_n),
        ratio(obs.service_sum, obs.service_n),
    ));

    report.metric("net.build_us", tracer.mean_us("net.build"));
    let (_, run_s) = tracer.total("net.run");
    report.metric(
        "net.run_ns_per_cycle",
        ratio(run_s * 1e9, totals.net_cycles as f64),
    );
    report.metric("net.reduce_us", tracer.mean_us("net.reduce"));
    report.metric("net.specialized_points", totals.specialized as f64);
    report.metric(
        "net.ff_cycle_frac",
        ratio(totals.ff_cycles as f64, totals.net_cycles as f64),
    );
    report.metric("exec.points", obs.executed);
    report.metric("exec.busy_frac", ratio(service_s, traced_phases.exec_s));
    report.metric(
        "exec.overhead_s",
        (traced_phases.exec_s - service_s).max(0.0),
    );
    report.metric("snap.load_us", tracer.mean_us("snap.load"));
    report.metric("snap.unseal_us", tracer.mean_us("snap.unseal"));
    report.metric("snap.store_us", tracer.mean_us("snap.store"));
    report.metric("serve.decode_us", tracer.mean_us("serve.decode"));
    report.metric("serve.key_us", tracer.mean_us("serve.key"));
    report.metric("serve.encode_us", tracer.mean_us("serve.encode"));
    report.metric("serve.execute_us", tracer.mean_us("serve.execute"));
    report.metric("serve.queue_wait_us", ratio(obs.wait_sum, obs.wait_n));
    report.metric("serve.service_us", ratio(obs.service_sum, obs.service_n));
    report.metric("serve.server_latency_us", server_us);
    report.metric(
        "serve.wakeups_per_request",
        ratio(obs.wakeups, obs.received),
    );
    report.metric("serve.wire_us", rtt_us - server_us);
    report.metric("serve.cache_hits", obs.hits);
    report.metric("serve.jobs_executed", obs.executed);
    report.metric("serve.hit_p50_us", pct_us(&plain.all.hit_lat, 0.5));
    report.metric("serve.hit_p99_us", pct_us(&plain.all.hit_lat, 0.99));
    report.metric("serve.exec_p50_us", pct_us(&plain.all.exec_lat, 0.5));
    report.metric("serve.exec_p99_us", pct_us(&plain.all.exec_lat, 0.99));
    report.metric("trace.overhead_frac", 1.0 - traced_ops / plain_ops);
    report.metric(
        "trace.unattributed_frac",
        ratio(replay_s - attributed, replay_s),
    );
    report.metric("trace.spans", tracer.spans().len() as f64);
    report.metric("exec.speedup", 0.0);
    report.metric("mem.peak_rss_mb", crate::sys::peak_rss_mb().unwrap_or(0.0));
    report.zero_layers(&["faults"]);
    report.extra("rps_untraced", "1/s", plain_ops);
    report.extra("rps_traced", "1/s", traced_ops);
    crate::write_spans(args, &tracer, &mut report);
    report
}
