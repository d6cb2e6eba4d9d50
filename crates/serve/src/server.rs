//! The cedar-serve server: reactor fleet, admission control, dedup,
//! batching dispatcher, and graceful drain.
//!
//! # Request path
//!
//! ```text
//! TCP bytes ──reactor──▶ Conn ──parse──▶ admission
//!                         ▲                 │ 1. memo      (memory, bounded) ──hit──┐
//!                         │                 │ 2. CacheDir  (disk, verified)  ──hit──┤
//!                         │                 │ 3. dedup map (collapse in flight)     │
//!                         │                 ▼                                       │
//!                         │              JobQueue ──▶ dispatcher ──▶ cedar-exec pool│
//!                         │                                               │         │
//!                         │              store on disk, then in the memo ◀┤         │
//!                         │                                               │         │
//!                         ├──── ReactorLink (rendered reply bytes) ◀──────┘         │
//!                         └──── reply frame, envelope copied once ◀─────────────────┘
//! ```
//!
//! Connections are owned by a small fixed set of reactor threads (see
//! [`crate::reactor`]); no thread is ever created per connection.
//! Requests that cannot be answered immediately (a `run` that misses
//! the cache, a `shutdown`) register a [`Waiter`] — reactor id,
//! connection token, and enough protocol context to render the reply —
//! and the dispatcher routes rendered bytes back through the owning
//! reactor's inbox when the job completes. One connection can have any
//! number of waiters outstanding; the binary protocol's correlation
//! ids (and the line protocol's `id` field) let clients pipeline.
//!
//! Admission tries three layers before it queues a ticket. A server
//! with a cache directory first asks its memo, a bounded in-memory
//! tier ([`crate::memo`]) that holds only envelopes already verified,
//! then the [`CacheDir`](cedar_snap::CacheDir) on disk, whose checksum
//! and decode must pass before a disk entry becomes a hit (and enters
//! the memo). A memo hit does no file I/O, no checksum and no decode.
//! Then the dedup map: identical in-flight requests collapse onto one
//! execution — the first arrival inserts an entry and queues a ticket,
//! later arrivals just add their waiter. A completed outcome is sealed
//! once; because [`JobOutcome::to_snapshot_bytes`] *is* the cache
//! entry, the envelope is shared (`Arc`) between the disk write, the
//! memo and every binary `Outcome` response, which copies it once,
//! straight into its frame.
//!
//! # Shutdown
//!
//! Graceful drain (`shutdown` op or [`ServerHandle::shutdown`]) closes
//! the queue: admission starts rejecting `run`s with a typed
//! `draining` reason, the dispatcher finishes the backlog, every
//! waiter gets its reply, the shutdown requesters get their acks, and
//! only then do the reactors flush and exit — deterministic in the
//! sense that every admitted job completes and every connection sees a
//! final reply. [`ServerHandle::kill`] is the hard variant: the
//! in-flight sweep stops at the next point boundary via `cedar-exec`
//! cancellation and queued jobs answer `cancelled`.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use cedar_exec::{run_sweep_streaming_on, CancelToken};
use cedar_obs::export::escape_json;
use cedar_obs::{http_reply, MetricSet, SharedObs};
use cedar_snap::Snapshot;

use crate::config::ServeConfig;
use crate::conn::{Conn, ConnToken, WireRequest};
use crate::job::{JobError, JobOutcome, JobSpec};
use crate::json::{self, Json};
use crate::memo::ResultCache;
use crate::proto::{ErrStatus, Request, Response};
use crate::queue::{JobQueue, JobTicket, PushError};
use crate::reactor::{Reactor, ReactorLink, ReactorMsg};

/// Every serve-path metric, pre-interned so exports show zeros
/// instead of missing series before traffic arrives. Names follow the
/// workspace's dot-path convention under `serve.`, so
/// `rollup("serve.responses.")` totals every response, whatever its
/// status. Histograms are 64 bins of 500 µs: 0–32 ms fine-grained, the
/// overflow bin catching the saturated tail.
pub(crate) const METRICS: MetricSet = MetricSet {
    counters: &[
        "serve.requests.received",
        "serve.responses.ok",
        "serve.responses.degraded",
        "serve.responses.rejected",
        "serve.responses.expired",
        "serve.responses.cancelled",
        "serve.responses.error",
        "serve.responses.invalid",
        "serve.jobs.executed",
        "serve.jobs.expired",
        "serve.dedup.coalesced",
        "serve.cache.hits",
        "serve.cache.disk_reads",
        "serve.cache.stores",
        "serve.queue.rejected",
        "serve.conn.reaped_read",
        "serve.conn.reaped_write",
        "serve.conns.accepted",
        "serve.reactor.wakeups",
        "serve.proto.corrupt",
    ],
    gauges: &["serve.queue.depth", "serve.conns.open"],
    histograms: &[
        "serve.queue.wait_us",
        "serve.job.service_us",
        "serve.request.latency_us",
    ],
    bins: 64,
    bin_width: 500,
};

/// Protocol context a waiter needs to render its reply later.
#[derive(Debug, Clone)]
pub(crate) enum ReplyCtx {
    /// Line-JSON: echo the request's `id`, observe latency from
    /// `received_us`.
    Json {
        id: Option<String>,
        received_us: u64,
    },
    /// Binary: echo the correlation id.
    Binary { corr: u64, received_us: u64 },
}

/// One registered reply obligation: which connection (on which
/// reactor) is owed an answer, and in what protocol.
#[derive(Debug)]
pub(crate) struct Waiter {
    reactor: usize,
    token: ConnToken,
    ctx: ReplyCtx,
    admitted_at: Instant,
}

/// How one admitted job resolved, shared by every waiter on its key.
pub(crate) enum Resolution {
    /// The job produced an outcome. `envelope` is the complete sealed
    /// CSNP snapshot of it — cache-entry bytes — shared so binary
    /// responses forward it without re-encoding.
    Done {
        outcome: JobOutcome,
        envelope: Arc<Vec<u8>>,
        cached: bool,
    },
    /// The job failed in a typed way.
    Failed(JobError),
}

struct InFlight {
    waiters: Vec<Waiter>,
}

struct Lifecycle {
    drained: Mutex<bool>,
    done: Condvar,
}

pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    pub(crate) obs: SharedObs,
    queue: JobQueue,
    dedup: Mutex<HashMap<String, InFlight>>,
    shutdown_waiters: Mutex<Vec<Waiter>>,
    draining: AtomicBool,
    kill: CancelToken,
    /// The memoization cache, memory tier in front of disk; `None`
    /// without a cache directory.
    cache: Option<ResultCache>,
    seq: AtomicU64,
    next_token: AtomicU64,
    next_reactor: AtomicUsize,
    conns_open: AtomicU64,
    links: OnceLock<Vec<ReactorLink>>,
    lifecycle: Lifecycle,
    addr: SocketAddr,
}

impl Shared {
    pub(crate) fn link(&self, id: usize) -> &ReactorLink {
        &self.links.get().expect("links initialized before spawn")[id]
    }

    fn links(&self) -> &[ReactorLink] {
        self.links.get().expect("links initialized before spawn")
    }

    /// A fresh connection token, unique across all reactors.
    pub(crate) fn mint_token(&self) -> ConnToken {
        self.next_token.fetch_add(1, Ordering::Relaxed)
    }

    /// Round-robin target reactor for a fresh connection.
    pub(crate) fn route_accept(&self) -> usize {
        self.next_reactor.fetch_add(1, Ordering::Relaxed) % self.links().len()
    }

    pub(crate) fn conn_opened(&self) {
        let n = self.conns_open.fetch_add(1, Ordering::Relaxed) + 1;
        self.obs.set_gauge("serve.conns.open", n as f64);
    }

    pub(crate) fn conn_closed(&self) {
        let n = self.conns_open.fetch_sub(1, Ordering::Relaxed) - 1;
        self.obs.set_gauge("serve.conns.open", n as f64);
    }

    fn route_reply(&self, reactor: usize, token: ConnToken, bytes: Vec<u8>, close_after: bool) {
        self.link(reactor).send(ReactorMsg::Reply {
            token,
            bytes,
            close_after,
        });
    }

    /// Renders `res` for one waiter and routes the bytes to its
    /// reactor. Response counters and the latency histogram tick here,
    /// once per *reply*, exactly as the thread-per-connection server
    /// counted them.
    fn resolve_waiter(&self, waiter: &Waiter, res: &Resolution) {
        let bytes = match &waiter.ctx {
            ReplyCtx::Json { id, received_us } => {
                render_resolution_json(id.as_deref(), res, self, *received_us).into_bytes()
            }
            ReplyCtx::Binary { corr, received_us } => {
                render_resolution_binary(*corr, res, self, *received_us)
            }
        };
        self.route_reply(waiter.reactor, waiter.token, bytes, false);
    }

    /// Resolves `key` for every registered waiter and retires it from
    /// the dedup map.
    fn complete(&self, key: &str, res: &Resolution) {
        let entry = self.dedup.lock().expect("dedup lock poisoned").remove(key);
        if let Some(inflight) = entry {
            for waiter in &inflight.waiters {
                self.resolve_waiter(waiter, res);
            }
        }
    }

    /// Tells every waiter's connection that its job entered execution,
    /// so the conn state machine can report `Executing`.
    fn notify_started(&self, key: &str) {
        let dedup = self.dedup.lock().expect("dedup lock poisoned");
        if let Some(inflight) = dedup.get(key) {
            for waiter in &inflight.waiters {
                self.link(waiter.reactor).send(ReactorMsg::Started {
                    token: waiter.token,
                });
            }
        }
    }

    /// Resolves every waiter that has been pending longer than
    /// `reply_timeout` with a typed `Stalled` — the backstop for a
    /// wedged dispatcher. The dedup entry itself stays: the ticket may
    /// still complete for waiters that arrive later.
    pub(crate) fn sweep_stalled(&self, now: Instant) {
        let timeout = self.cfg.reply_timeout;
        let mut stalled = Vec::new();
        {
            let mut dedup = self.dedup.lock().expect("dedup lock poisoned");
            for inflight in dedup.values_mut() {
                let mut i = 0;
                while i < inflight.waiters.len() {
                    if now.duration_since(inflight.waiters[i].admitted_at) >= timeout {
                        stalled.push(inflight.waiters.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
            }
        }
        if stalled.is_empty() {
            return;
        }
        let res = Resolution::Failed(JobError::Stalled(
            "reply channel timed out — dispatcher wedged?".into(),
        ));
        for waiter in &stalled {
            self.resolve_waiter(waiter, &res);
        }
    }

    /// The earliest instant [`sweep_stalled`](Shared::sweep_stalled)
    /// could have work, for sizing reactor 0's poll timeout.
    pub(crate) fn next_waiter_deadline(&self) -> Option<Instant> {
        let timeout = self.cfg.reply_timeout;
        let dedup = self.dedup.lock().expect("dedup lock poisoned");
        dedup
            .values()
            .flat_map(|inflight| &inflight.waiters)
            .map(|w| w.admitted_at + timeout)
            .min()
    }

    /// Registers a `shutdown` requester and starts the drain. Acks go
    /// out when the dispatcher reports drained — or immediately, if it
    /// already has.
    fn register_shutdown(&self, waiter: Waiter) {
        self.shutdown_waiters
            .lock()
            .expect("shutdown waiters poisoned")
            .push(waiter);
        self.begin_drain();
        if *self
            .lifecycle
            .drained
            .lock()
            .expect("lifecycle lock poisoned")
        {
            self.flush_shutdown_acks();
        }
    }

    /// Answers every pending `shutdown` requester and closes their
    /// connections after the ack flushes.
    fn flush_shutdown_acks(&self) {
        let waiters = std::mem::take(
            &mut *self
                .shutdown_waiters
                .lock()
                .expect("shutdown waiters poisoned"),
        );
        for waiter in waiters {
            let bytes = match waiter.ctx {
                ReplyCtx::Json { .. } => {
                    b"{\"status\":\"ok\",\"op\":\"shutdown\",\"drained\":true}\n".to_vec()
                }
                ReplyCtx::Binary { corr, .. } => Response::ShutdownAck {
                    corr,
                    drained: true,
                }
                .encode(),
            };
            self.route_reply(waiter.reactor, waiter.token, bytes, true);
        }
    }

    fn mark_drained(&self) {
        *self
            .lifecycle
            .drained
            .lock()
            .expect("lifecycle lock poisoned") = true;
        self.lifecycle.done.notify_all();
    }

    fn wait_drained(&self) {
        let mut drained = self
            .lifecycle
            .drained
            .lock()
            .expect("lifecycle lock poisoned");
        while !*drained {
            drained = self
                .lifecycle
                .done
                .wait(drained)
                .expect("lifecycle lock poisoned");
        }
    }

    /// Starts the graceful drain: reject new work, let the dispatcher
    /// finish the backlog.
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue.close();
    }
}

/// A running server and the handles to stop it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
    reactors: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The server's metrics and request-path spans.
    #[must_use]
    pub fn obs(&self) -> &SharedObs {
        &self.shared.obs
    }

    /// Gracefully drains and stops the server: queued jobs finish,
    /// waiters get replies, then the reactors flush and exit.
    pub fn shutdown(mut self) {
        self.shared.begin_drain();
        self.shared.wait_drained();
        self.join_threads();
    }

    /// Blocks until the server stops on its own — i.e. until a client
    /// sends the `shutdown` op and its drain completes. This is the
    /// server binary's main loop.
    pub fn join(mut self) {
        self.join_threads();
    }

    /// Hard-stops the server: the in-flight sweep cancels at the next
    /// point boundary and queued jobs answer `cancelled`.
    pub fn kill(mut self) {
        self.shared.kill.cancel();
        self.shared.begin_drain();
        self.shared.wait_drained();
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(t) = self.dispatcher.take() {
            let _ = t.join();
        }
        for t in self.reactors.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.dispatcher.is_some() || !self.reactors.is_empty() {
            self.shared.kill.cancel();
            self.shared.begin_drain();
            self.shared.wait_drained();
            self.join_threads();
        }
    }
}

/// Binds, spawns the dispatcher and the reactor fleet, and returns.
///
/// # Errors
///
/// Returns the underlying I/O error if the bind, the wakeup pipes, or
/// the cache directory fails.
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let cache = match &cfg.cache_dir {
        Some(dir) => Some(ResultCache::open(dir.clone())?),
        None => None,
    };
    let reactors_n = cfg.reactor_threads.max(1);
    let mut links = Vec::with_capacity(reactors_n);
    let mut wake_rxs = Vec::with_capacity(reactors_n);
    for _ in 0..reactors_n {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        links.push(ReactorLink::new(tx));
        wake_rxs.push(rx);
    }
    let shared = Arc::new(Shared {
        queue: JobQueue::new(cfg.queue_capacity),
        obs: SharedObs::new(&METRICS),
        dedup: Mutex::new(HashMap::new()),
        shutdown_waiters: Mutex::new(Vec::new()),
        draining: AtomicBool::new(false),
        kill: CancelToken::new(),
        cache,
        seq: AtomicU64::new(0),
        next_token: AtomicU64::new(0),
        next_reactor: AtomicUsize::new(0),
        conns_open: AtomicU64::new(0),
        links: OnceLock::new(),
        lifecycle: Lifecycle {
            drained: Mutex::new(false),
            done: Condvar::new(),
        },
        addr,
        cfg,
    });
    let Ok(()) = shared.links.set(links) else {
        unreachable!("links set exactly once at startup")
    };

    let dispatcher = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-dispatch".into())
            .spawn(move || dispatch_loop(&shared))?
    };
    let mut reactors = Vec::with_capacity(reactors_n);
    let mut listener = Some(listener);
    for (id, wake_rx) in wake_rxs.into_iter().enumerate() {
        let shared = Arc::clone(&shared);
        // Reactor 0 owns the listener and deals accepts to the rest.
        let listener = listener.take();
        reactors.push(
            std::thread::Builder::new()
                .name(format!("serve-reactor-{id}"))
                .spawn(move || Reactor::new(shared, id, listener, wake_rx).run())?,
        );
    }

    Ok(ServerHandle {
        shared,
        dispatcher: Some(dispatcher),
        reactors,
    })
}

/// How admission answered one `run`.
enum Admission {
    /// Answer now (spec error, draining, cache hit).
    Immediate(Resolution),
    /// A waiter is registered; the reply arrives via the reactor
    /// inbox. The caller must mark the connection `admitted`.
    Pending,
}

/// Routes one parsed request from a reactor thread. Immediate answers
/// are buffered straight onto the connection; queued work registers a
/// waiter and returns, leaving the connection free to pipeline.
pub(crate) fn handle_wire_request(
    shared: &Arc<Shared>,
    reactor_id: usize,
    conn: &mut Conn,
    request: WireRequest,
) {
    let now = Instant::now();
    match request {
        WireRequest::Http(path) => {
            // A plain HTTP scraper is welcome: one reply per
            // connection, then close. Scrapes are not requests in the
            // serving sense and stay out of `serve.requests.received`.
            conn.respond(&http_reply(&shared.obs, &path), now);
            conn.mark_close_after_flush();
        }
        WireRequest::Line(line) => handle_line(shared, reactor_id, conn, &line, now),
        WireRequest::Binary(req) => handle_binary(shared, reactor_id, conn, req, now),
    }
}

fn handle_line(shared: &Arc<Shared>, reactor_id: usize, conn: &mut Conn, line: &str, now: Instant) {
    let received_us = shared.obs.now_us();
    shared.obs.inc("serve.requests.received");
    let parsed = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            shared.obs.inc("serve.responses.invalid");
            let reply = render_error(None, &JobError::Invalid(format!("bad json: {e}")));
            conn.respond(reply.as_bytes(), now);
            return;
        }
    };
    let id = parsed.get("id").and_then(Json::as_str).map(str::to_owned);
    let op = parsed.get("op").and_then(Json::as_str).unwrap_or("run");
    match op {
        "ping" => {
            let reply = format!(
                "{{\"status\":\"ok\",\"op\":\"ping\",\"draining\":{}}}\n",
                shared.draining.load(Ordering::SeqCst)
            );
            conn.respond(reply.as_bytes(), now);
        }
        "metrics" => {
            let reply = format!(
                "{{\"status\":\"ok\",\"op\":\"metrics\",\"prometheus\":\"{}\"}}\n",
                escape_json(&shared.obs.prometheus())
            );
            conn.respond(reply.as_bytes(), now);
        }
        "trace" => {
            let reply = format!(
                "{{\"status\":\"ok\",\"op\":\"trace\",\"chrome_trace\":{}}}\n",
                // The exporter pretty-prints one event per line; the
                // line protocol needs one line total. Newlines outside
                // strings are insignificant JSON whitespace
                // (escape_json encodes the ones inside), so flattening
                // is loss-free.
                shared.obs.chrome_trace().replace('\n', " ")
            );
            conn.respond(reply.as_bytes(), now);
        }
        "shutdown" => {
            conn.admitted();
            shared.register_shutdown(Waiter {
                reactor: reactor_id,
                token: conn.token(),
                ctx: ReplyCtx::Json { id, received_us },
                admitted_at: now,
            });
        }
        "run" => {
            let spec = match parsed.get("job") {
                Some(job) => JobSpec::from_json(job),
                None => Err(JobError::Invalid("job object missing".into())),
            };
            let priority = parsed
                .get("priority")
                .and_then(Json::as_u64)
                .map_or(1, |p| u8::try_from(p.min(2)).expect("clamped"));
            let deadline_ms = parsed.get("deadline_ms").and_then(Json::as_u64);
            let waiter = Waiter {
                reactor: reactor_id,
                token: conn.token(),
                ctx: ReplyCtx::Json {
                    id: id.clone(),
                    received_us,
                },
                admitted_at: now,
            };
            match admit_run(shared, spec, priority, deadline_ms, waiter) {
                Admission::Immediate(res) => {
                    let reply = render_resolution_json(id.as_deref(), &res, shared, received_us);
                    conn.respond(reply.as_bytes(), now);
                }
                Admission::Pending => conn.admitted(),
            }
        }
        other => {
            shared.obs.inc("serve.responses.invalid");
            let reply = render_error(
                id.as_deref(),
                &JobError::Invalid(format!("unknown op {other:?}")),
            );
            conn.respond(reply.as_bytes(), now);
        }
    }
}

fn handle_binary(
    shared: &Arc<Shared>,
    reactor_id: usize,
    conn: &mut Conn,
    req: Request,
    now: Instant,
) {
    let received_us = shared.obs.now_us();
    shared.obs.inc("serve.requests.received");
    match req {
        Request::Ping { corr } => {
            let frame = Response::Pong {
                corr,
                draining: shared.draining.load(Ordering::SeqCst),
            }
            .encode();
            conn.respond(&frame, now);
        }
        Request::Metrics { corr } => {
            let frame = Response::MetricsText {
                corr,
                prometheus: shared.obs.prometheus(),
            }
            .encode();
            conn.respond(&frame, now);
        }
        Request::Shutdown { corr } => {
            conn.admitted();
            shared.register_shutdown(Waiter {
                reactor: reactor_id,
                token: conn.token(),
                ctx: ReplyCtx::Binary { corr, received_us },
                admitted_at: now,
            });
        }
        Request::Run {
            corr,
            priority,
            deadline_ms,
            spec,
        } => {
            // The codec restored the shape; the bounds still need the
            // same validation the JSON path gets from `from_json`.
            let spec = spec.validate().map(|()| spec);
            let waiter = Waiter {
                reactor: reactor_id,
                token: conn.token(),
                ctx: ReplyCtx::Binary { corr, received_us },
                admitted_at: now,
            };
            match admit_run(shared, spec, priority.min(2), deadline_ms, waiter) {
                Admission::Immediate(res) => {
                    let frame = render_resolution_binary(corr, &res, shared, received_us);
                    conn.respond(&frame, now);
                }
                Admission::Pending => conn.admitted(),
            }
        }
    }
}

/// Admission control for one `run`, shared by both protocols: spec
/// errors, the draining gate, the memoization cache, the dedup map,
/// and finally the queue.
fn admit_run(
    shared: &Arc<Shared>,
    spec: Result<JobSpec, JobError>,
    priority: u8,
    deadline_ms: Option<u64>,
    waiter: Waiter,
) -> Admission {
    let spec = match spec {
        Ok(s) => s,
        Err(e) => return Admission::Immediate(Resolution::Failed(e)),
    };
    if shared.draining.load(Ordering::SeqCst) {
        return Admission::Immediate(Resolution::Failed(JobError::Rejected("draining".into())));
    }
    let key = spec.key();

    // Memoized? Answer from the memo, else from disk, without
    // touching the queue. Either way the envelope was verified before
    // it became a hit.
    if let Some((outcome, envelope)) = shared
        .cache
        .as_ref()
        .and_then(|cache| cache.lookup(&key, &shared.obs))
    {
        shared.obs.inc("serve.cache.hits");
        return Admission::Immediate(Resolution::Done {
            outcome,
            envelope,
            cached: true,
        });
    }

    let mut owner = false;
    {
        let mut dedup = shared.dedup.lock().expect("dedup lock poisoned");
        match dedup.get_mut(&key) {
            Some(inflight) => {
                inflight.waiters.push(waiter);
                shared.obs.inc("serve.dedup.coalesced");
            }
            None => {
                dedup.insert(
                    key.clone(),
                    InFlight {
                        waiters: vec![waiter],
                    },
                );
                owner = true;
            }
        }
    }
    if owner {
        let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
        let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let ticket = JobTicket {
            seq,
            key: key.clone(),
            spec,
            priority,
            enqueued_at: Instant::now(),
            deadline,
        };
        if let Err(err) = shared.queue.push(ticket) {
            let reason = match err {
                PushError::Full => "queue full",
                PushError::Closed => "draining",
            };
            shared.obs.inc("serve.queue.rejected");
            // Resolves the waiter registered just above, through the
            // reactor inbox like any other completion.
            shared.complete(&key, &Resolution::Failed(JobError::Rejected(reason.into())));
        } else {
            shared
                .obs
                .set_gauge("serve.queue.depth", shared.queue.depth() as f64);
        }
    }
    Admission::Pending
}

fn dispatch_loop(shared: &Arc<Shared>) {
    while let Some(batch) = shared.queue.pop_batch(shared.cfg.batch_max) {
        shared
            .obs
            .set_gauge("serve.queue.depth", shared.queue.depth() as f64);
        let now = Instant::now();
        let now_us = shared.obs.now_us();
        let mut live: Vec<JobTicket> = Vec::with_capacity(batch.len());
        for ticket in batch {
            let waited_us =
                u64::try_from(ticket.enqueued_at.elapsed().as_micros()).unwrap_or(u64::MAX);
            shared.obs.record("serve.queue.wait_us", waited_us);
            shared.obs.span(
                ticket.seq,
                "queue",
                now_us.saturating_sub(waited_us),
                now_us,
            );
            if ticket.deadline.is_some_and(|d| d <= now) {
                shared.obs.inc("serve.jobs.expired");
                shared.complete(&ticket.key, &Resolution::Failed(JobError::Expired));
            } else {
                live.push(ticket);
            }
        }
        if live.is_empty() {
            continue;
        }
        for ticket in &live {
            shared.notify_started(&ticket.key);
        }
        let max_net_cycles = shared.cfg.max_net_cycles;
        // Completions stream out one by one from worker threads — a
        // fast job's waiters get their bytes while a slow batchmate is
        // still executing. `finished` tracks which tickets the
        // streaming callback already resolved so a cancelled sweep
        // completes exactly the remainder: every ticket answers
        // exactly once.
        let finished: Vec<AtomicBool> = live.iter().map(|_| AtomicBool::new(false)).collect();
        let outcome = run_sweep_streaming_on(
            shared.cfg.workers,
            live.clone(),
            |ticket| {
                // The deadline may have passed while earlier batch
                // members ran; re-check at the last possible moment.
                if ticket.deadline.is_some_and(|d| d <= Instant::now()) {
                    return (Err(JobError::Expired), 0);
                }
                let begin = Instant::now();
                let result = ticket.spec.execute(max_net_cycles);
                let service_us = u64::try_from(begin.elapsed().as_micros()).unwrap_or(u64::MAX);
                (result, service_us)
            },
            &shared.kill,
            |idx, (result, service_us)| {
                finished[idx].store(true, Ordering::SeqCst);
                finish_ticket(shared, &live[idx], result, *service_us);
            },
        );
        if outcome.is_err() {
            // Cancelled mid-batch: points already streamed out above
            // stay answered; everything else answers `cancelled`.
            for (idx, ticket) in live.iter().enumerate() {
                if !finished[idx].load(Ordering::SeqCst) {
                    shared.complete(&ticket.key, &Resolution::Failed(JobError::Cancelled));
                }
            }
        }
    }
    // Queue closed and empty: resolve any stragglers (admission lost a
    // race with close) so no waiter blocks forever, then report
    // drained, ack the shutdown requesters, and release the reactors.
    let keys: Vec<String> = shared
        .dedup
        .lock()
        .expect("dedup lock poisoned")
        .keys()
        .cloned()
        .collect();
    for key in keys {
        shared.complete(&key, &Resolution::Failed(JobError::Cancelled));
    }
    shared.mark_drained();
    shared.flush_shutdown_acks();
    for link in shared.links() {
        link.send(ReactorMsg::DrainComplete);
    }
}

/// Books one completed (or failed) execution: counters, trace span,
/// cache write, waiter resolution. Runs on a worker thread, streamed
/// per completion.
fn finish_ticket(
    shared: &Arc<Shared>,
    ticket: &JobTicket,
    result: &Result<JobOutcome, JobError>,
    service_us: u64,
) {
    let end_us = shared.obs.now_us();
    let res = match result {
        Ok(outcome) => {
            shared.obs.inc("serve.jobs.executed");
            shared.obs.record("serve.job.service_us", service_us);
            shared.obs.span(
                ticket.seq,
                "execute",
                end_us.saturating_sub(service_us),
                end_us,
            );
            // One seal: the same envelope bytes become the cache entry,
            // the memo entry and every binary response's payload. The
            // memo takes it before `complete`, so a repeat arriving
            // after this reply is answered from memory.
            let envelope = Arc::new(outcome.to_snapshot_bytes());
            if let Some(cache) = &shared.cache {
                if cache.store(&ticket.key, *outcome, &envelope) {
                    shared.obs.inc("serve.cache.stores");
                }
            }
            Resolution::Done {
                outcome: *outcome,
                envelope,
                cached: false,
            }
        }
        Err(JobError::Expired) => {
            shared.obs.inc("serve.jobs.expired");
            Resolution::Failed(JobError::Expired)
        }
        Err(e) => Resolution::Failed(e.clone()),
    };
    shared.complete(&ticket.key, &res);
}

fn num(f: f64) -> String {
    if f.is_finite() {
        format!("{f}")
    } else {
        "0".to_owned()
    }
}

/// The `serve.responses.*` counter of a wire status, one of the names
/// in [`METRICS`].
fn response_counter(status: &str) -> &'static str {
    match status {
        "ok" => "serve.responses.ok",
        "degraded" => "serve.responses.degraded",
        "rejected" => "serve.responses.rejected",
        "expired" => "serve.responses.expired",
        "cancelled" => "serve.responses.cancelled",
        "invalid" => "serve.responses.invalid",
        _ => "serve.responses.error",
    }
}

fn render_resolution_json(
    id: Option<&str>,
    res: &Resolution,
    shared: &Shared,
    received_us: u64,
) -> String {
    let latency_us = shared.obs.now_us().saturating_sub(received_us);
    shared.obs.record("serve.request.latency_us", latency_us);
    match res {
        Resolution::Done {
            outcome, cached, ..
        } => {
            let status = if outcome.degraded { "degraded" } else { "ok" };
            shared.obs.inc(response_counter(status));
            let id_field = id.map_or(String::new(), |i| format!("\"id\":\"{}\",", escape_json(i)));
            format!(
                "{{{id_field}\"status\":\"{status}\",\"cached\":{cached},\
                 \"latency\":{},\"interarrival\":{},\"bandwidth\":{},\
                 \"net_cycles\":{},\"words_dropped\":{},\"retries\":{},\"failed\":{}}}\n",
                num(outcome.latency),
                num(outcome.interarrival),
                num(outcome.bandwidth),
                outcome.net_cycles,
                outcome.words_dropped,
                outcome.retries,
                outcome.failed,
            )
        }
        Resolution::Failed(err) => {
            shared.obs.inc(response_counter(err.status()));
            render_error(id, err)
        }
    }
}

fn render_resolution_binary(
    corr: u64,
    res: &Resolution,
    shared: &Shared,
    received_us: u64,
) -> Vec<u8> {
    let latency_us = shared.obs.now_us().saturating_sub(received_us);
    shared.obs.record("serve.request.latency_us", latency_us);
    match res {
        Resolution::Done {
            outcome,
            envelope,
            cached,
        } => {
            let status = if outcome.degraded { "degraded" } else { "ok" };
            shared.obs.inc(response_counter(status));
            Response::encode_outcome(corr, *cached, envelope)
        }
        Resolution::Failed(err) => {
            shared.obs.inc(response_counter(err.status()));
            Response::Error {
                corr,
                status: ErrStatus::from_job_error(err),
                reason: err.reason(),
            }
            .encode()
        }
    }
}

fn render_error(id: Option<&str>, err: &JobError) -> String {
    let id_field = id.map_or(String::new(), |i| format!("\"id\":\"{}\",", escape_json(i)));
    format!(
        "{{{id_field}\"status\":\"{}\",\"reason\":\"{}\"}}\n",
        err.status(),
        escape_json(&err.reason())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_response_status_counts_under_its_preinterned_name() {
        let errors = [
            JobError::Invalid(String::new()),
            JobError::Rejected(String::new()),
            JobError::Expired,
            JobError::Cancelled,
            JobError::Stalled(String::new()),
        ];
        let statuses = ["ok", "degraded"]
            .into_iter()
            .chain(errors.iter().map(JobError::status));
        for status in statuses {
            let name = response_counter(status);
            assert_eq!(name, format!("serve.responses.{status}"));
            assert!(METRICS.counters.contains(&name), "{name} not in METRICS");
        }
    }
}
