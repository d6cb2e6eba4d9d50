//! The coordinator: spawn, supervise, dispatch, merge.
//!
//! [`run_cluster_sweep`] is the cluster twin of
//! [`cedar_exec::run_sweep_cached`]: same inputs, same
//! content-addressed keys, same bit-identical results — but the points
//! execute in N re-exec'd worker *processes* that are expected to
//! crash, hang, or write garbage, and the coordinator's job is to make
//! none of that observable in the output.
//!
//! Supervision is a single-threaded event loop over a fixed tick.
//! Reader threads (one per live worker connection) translate the wire
//! into events; everything else — heartbeats, per-worker watchdogs,
//! restart backoff, job deadlines, consistent-hash dispatch, journal
//! commits — happens on the supervision thread, so the exactly-once
//! ledger needs no locks and every decision is sequenced.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cedar_exec::sweep_keys;
use cedar_faults::{RetryPolicy, WorkerFaultPlan};
use cedar_obs::SharedObs;
use cedar_sim::watchdog::Watchdog;
use cedar_snap::{fnv1a, read_frame, unseal, write_frame, CacheDir, FrameError, Snapshot};

use crate::journal::{JobJournal, JobRecord, JobState};
use crate::proto::{decode_msg, encode_msg, FromWorker, ToWorker};
use crate::registry::{CHAOS_ENV, ID_ENV, INCARNATION_ENV, WORKER_ENV};
use crate::ring::HashRing;

/// Fleet shape, timing and robustness knobs.
#[derive(Debug)]
pub struct ClusterConfig {
    /// Worker slots to spawn.
    pub workers: u32,
    /// Worker executable; `None` re-execs the current binary (whose
    /// `main` must call [`maybe_worker`](crate::maybe_worker)).
    pub worker_exe: Option<PathBuf>,
    /// Supervision tick length — the unit of every `*_ticks` knob.
    pub tick: Duration,
    /// Ping every worker each time this many ticks elapse.
    pub heartbeat_every_ticks: u64,
    /// Per-worker no-progress budget before it is reaped as hung.
    /// Must exceed the heartbeat interval plus the longest job, or
    /// healthy-but-busy workers get reaped.
    pub watchdog_budget_ticks: u64,
    /// Re-issue a job owned longer than this without a commit.
    pub job_deadline_ticks: u64,
    /// Jobs a single worker may own at once.
    pub max_inflight: usize,
    /// Restart backoff for dead workers; `max_retries` exhausted means
    /// the slot is lost for good.
    pub restart: RetryPolicy,
    /// Seed for restart jitter and heartbeat nonces.
    pub seed: u64,
    /// Optional deterministic chaos plan (first incarnations only).
    pub chaos: Option<WorkerFaultPlan>,
    /// Optional shared content-addressed cache; hits skip dispatch and
    /// fresh commits are stored back, interoperating byte-for-byte
    /// with [`cedar_exec::run_sweep_cached`] on the same namespace.
    pub cache: Option<CacheDir>,
    /// Namespace for sweep keys (must match any cached sweep sharing
    /// the cache).
    pub cache_namespace: String,
    /// Hard wall on supervision ticks; exceeded means
    /// [`ClusterError::Timeout`].
    pub max_ticks: u64,
}

impl ClusterConfig {
    /// A conservative default configuration for `workers` slots.
    #[must_use]
    pub fn new(workers: u32) -> Self {
        ClusterConfig {
            workers,
            worker_exe: None,
            tick: Duration::from_millis(10),
            heartbeat_every_ticks: 5,
            watchdog_budget_ticks: 50,
            job_deadline_ticks: 500,
            max_inflight: 2,
            restart: RetryPolicy {
                base_delay_cycles: 5,
                max_retries: 3,
                max_delay_cycles: 200,
            },
            seed: 0xCEDA_C1A5,
            chaos: None,
            cache: None,
            cache_namespace: "cedar.cluster/0".to_owned(),
            max_ticks: 6_000,
        }
    }
}

/// Why a cluster sweep could not complete.
#[derive(Debug)]
pub enum ClusterError {
    /// A configuration value violated a structural constraint.
    Invalid {
        /// Which knob was rejected.
        field: &'static str,
        /// What constraint it violated.
        message: String,
    },
    /// Listener, spawn or other coordinator-side I/O failure.
    Io(std::io::Error),
    /// Every worker slot exhausted its restart budget with jobs still
    /// pending: there is no fleet left to run them.
    FleetLost {
        /// Jobs still uncommitted at the time of loss.
        pending: usize,
    },
    /// A worker reported a deterministic job failure (panicking family
    /// function, undecodable input, unknown family). Retrying a
    /// deterministic failure elsewhere cannot help, so it is fatal.
    JobFailed {
        /// The failing job's input index.
        job: usize,
        /// The worker's description of the failure.
        reason: String,
    },
    /// The supervision loop exceeded [`ClusterConfig::max_ticks`].
    Timeout {
        /// The tick budget that was exhausted.
        ticks: u64,
        /// Jobs still uncommitted.
        pending: usize,
    },
    /// A committed result failed to decode as the sweep's output type
    /// — a family/type mismatch between coordinator and worker.
    BadResult {
        /// The job whose result bytes did not decode.
        job: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Invalid { field, message } => {
                write!(f, "invalid cluster config {field}: {message}")
            }
            ClusterError::Io(e) => write!(f, "cluster I/O failure: {e}"),
            ClusterError::FleetLost { pending } => {
                write!(f, "all workers lost with {pending} jobs pending")
            }
            ClusterError::JobFailed { job, reason } => {
                write!(f, "job {job} failed deterministically: {reason}")
            }
            ClusterError::Timeout { ticks, pending } => {
                write!(
                    f,
                    "sweep incomplete after {ticks} ticks ({pending} jobs pending)"
                )
            }
            ClusterError::BadResult { job } => {
                write!(
                    f,
                    "job {job} committed bytes that do not decode as the output type"
                )
            }
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Supervision accounting for one completed (or attempted) sweep.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Worker slots in the fleet.
    pub workers: u32,
    /// Total sweep points.
    pub jobs: usize,
    /// Points committed straight from the cache, never dispatched.
    pub cache_hits: usize,
    /// Job frames sent to workers (re-issues included).
    pub dispatched: u64,
    /// Results accepted by the journal from workers.
    pub committed: u64,
    /// Jobs returned to the pool by worker death or deadline expiry.
    pub reissues: u64,
    /// Results refused by the journal (dead incarnation, lost
    /// ownership, or already committed).
    pub stale_results: u64,
    /// Spontaneous worker exits observed (crashes and chaos kills).
    pub worker_exits: u32,
    /// Workers reaped by the heartbeat watchdog.
    pub hangs_reaped: u32,
    /// Corrupt frames received (the sending worker is killed).
    pub garbage_frames: u32,
    /// Successful worker restarts.
    pub restarts: u32,
    /// Slots that exhausted their restart budget.
    pub workers_lost: u32,
    /// Per-job issue/commit history — the exactly-once witness.
    pub journal: Vec<JobRecord>,
}

/// A completed cluster sweep: results in input order plus accounting.
#[derive(Debug)]
pub struct ClusterReport<T> {
    /// One result per input, in input order — bit-identical to a
    /// serial [`run_sweep`](cedar_exec::run_sweep) of the same family
    /// function.
    pub results: Vec<T>,
    /// Supervision accounting.
    pub stats: ClusterStats,
}

/// Events flowing from reader threads to the supervision loop.
enum Event {
    Hello {
        slot: u32,
        incarnation: u32,
        stream: TcpStream,
    },
    Frame {
        slot: u32,
        incarnation: u32,
        msg: FromWorker,
    },
    Garbage {
        slot: u32,
        incarnation: u32,
    },
    Gone {
        slot: u32,
        incarnation: u32,
    },
}

/// Coordinator-side state of one worker slot.
struct Slot {
    incarnation: u32,
    child: Option<Child>,
    conn: Option<TcpStream>,
    watchdog: Watchdog,
    alive: bool,
    lost: bool,
    restart_attempts: u32,
    restart_at: Option<u64>,
    frames_seen: u64,
    inflight: usize,
    nonces: VecDeque<u64>,
}

impl Slot {
    fn new(w: u32, budget: u64) -> Self {
        Slot {
            incarnation: 0,
            child: None,
            conn: None,
            watchdog: Watchdog::new(budget, &format!("cluster worker {w}")),
            alive: false,
            lost: false,
            restart_attempts: 0,
            restart_at: None,
            frames_seen: 0,
            inflight: 0,
            nonces: VecDeque::new(),
        }
    }
}

/// Adds `n` to the counter `name` when the caller attached metrics.
fn count(obs: Option<&SharedObs>, name: &str, n: u64) {
    if let Some(obs) = obs {
        obs.add(name, n);
    }
}

/// Runs `inputs` through the worker fleet and returns results in input
/// order, bit-identical to a serial sweep of the same family function.
///
/// `family` names a function registered in the worker binary's
/// [`JobRegistry`](crate::JobRegistry); `obs`, when provided, receives
/// live supervision metrics.
///
/// # Errors
///
/// See [`ClusterError`]. Worker crashes, hangs and corrupt frames are
/// *not* errors — they are recovered by re-issue and restart; only an
/// unrunnable configuration, a deterministic job failure, total fleet
/// loss or timeout surface here.
pub fn run_cluster_sweep<I, T>(
    config: &ClusterConfig,
    family: &str,
    inputs: &[I],
    obs: Option<&SharedObs>,
) -> Result<ClusterReport<T>, ClusterError>
where
    I: Snapshot,
    T: Snapshot,
{
    validate(config)?;
    let n = inputs.len();
    let keys = sweep_keys(&config.cache_namespace, inputs);
    let input_bytes: Vec<Vec<u8>> = inputs.iter().map(Snapshot::to_snapshot_bytes).collect();

    let mut journal = JobJournal::new(n);
    let mut result_bytes: Vec<Option<Vec<u8>>> = vec![None; n];
    let mut cache_hits = 0usize;
    if let Some(cache) = &config.cache {
        for i in 0..n {
            if let Some(v) = cache.load::<T>(&keys[i]) {
                journal.commit_from_cache(i);
                result_bytes[i] = Some(v.to_snapshot_bytes());
                cache_hits += 1;
            }
        }
    }
    count(obs, "cluster.jobs.cache_hits", cache_hits as u64);

    let mut stats = ClusterStats {
        workers: config.workers,
        jobs: n,
        cache_hits,
        ..ClusterStats::default()
    };

    if !journal.all_committed() {
        let supervisor = Supervisor {
            config,
            family,
            keys: &keys,
            input_bytes: &input_bytes,
            ring: HashRing::new(config.workers),
            journal: &mut journal,
            result_bytes: &mut result_bytes,
            stats: &mut stats,
            obs,
            slots: (0..config.workers)
                .map(|w| Slot::new(w, config.watchdog_budget_ticks))
                .collect(),
            nonce_counter: 0,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        supervisor.run()?;
    }

    stats.journal = journal.records();
    let mut results = Vec::with_capacity(n);
    for (job, bytes) in result_bytes.into_iter().enumerate() {
        let bytes = bytes.ok_or(ClusterError::BadResult { job })?;
        results.push(T::from_snapshot_bytes(&bytes).map_err(|_| ClusterError::BadResult { job })?);
    }
    Ok(ClusterReport { results, stats })
}

fn validate(config: &ClusterConfig) -> Result<(), ClusterError> {
    let reject = |field, message: &str| {
        Err(ClusterError::Invalid {
            field,
            message: message.to_owned(),
        })
    };
    if config.workers == 0 {
        return reject("workers", "fleet must have at least one worker");
    }
    if config.tick.is_zero() {
        return reject("tick", "supervision tick must be nonzero");
    }
    if config.watchdog_budget_ticks == 0 {
        return reject("watchdog_budget_ticks", "watchdog budget must be nonzero");
    }
    if config.heartbeat_every_ticks == 0 {
        return reject(
            "heartbeat_every_ticks",
            "heartbeat interval must be nonzero",
        );
    }
    if config.heartbeat_every_ticks >= config.watchdog_budget_ticks {
        return reject(
            "heartbeat_every_ticks",
            "heartbeat interval must be shorter than the watchdog budget",
        );
    }
    if config.max_inflight == 0 {
        return reject("max_inflight", "workers must be allowed at least one job");
    }
    if let Some(plan) = &config.chaos {
        if plan.faults().iter().any(|f| f.worker >= config.workers) {
            return reject("chaos", "fault plan names a worker outside the fleet");
        }
    }
    Ok(())
}

struct Supervisor<'a> {
    config: &'a ClusterConfig,
    family: &'a str,
    keys: &'a [String],
    input_bytes: &'a [Vec<u8>],
    ring: HashRing,
    journal: &'a mut JobJournal,
    result_bytes: &'a mut Vec<Option<Vec<u8>>>,
    stats: &'a mut ClusterStats,
    obs: Option<&'a SharedObs>,
    slots: Vec<Slot>,
    nonce_counter: u64,
    /// The listener address workers connect back to; set in
    /// [`Supervisor::run`] before any worker is spawned.
    addr: SocketAddr,
}

impl Supervisor<'_> {
    fn run(mut self) -> Result<(), ClusterError> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(ClusterError::Io)?;
        let addr = listener.local_addr().map_err(ClusterError::Io)?;
        self.addr = addr;
        let (tx, rx) = std::sync::mpsc::channel::<Event>();
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_handle = {
            let tx = tx.clone();
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || accept_loop(&listener, &tx, &shutdown))
        };

        for w in 0..self.config.workers {
            match self.spawn_worker(addr, w, 0) {
                Ok(child) => self.slots[w as usize].child = Some(child),
                Err(e) => {
                    self.shutdown_fleet();
                    shutdown.store(true, Ordering::SeqCst);
                    let _ = TcpStream::connect(addr);
                    let _ = accept_handle.join();
                    return Err(ClusterError::Io(e));
                }
            }
        }

        let outcome = self.supervise(&rx);

        self.shutdown_fleet();
        shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        let _ = accept_handle.join();
        drop(tx);
        outcome
    }

    fn supervise(&mut self, rx: &Receiver<Event>) -> Result<(), ClusterError> {
        let start = Instant::now();
        let tick_us = self.config.tick.as_micros().max(1);
        let mut last_heartbeat = 0u64;
        loop {
            let now_tick = (start.elapsed().as_micros() / tick_us) as u64;
            match rx.recv_timeout(self.config.tick) {
                Ok(ev) => {
                    self.handle(ev, now_tick)?;
                    while let Ok(ev) = rx.try_recv() {
                        self.handle(ev, now_tick)?;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("supervisor holds a live sender")
                }
            }
            let now_tick = (start.elapsed().as_micros() / tick_us) as u64;

            self.process_restarts(now_tick);
            self.process_watchdogs(now_tick);
            self.process_deadlines(now_tick);
            if now_tick.saturating_sub(last_heartbeat) >= self.config.heartbeat_every_ticks {
                last_heartbeat = now_tick;
                self.send_heartbeats(now_tick);
            }
            self.dispatch(now_tick);

            if self.journal.all_committed() {
                return Ok(());
            }
            if self.slots.iter().all(|s| s.lost) {
                return Err(ClusterError::FleetLost {
                    pending: self.journal.pending(),
                });
            }
            if now_tick > self.config.max_ticks {
                return Err(ClusterError::Timeout {
                    ticks: self.config.max_ticks,
                    pending: self.journal.pending(),
                });
            }
        }
    }

    fn handle(&mut self, ev: Event, now_tick: u64) -> Result<(), ClusterError> {
        match ev {
            Event::Hello {
                slot,
                incarnation,
                stream,
            } => {
                let Some(s) = self.slots.get_mut(slot as usize) else {
                    return Ok(());
                };
                // Accept only the incarnation we actually spawned and
                // are waiting for; anything else is a zombie and its
                // connection is simply dropped.
                if s.incarnation == incarnation && !s.alive && !s.lost && s.child.is_some() {
                    s.conn = Some(stream);
                    s.alive = true;
                    s.frames_seen += 1;
                    s.watchdog.rearm(now_tick);
                    self.publish_health(slot);
                }
                Ok(())
            }
            Event::Frame {
                slot,
                incarnation,
                msg,
            } => self.handle_frame(slot, incarnation, msg, now_tick),
            Event::Garbage { slot, incarnation } => {
                if self.slot_is_current(slot, incarnation) {
                    self.stats.garbage_frames += 1;
                    count(self.obs, "cluster.worker.garbage_frames", 1);
                    self.fail_slot(slot, now_tick);
                }
                Ok(())
            }
            Event::Gone { slot, incarnation } => {
                if self.slot_is_current(slot, incarnation) {
                    self.stats.worker_exits += 1;
                    count(self.obs, "cluster.worker.exits", 1);
                    self.fail_slot(slot, now_tick);
                }
                Ok(())
            }
        }
    }

    fn slot_is_current(&self, slot: u32, incarnation: u32) -> bool {
        self.slots
            .get(slot as usize)
            .is_some_and(|s| s.alive && s.incarnation == incarnation)
    }

    fn handle_frame(
        &mut self,
        slot: u32,
        incarnation: u32,
        msg: FromWorker,
        now_tick: u64,
    ) -> Result<(), ClusterError> {
        if !self.slot_is_current(slot, incarnation) {
            // A zombie incarnation's frame. A late result is the
            // interesting case: count it as refused.
            if matches!(msg, FromWorker::Done { .. }) {
                self.journal.stale_results += 1;
                count(self.obs, "cluster.results.stale", 1);
            }
            return Ok(());
        }
        self.slots[slot as usize].frames_seen += 1;
        match msg {
            FromWorker::Hello { .. } => {
                // A second hello on a live connection violates the
                // protocol; treat like any other garbage.
                self.stats.garbage_frames += 1;
                self.fail_slot(slot, now_tick);
                Ok(())
            }
            FromWorker::Pong { nonce } => {
                let s = &mut self.slots[slot as usize];
                match s.nonces.iter().position(|&n| n == nonce) {
                    // Answered in order: this pong retires its nonce
                    // and any older outstanding ones.
                    Some(pos) => {
                        s.nonces.drain(..=pos);
                    }
                    None => {
                        self.stats.garbage_frames += 1;
                        self.fail_slot(slot, now_tick);
                    }
                }
                Ok(())
            }
            FromWorker::Done { job, result } => {
                let Ok(job) = usize::try_from(job) else {
                    self.stats.garbage_frames += 1;
                    self.fail_slot(slot, now_tick);
                    return Ok(());
                };
                if job >= self.journal.len() || unseal(&result).is_err() {
                    // A job index we never issued, or result bytes
                    // failing their own checksum: the worker is not
                    // trustworthy.
                    self.stats.garbage_frames += 1;
                    self.fail_slot(slot, now_tick);
                    return Ok(());
                }
                match self.journal.offer_commit(job, slot, incarnation) {
                    Some(first_issue_tick) => {
                        if let Some(cache) = &self.config.cache {
                            let _ = cache.store_bytes(&self.keys[job], &result);
                        }
                        self.result_bytes[job] = Some(result);
                        let s = &mut self.slots[slot as usize];
                        s.inflight = s.inflight.saturating_sub(1);
                        self.stats.committed += 1;
                        if let Some(obs) = self.obs {
                            obs.inc("cluster.jobs.committed");
                            obs.record(
                                "cluster.commit.latency_ticks",
                                now_tick.saturating_sub(first_issue_tick),
                            );
                        }
                    }
                    None => {
                        count(self.obs, "cluster.results.stale", 1);
                    }
                }
                Ok(())
            }
            FromWorker::Fail { job, reason } => Err(ClusterError::JobFailed {
                job: usize::try_from(job).unwrap_or(usize::MAX),
                reason,
            }),
        }
    }

    fn process_restarts(&mut self, now_tick: u64) {
        for w in 0..self.slots.len() {
            let due = {
                let s = &self.slots[w];
                !s.alive && !s.lost && s.restart_at.is_some_and(|at| at <= now_tick)
            };
            if !due {
                continue;
            }
            self.slots[w].incarnation += 1;
            self.slots[w].restart_at = None;
            let incarnation = self.slots[w].incarnation;
            match self.spawn_worker(self.addr, w as u32, incarnation) {
                Ok(child) => {
                    let s = &mut self.slots[w];
                    s.child = Some(child);
                    s.watchdog.rearm(now_tick);
                    self.stats.restarts += 1;
                    count(self.obs, "cluster.worker.restarts", 1);
                    self.publish_health(w as u32);
                }
                Err(_) => {
                    // Spawn failure burns a restart attempt like any
                    // other death.
                    self.fail_slot(w as u32, now_tick);
                }
            }
        }
    }

    fn process_watchdogs(&mut self, now_tick: u64) {
        for w in 0..self.slots.len() {
            let watched = {
                let s = &self.slots[w];
                !s.lost && (s.alive || (s.child.is_some() && s.restart_at.is_none()))
            };
            if !watched {
                continue;
            }
            let frames = self.slots[w].frames_seen;
            if self.slots[w].watchdog.observe(now_tick, frames).is_err() {
                self.stats.hangs_reaped += 1;
                count(self.obs, "cluster.worker.hangs_reaped", 1);
                self.fail_slot(w as u32, now_tick);
            }
        }
    }

    fn process_deadlines(&mut self, now_tick: u64) {
        for job in self
            .journal
            .expired(now_tick, self.config.job_deadline_ticks)
        {
            if let JobState::Owned { worker, .. } = self.journal.state(job) {
                self.journal.release(job);
                let s = &mut self.slots[worker as usize];
                s.inflight = s.inflight.saturating_sub(1);
                self.stats.reissues += 1;
                count(self.obs, "cluster.jobs.reissued", 1);
            }
        }
    }

    fn send_heartbeats(&mut self, now_tick: u64) {
        for w in 0..self.slots.len() {
            if !self.slots[w].alive {
                continue;
            }
            self.nonce_counter += 1;
            let mut seed_bytes = [0u8; 24];
            seed_bytes[..8].copy_from_slice(&self.config.seed.to_le_bytes());
            seed_bytes[8..16].copy_from_slice(&(w as u64).to_le_bytes());
            seed_bytes[16..].copy_from_slice(&self.nonce_counter.to_le_bytes());
            let nonce = fnv1a(&seed_bytes);
            let sent = self.send_to(w, &ToWorker::Ping { nonce });
            let s = &mut self.slots[w];
            if sent {
                s.nonces.push_back(nonce);
                while s.nonces.len() > 8 {
                    s.nonces.pop_front();
                }
            } else {
                self.fail_slot(w as u32, now_tick);
            }
        }
    }

    fn dispatch(&mut self, now_tick: u64) {
        for job in self.journal.unstarted() {
            let hash = HashRing::key_hash(&self.keys[job]);
            let slots = &self.slots;
            let max_inflight = self.config.max_inflight;
            let Some(w) = self.ring.assign(hash, |w| {
                let s = &slots[w as usize];
                s.alive && s.inflight < max_inflight
            }) else {
                // Eligibility is per-worker, not per-job: if no worker
                // can take this job, none can take any other.
                break;
            };
            let msg = ToWorker::Job {
                job: job as u64,
                family: self.family.to_owned(),
                input: self.input_bytes[job].clone(),
            };
            if self.send_to(w as usize, &msg) {
                let incarnation = self.slots[w as usize].incarnation;
                self.journal.issue(job, w, incarnation, now_tick);
                self.slots[w as usize].inflight += 1;
                self.stats.dispatched += 1;
                count(self.obs, "cluster.jobs.dispatched", 1);
            } else {
                self.fail_slot(w, now_tick);
            }
        }
    }

    /// Sends one frame to a live slot; false means the write failed
    /// and the slot should be failed by the caller.
    fn send_to(&mut self, w: usize, msg: &ToWorker) -> bool {
        let Some(conn) = self.slots[w].conn.as_mut() else {
            return false;
        };
        write_frame(conn, &encode_msg(msg)).is_ok()
    }

    /// Declares a slot's current incarnation dead: kill the process,
    /// release its jobs for re-issue, and either schedule a jittered
    /// restart or mark the slot lost.
    fn fail_slot(&mut self, w: u32, now_tick: u64) {
        {
            let s = &mut self.slots[w as usize];
            s.alive = false;
            s.conn = None;
            s.nonces.clear();
            if let Some(mut child) = s.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        let released = self.journal.release_worker(w);
        let s = &mut self.slots[w as usize];
        s.inflight = 0;
        self.stats.reissues += released as u64;
        s.restart_attempts += 1;
        if s.restart_attempts > self.config.restart.max_retries {
            s.lost = true;
            self.stats.workers_lost += 1;
            count(self.obs, "cluster.worker.lost", 1);
        } else {
            let delay = self
                .config
                .restart
                .jittered_delay(s.restart_attempts, self.config.seed ^ u64::from(w));
            s.restart_at = Some(now_tick + delay);
        }
        count(self.obs, "cluster.jobs.reissued", released as u64);
        self.publish_health(w);
    }

    fn publish_health(&self, w: u32) {
        if let Some(obs) = self.obs {
            let s = &self.slots[w as usize];
            crate::obs::worker_health(obs, w, s.alive, s.incarnation, s.restart_attempts);
            let alive = self.slots.iter().filter(|s| s.alive).count();
            obs.set_gauge("cluster.workers.alive", alive as f64);
        }
    }

    fn spawn_worker(&self, addr: SocketAddr, w: u32, incarnation: u32) -> std::io::Result<Child> {
        let exe = match &self.config.worker_exe {
            Some(path) => path.clone(),
            None => std::env::current_exe()?,
        };
        let mut cmd = Command::new(exe);
        cmd.env(WORKER_ENV, addr.to_string())
            .env(ID_ENV, w.to_string())
            .env(INCARNATION_ENV, incarnation.to_string())
            .env_remove(CHAOS_ENV)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if incarnation == 0 {
            if let Some(plan) = &self.config.chaos {
                if let Some(fault) = plan.fault_for(w, 0) {
                    cmd.env(CHAOS_ENV, fault.directive());
                }
            }
        }
        cmd.spawn()
    }

    /// Best-effort clean shutdown: ask nicely, wait briefly, then
    /// kill. Stalled or zombie children never outlive this.
    fn shutdown_fleet(&mut self) {
        for w in 0..self.slots.len() {
            if self.slots[w].alive {
                let _ = self.send_to(w, &ToWorker::Shutdown);
            }
        }
        for s in &mut self.slots {
            if let Some(child) = s.child.as_mut() {
                let mut exited = false;
                for _ in 0..50 {
                    match child.try_wait() {
                        Ok(Some(_)) => {
                            exited = true;
                            break;
                        }
                        Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                        Err(_) => break,
                    }
                }
                if !exited {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
            s.child = None;
            s.conn = None;
            s.alive = false;
        }
    }
}

/// Accepts worker connections, performs the hello handshake in a
/// per-connection thread, and turns each connection into a stream of
/// events.
fn accept_loop(listener: &TcpListener, tx: &Sender<Event>, shutdown: &Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = conn else { continue };
        let tx = tx.clone();
        std::thread::spawn(move || {
            // A connector that never says hello must not wedge
            // anything: bound the handshake.
            let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
            let Ok(payload) = read_frame(&mut stream) else {
                return;
            };
            let Ok(FromWorker::Hello {
                worker,
                incarnation,
                ..
            }) = decode_msg::<FromWorker>(&payload)
            else {
                return;
            };
            let _ = stream.set_read_timeout(None);
            let Ok(reader) = stream.try_clone() else {
                return;
            };
            if tx
                .send(Event::Hello {
                    slot: worker,
                    incarnation,
                    stream,
                })
                .is_err()
            {
                return;
            }
            reader_loop(worker, incarnation, reader, &tx);
        });
    }
}

/// Reads frames from one worker connection until it dies, translating
/// them (and the manner of death) into supervision events.
fn reader_loop(slot: u32, incarnation: u32, mut stream: TcpStream, tx: &Sender<Event>) {
    loop {
        match read_frame(&mut stream) {
            Ok(payload) => match decode_msg::<FromWorker>(&payload) {
                Ok(msg) => {
                    if tx
                        .send(Event::Frame {
                            slot,
                            incarnation,
                            msg,
                        })
                        .is_err()
                    {
                        return;
                    }
                }
                Err(_) => {
                    let _ = tx.send(Event::Garbage { slot, incarnation });
                    return;
                }
            },
            Err(FrameError::Eof | FrameError::Io(_)) => {
                let _ = tx.send(Event::Gone { slot, incarnation });
                return;
            }
            Err(_) => {
                let _ = tx.send(Event::Garbage { slot, incarnation });
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_rejects_unrunnable_fleets() {
        let mut c = ClusterConfig::new(0);
        assert!(matches!(
            validate(&c),
            Err(ClusterError::Invalid {
                field: "workers",
                ..
            })
        ));
        c.workers = 2;
        c.heartbeat_every_ticks = c.watchdog_budget_ticks;
        assert!(matches!(
            validate(&c),
            Err(ClusterError::Invalid {
                field: "heartbeat_every_ticks",
                ..
            })
        ));
        c.heartbeat_every_ticks = 5;
        c.max_inflight = 0;
        assert!(matches!(
            validate(&c),
            Err(ClusterError::Invalid {
                field: "max_inflight",
                ..
            })
        ));
        c.max_inflight = 2;
        assert!(validate(&c).is_ok());
    }

    #[test]
    fn chaos_plan_must_fit_the_fleet() {
        use cedar_faults::{WorkerFaultConfig, WorkerFaultPlan};
        let plan = WorkerFaultPlan::generate(&WorkerFaultConfig {
            seed: 1,
            workers: 8,
            kills: 1,
            stalls: 0,
            corrupts: 0,
            max_after_jobs: 1,
        })
        .unwrap();
        let mut c = ClusterConfig::new(2);
        c.chaos = Some(plan);
        // The plan was generated for 8 workers; a 2-worker fleet may
        // not reference slots it does not have.
        let ok = match validate(&c) {
            Err(ClusterError::Invalid { field: "chaos", .. }) => true,
            // The planted fault may happen to land on slot 0 or 1, in
            // which case the plan fits — regenerate deterministically
            // and check the guard still works for an out-of-range one.
            Ok(()) => c
                .chaos
                .as_ref()
                .unwrap()
                .faults()
                .iter()
                .all(|f| f.worker < 2),
            _ => false,
        };
        assert!(ok);
    }

    #[test]
    fn error_display_names_the_condition() {
        let errors: Vec<ClusterError> = vec![
            ClusterError::FleetLost { pending: 3 },
            ClusterError::JobFailed {
                job: 7,
                reason: "panicked".to_owned(),
            },
            ClusterError::Timeout {
                ticks: 100,
                pending: 2,
            },
            ClusterError::BadResult { job: 1 },
        ];
        let texts: Vec<String> = errors.iter().map(ToString::to_string).collect();
        assert!(texts[0].contains("all workers lost"));
        assert!(texts[1].contains("job 7"));
        assert!(texts[2].contains("100 ticks"));
        assert!(texts[3].contains("do not decode"));
    }
}
