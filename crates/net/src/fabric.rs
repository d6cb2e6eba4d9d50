//! Round-trip fabric: forward network + memory-module servers +
//! reverse network.
//!
//! This is the measurement engine behind the paper's Table 2. Each
//! simulated CE runs a prefetch-unit traffic source that issues
//! single-word global-memory read requests in blocks (32-word
//! compiler-generated prefetches, or 256-word blocks for the RK
//! kernel), with a bounded number outstanding (512 for the PFU, 2 for
//! the plain lockup-free cache interface). The fabric records, for
//! every request, when its address entered the forward network and
//! when its datum returned on the reverse network — exactly the two
//! signals the hardware performance monitor tapped.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use cedar_faults::{CedarError, FaultPlan, NetDirection, RetryPolicy};
use cedar_obs::{CounterId, Obs};
use cedar_sim::rng::SplitMix64;
use cedar_sim::watchdog::Watchdog;

use crate::config::NetworkConfig;
use crate::network::OmegaNetwork;
use crate::packet::{Packet, PacketId, PacketKind, Word};

#[path = "specialized.rs"]
pub mod specialized;

use specialized::EngineKind;

/// Fabric-level configuration: the two networks plus the memory-module
/// service rate and the fixed processor-side path cost.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    /// Configuration shared by the forward and reverse networks.
    pub net: NetworkConfig,
    /// Network cycles a memory module is busy per request. The Cedar
    /// default of 2 (one CE cycle) yields the paper's ~1-cycle minimum
    /// interarrival time for pipelined prefetch streams.
    pub mem_service_net_cycles: u64,
    /// Number of interleaved memory modules, mapped onto network
    /// output positions `0..mem_modules`.
    pub mem_modules: usize,
    /// CE-cycle cost of the path between the prefetch unit and the
    /// network port, added once to every reported latency. With the
    /// default networks this calibrates the unloaded first-word
    /// latency to the paper's 8-cycle minimum.
    pub latency_offset_ce: f64,
    /// Capacity of each memory module's request input buffer. Small
    /// buffers (Cedar: 2) let module congestion back up into the
    /// forward network — the tree-saturation mechanism \[Turn93\]
    /// identifies as the implementation constraint behind Table 2.
    pub module_buffer_requests: usize,
}

impl FabricConfig {
    /// The Cedar production configuration.
    ///
    /// 32 double-word-interleaved modules each delivering one word per
    /// two CE cycles gives the machine's 768 MB/s aggregate global
    /// bandwidth (16 words per CE cycle, i.e. 24 MB/s per processor at
    /// 32 CEs) — the ratio that makes 32 active CEs oversubscribe the
    /// memory system by 2×, which is the mechanism behind Table 2's
    /// latency and interarrival growth.
    #[must_use]
    pub fn cedar() -> Self {
        FabricConfig {
            net: NetworkConfig::cedar(),
            mem_service_net_cycles: 4,
            mem_modules: 32,
            latency_offset_ce: 2.5,
            module_buffer_requests: 2,
        }
    }
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig::cedar()
    }
}

/// A prefetch-unit traffic pattern for one experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchTraffic {
    /// Words fetched per prefetch block (compiler default: 32; the RK
    /// kernel arms 256-word blocks).
    pub block_len: u32,
    /// Number of blocks each CE fetches.
    pub blocks: u32,
    /// Maximum requests outstanding per CE (PFU: up to 512; the plain
    /// cache interface allows only 2).
    pub window: u32,
    /// Idle CE cycles between blocks, modelling computation that is
    /// not overlapped with prefetching. Zero means back-to-back
    /// fetching.
    pub gap_ce_cycles: u64,
    /// How many blocks may be in flight at once. The prefetch buffer
    /// is invalidated when another prefetch starts, so at most one
    /// block is ever fetching on Cedar (1); the parameter exists for
    /// what-if studies of a double-buffered PFU.
    pub blocks_in_flight: u32,
    /// Global-memory *write* packets issued per read request, modelling
    /// store traffic that shares the forward network and the memory
    /// modules (writes are fire-and-forget: "Writes do not stall a
    /// CE"). A pure vector load writes nothing; the tridiagonal
    /// matvec writes its result vector back.
    pub writes_per_read: f64,
    /// Number of interleaved operand streams per block. A plain vector
    /// load reads one stream; the tridiagonal matvec interleaves its
    /// three diagonals and the input vector (4); conjugate gradient
    /// touches five. Requests round-robin across streams, each with
    /// its own random base address, which is what makes module
    /// collisions frequent even at low CE counts.
    pub streams: u32,
    /// How request addresses are generated.
    pub pattern: AddressPattern,
}

/// Address-generation pattern of a traffic source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AddressPattern {
    /// Module-interleaved strided streams (vector operands).
    Strided,
    /// A fraction of the requests target one module — a
    /// synchronization hot spot, the access pattern the per-module
    /// Test-And-Operate processors exist to keep cheap (one network
    /// transaction per sync instead of a read-modify-write storm).
    HotSpot {
        /// The hot module.
        module: usize,
        /// Fraction of requests aimed at it, in `[0, 1]`.
        fraction: f64,
    },
}

impl PrefetchTraffic {
    /// Compiler-generated 32-word prefetch stream: one block in
    /// flight, issued immediately before each vector instruction, no
    /// store traffic, `gap` idle cycles of non-overlapped computation
    /// between blocks.
    #[must_use]
    pub fn compiler_default(blocks: u32) -> Self {
        PrefetchTraffic {
            block_len: 32,
            blocks,
            window: 512,
            gap_ce_cycles: 6,
            blocks_in_flight: 1,
            writes_per_read: 0.0,
            streams: 1,
            pattern: AddressPattern::Strided,
        }
    }

    /// The RK kernel's hand-armed pattern: 256-word blocks fetched
    /// back-to-back (computation fully overlapped, so no idle gap).
    /// Reads are dominated by the rank-update's U operand; the store
    /// stream writing A back is roughly one write per 65 reads.
    #[must_use]
    pub fn rk_aggressive(blocks: u32) -> Self {
        PrefetchTraffic {
            block_len: 256,
            blocks,
            window: 512,
            gap_ce_cycles: 0,
            blocks_in_flight: 2,
            writes_per_read: 1.0 / 65.0,
            streams: 2,
            pattern: AddressPattern::Strided,
        }
    }

    /// The VF kernel (vector load): a single operand stream of
    /// compiler-generated 32-word prefetches with only the re-arm
    /// overhead between blocks — "dominated by memory accesses but
    /// degrades less quickly due to the smaller prefetch block".
    #[must_use]
    pub fn vector_load(blocks: u32) -> Self {
        PrefetchTraffic::compiler_default(blocks)
    }

    /// The TM kernel (tridiagonal matrix-vector multiply): four
    /// interleaved read streams (three diagonals plus the input
    /// vector), result writes between blocks, and register-register
    /// vector operations between loads that "reduce the demand on the
    /// memory system".
    #[must_use]
    pub fn tridiagonal_matvec(blocks: u32) -> Self {
        PrefetchTraffic {
            block_len: 32,
            blocks,
            window: 512,
            gap_ce_cycles: 24,
            blocks_in_flight: 1,
            writes_per_read: 0.25,
            streams: 4,
            pattern: AddressPattern::Strided,
        }
    }

    /// The CG kernel (conjugate gradient iteration): five interleaved
    /// streams (matrix diagonals and vectors) with register-register
    /// reduction work between loads.
    #[must_use]
    pub fn conjugate_gradient(blocks: u32) -> Self {
        PrefetchTraffic {
            block_len: 32,
            blocks,
            window: 512,
            gap_ce_cycles: 20,
            blocks_in_flight: 1,
            writes_per_read: 0.2,
            streams: 5,
            pattern: AddressPattern::Strided,
        }
    }

    /// A synchronization hot-spot pattern: `fraction` of the requests
    /// hammer module 0 (a shared counter or lock cell), the rest
    /// stream normally.
    #[must_use]
    pub fn sync_hotspot(blocks: u32, fraction: f64) -> Self {
        PrefetchTraffic {
            block_len: 32,
            blocks,
            window: 512,
            gap_ce_cycles: 6,
            blocks_in_flight: 1,
            writes_per_read: 0.0,
            streams: 1,
            pattern: AddressPattern::HotSpot {
                module: 0,
                fraction,
            },
        }
    }
}

/// Span names of a request's life through the fabric, in path order.
/// A traced request opens [`SPAN_REQUEST`] at issue and then walks
/// exactly one of these inner stages at a time, so its Perfetto track
/// reads issue → forward net → module queue → module service → return
/// net.
pub const SPAN_REQUEST: &str = "request";
/// Address packet traversing the forward omega network.
pub const SPAN_FORWARD_NET: &str = "forward_net";
/// Request queued in the memory module's input buffer (bank conflict:
/// time here is time lost to another request occupying the bank).
pub const SPAN_MEM_QUEUE: &str = "mem_queue";
/// Memory module busy serving the request.
pub const SPAN_MEM_SERVICE: &str = "mem_service";
/// Reply traversing the reverse omega network back to the CE.
pub const SPAN_RETURN_NET: &str = "return_net";

/// Interned metric handles for the fabric's own counters (the two
/// networks intern theirs in [`OmegaNetwork::set_obs`]).
#[derive(Debug)]
struct FabricMetricIds {
    /// Requests served, per module.
    served: Vec<CounterId>,
    /// Cycles a module was busy while requests waited in its buffer —
    /// the bank-conflict stall signal.
    conflict_stall_cycles: CounterId,
    /// Cycles a finished reply could not enter the reverse network.
    reply_inject_blocked: CounterId,
    reads_issued: CounterId,
    writes_issued: CounterId,
    retries: CounterId,
    abandoned: CounterId,
    /// Runs that wanted the specialized engine but fell back to
    /// generic, so silent de-specialization can't mask a regression.
    engine_fallback: CounterId,
}

/// Telemetry state attached to the fabric by [`RoundTripFabric::set_obs`].
#[derive(Debug)]
struct FabricObs {
    obs: Obs,
    /// Cached `obs.tracing_enabled()`, checked in hot paths.
    tracing: bool,
    metrics: Option<FabricMetricIds>,
    /// Currently open inner stage per in-flight traced request id.
    /// Transitions fire only when the open stage matches the expected
    /// predecessor, which keeps the span stream balanced even when
    /// faults duplicate or reorder a packet's milestones.
    open: BTreeMap<u64, &'static str>,
    /// Last span reported to the watchdog, to avoid re-formatting.
    last_noted: Option<(&'static str, u64)>,
}

/// One request's life cycle, in network cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// Which block the request belongs to.
    pub block: u32,
    /// Position within the block (0 = first word).
    pub index_in_block: u32,
    /// Network cycle the address entered the forward network.
    pub issue: u64,
    /// Network cycle the datum was consumed at the CE port.
    pub ret: u64,
}

/// Per-module receive/serve state.
#[derive(Debug, Default)]
struct MemModule {
    /// Requests whose final word has arrived, waiting for service.
    pending: VecDeque<Packet>,
    /// Cycle the module becomes free.
    busy_until: u64,
    /// Reply ready to inject into the reverse network (retried until
    /// the injection FIFO takes it).
    outgoing: Option<Packet>,
    served: u64,
}

/// Per-CE traffic-source state.
#[derive(Debug)]
struct CeSource {
    port: usize,
    traffic: PrefetchTraffic,
    next_block: u32,
    next_index: u32,
    outstanding: u32,
    /// CE cycle before which no new block may start (gap modelling).
    blocked_until_ce: u64,
    records: Vec<RequestRecord>,
    /// Issue cycle per in-flight request id (dense local index).
    issued_at: Vec<u64>,
    /// Words returned so far for each block.
    returned_per_block: Vec<u32>,
    /// Number of fully returned blocks.
    completed_blocks: u32,
    /// Starting module of each stream of the in-progress block,
    /// randomized like the base addresses of real vector operands.
    stream_bases: Vec<usize>,
    /// Accumulated store obligation; each whole unit issues one write
    /// packet before the next read.
    write_debt: f64,
    /// Writes issued so far (distinct id space and address offset).
    writes_issued: u64,
    rng: SplitMix64,
    done_issuing: bool,
}

impl CeSource {
    fn new(port: usize, traffic: PrefetchTraffic) -> Self {
        CeSource {
            port,
            traffic,
            next_block: 0,
            next_index: 0,
            outstanding: 0,
            blocked_until_ce: 0,
            records: Vec::new(),
            issued_at: Vec::new(),
            returned_per_block: vec![0; traffic.blocks as usize],
            completed_blocks: 0,
            stream_bases: vec![0; traffic.streams.max(1) as usize],
            write_debt: 0.0,
            writes_issued: 0,
            rng: SplitMix64::new(0xCEDA_0000 + port as u64),
            done_issuing: traffic.blocks == 0 || traffic.block_len == 0,
        }
    }

    fn local_request_count(&self) -> u64 {
        u64::from(self.traffic.blocks) * u64::from(self.traffic.block_len)
    }
}

/// The assembled round-trip fabric.
///
/// # Examples
///
/// ```
/// use cedar_net::fabric::{FabricConfig, PrefetchTraffic, RoundTripFabric};
///
/// let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
/// let report = fabric.run_prefetch_experiment(1, PrefetchTraffic::compiler_default(4), 100_000);
/// assert!(report.completed());
/// assert!(report.mean_first_word_latency_ce() >= 8.0 - 1e-9);
/// ```
#[derive(Debug)]
pub struct RoundTripFabric {
    cfg: FabricConfig,
    forward: OmegaNetwork,
    reverse: OmegaNetwork,
    modules: Vec<MemModule>,
    /// Partially received multi-word request packets per module port.
    partial: Vec<Option<(Packet, u8)>>,
    now: u64,
    /// Attached fault schedule; `None` (the default, or a benign plan)
    /// leaves every code path bit-identical to the healthy fabric.
    faults: Option<FaultPlan>,
    /// Timeout/backoff schedule for request recovery under faults.
    retry: RetryPolicy,
    /// Words and requests destroyed at fail-stopped modules.
    module_discards: u64,
    /// Whether the experiment loop may skip provably idle stretches
    /// (on by default; reports are bit-identical either way).
    fast_forward: bool,
    /// Net cycles elided by the idle fast-forward.
    ff_cycles: u64,
    /// Attached telemetry; `None` (the default, or a disabled handle)
    /// leaves every code path bit-identical to the un-instrumented
    /// fabric.
    obs: Option<FabricObs>,
    /// Execution-engine selection (from `CEDAR_ENGINE` at
    /// construction, or [`set_engine`](Self::set_engine)). Not part of
    /// the simulated state: engines are bit-identical, so none of the
    /// engine fields below are snapshotted.
    engine: EngineKind,
    /// Which engine the most recent experiment drive actually used.
    last_run_engine: Option<&'static str>,
    /// Why the most recent drive fell back to generic, if it did.
    last_fallback: Option<&'static str>,
    /// Whether the explicit-specialized fallback warning has fired.
    fallback_logged: bool,
}

/// A request awaiting its reply under fault injection, as checkpoints
/// record it: the packet to re-inject and its attempt count.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    packet: Packet,
    /// Times this request has entered the forward network.
    attempts: u32,
}

/// One issued read's retry slot. A read's packet is fixed but for its
/// target (`src` is the id's port, 1 word, `ReadRequest`), so the slot
/// keeps only the attempt count and the module a retry aims at.
#[derive(Debug, Clone, Copy, Default)]
struct Flight {
    /// Times the read has entered the forward network; 0 once it is
    /// resolved (or for a slot not yet issued).
    attempts: u32,
    dest: usize,
}

/// Retry timers `(due cycle, packet id)`, popped in ascending order, as
/// one `BinaryHeap<Reverse<_>>` would pop them. First-attempt timers
/// (`now + base delay`) are armed in that order already, since sources
/// issue in port order at most once per cycle, so they queue in a FIFO;
/// the heap takes backoff re-arms and any arm that would break the
/// FIFO's order. `(due, id)` is a total order, so taking the smaller
/// head fires timers exactly as one heap would.
#[derive(Debug, Default)]
struct TimerQueue {
    fifo: VecDeque<(u64, u64)>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl TimerQueue {
    /// Arms a timer at the FIFO's tail if that keeps it sorted.
    fn arm_first(&mut self, timer: (u64, u64)) {
        if self.fifo.back().is_none_or(|&last| last <= timer) {
            self.fifo.push_back(timer);
        } else {
            self.heap.push(Reverse(timer));
        }
    }

    /// Arms a timer in the heap.
    fn arm(&mut self, timer: (u64, u64)) {
        self.heap.push(Reverse(timer));
    }

    /// The earliest timer, without removing it.
    fn peek(&self) -> Option<(u64, u64)> {
        match (self.fifo.front(), self.heap.peek()) {
            (Some(&f), Some(&Reverse(h))) => Some(f.min(h)),
            (f, h) => f.copied().or(h.map(|&Reverse(t)| t)),
        }
    }

    /// Removes and returns the earliest timer.
    fn pop(&mut self) -> Option<(u64, u64)> {
        let first = self.peek()?;
        if self.fifo.front() == Some(&first) {
            self.fifo.pop_front()
        } else {
            self.heap.pop().map(|Reverse(t)| t)
        }
    }

    /// Every armed timer, ascending.
    fn sorted(&self) -> Vec<(u64, u64)> {
        let mut timers: Vec<(u64, u64)> = self.fifo.iter().copied().collect();
        timers.extend(self.heap.iter().map(|&Reverse(t)| t));
        timers.sort_unstable();
        timers
    }
}

/// Book-keeping for request recovery, allocated only when a fault
/// schedule is attached so the healthy path stays untouched.
#[derive(Debug, Default)]
struct RecoveryState {
    /// One slot per issued read, by source and dense local index (a
    /// read's id is `port << 40 | local`). A nonzero attempt count is
    /// the dedup authority: a reply whose slot reads 0 (already
    /// completed, or abandoned) is discarded.
    flights: Vec<Vec<Flight>>,
    /// Slots with a nonzero attempt count.
    live: usize,
    timers: TimerQueue,
    /// Requests re-injected after a timeout.
    retries: u64,
    /// Requests abandoned after the retry budget ran out.
    failed_requests: u64,
}

/// An in-progress prefetch experiment: the per-CE traffic sources and
/// recovery book-keeping that used to live as loop locals inside
/// [`RoundTripFabric::run_prefetch_experiment`], extracted so a run
/// can be paused between cycles, serialized together with its fabric
/// by [`RoundTripFabric::checkpoint_experiment`], and resumed
/// bit-identically in another process.
#[derive(Debug)]
pub struct FabricExperiment {
    sources: Vec<CeSource>,
    /// `Some` iff a fault schedule was attached when the run began.
    recovery: Option<RecoveryState>,
    completed_requests: u64,
    total_expected: u64,
    /// Cached `cfg.net.net_cycles_per_ce_cycle`.
    ratio: u64,
    max_net_cycles: u64,
}

impl FabricExperiment {
    /// Requests resolved so far: completed plus abandoned.
    #[must_use]
    pub fn resolved_requests(&self) -> u64 {
        self.completed_requests + self.recovery.as_ref().map_or(0, |r| r.failed_requests)
    }

    /// Whether any request is currently awaiting its reply under the
    /// retry machinery — i.e. the experiment is mid-recovery.
    #[must_use]
    pub fn retry_in_flight(&self) -> bool {
        self.recovery.as_ref().is_some_and(|r| r.live != 0)
    }

    /// The first cycle after `now` at which an idle fabric can change
    /// state: the earliest CE boundary a source may issue on, the
    /// earliest armed retry timer, the cycle budget or the watchdog
    /// `horizon`, whichever comes first. Both engines' idle
    /// fast-forwards jump to the cycle before it.
    ///
    /// The timer queue is only peeked, never popped: it is checkpointed
    /// state. A stale timer (its request already resolved) merely ends
    /// the jump early and then fires as a no-op, as it would have
    /// without the jump.
    fn idle_wake_cycle(&self, now: u64, horizon: Option<u64>) -> u64 {
        let ratio = self.ratio;
        let next_boundary = (now / ratio + 1) * ratio;
        let next_timer = self.recovery.as_ref().and_then(RecoveryState::next_due);
        self.sources
            .iter()
            .filter(|s| !s.done_issuing)
            .map(|s| next_boundary.max(s.blocked_until_ce * ratio))
            .min()
            .unwrap_or(self.max_net_cycles)
            .min(self.max_net_cycles)
            .min(next_timer.unwrap_or(u64::MAX))
            .min(horizon.unwrap_or(u64::MAX))
    }
}

/// How [`RecoveryState::fire_due`] resolved one due retry timer.
#[derive(Debug, Clone, Copy)]
enum Fired {
    /// The request re-entered the forward network as attempt
    /// `attempts`.
    Retried { id: u64, attempts: u32 },
    /// The request ran out of retries after `attempts` attempts; its
    /// source `src` got its window slot back.
    Abandoned { id: u64, src: usize, attempts: u32 },
}

impl RecoveryState {
    /// Empty recovery state for `n_ces` sources.
    fn new(n_ces: usize) -> Self {
        RecoveryState {
            flights: vec![Vec::new(); n_ces],
            ..RecoveryState::default()
        }
    }

    /// The cycle the earliest armed retry timer falls due.
    fn next_due(&self) -> Option<u64> {
        self.timers.peek().map(|(due, _)| due)
    }

    /// Registers a just-issued read and arms its first retry timer,
    /// due at `due`.
    fn register(&mut self, packet: Packet, due: u64) {
        let (port, local) = split_id(packet.id.0);
        let flights = &mut self.flights[port];
        if flights.len() <= local {
            flights.resize(local + 1, Flight::default());
        }
        flights[local] = Flight {
            attempts: 1,
            dest: packet.dest,
        };
        self.live += 1;
        self.timers.arm_first((due, packet.id.0));
    }

    /// Resolves read `id` on its reply. False for a duplicate reply or
    /// one that arrives after abandonment.
    fn resolve(&mut self, id: u64) -> bool {
        let (port, local) = split_id(id);
        match self.flights.get_mut(port).and_then(|f| f.get_mut(local)) {
            Some(f) if f.attempts != 0 => {
                f.attempts = 0;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Fires the retry timers due at `now`, the recovery step both
    /// engines share: a request still unresolved when its timer
    /// expires is re-injected through `inject` (re-aimed at the
    /// fallback module if its target fail-stopped) with exponential
    /// backoff until the policy's attempt budget runs out, after which
    /// it is abandoned and counted in `failed_requests`. `note` hears
    /// every retry and abandonment in firing order.
    fn fire_due(
        &mut self,
        now: u64,
        policy: &RetryPolicy,
        plan: Option<&FaultPlan>,
        sources: &mut [CeSource],
        mut inject: impl FnMut(Packet) -> bool,
        mut note: impl FnMut(Fired),
    ) {
        while let Some((due, id)) = self.timers.peek() {
            if due > now {
                break;
            }
            self.timers.pop();
            let (src, local) = split_id(id);
            let entry = &mut self.flights[src][local];
            if entry.attempts == 0 {
                continue; // resolved while the timer was pending
            }
            if entry.attempts > policy.max_retries {
                let attempts = entry.attempts;
                entry.attempts = 0;
                self.live -= 1;
                self.failed_requests += 1;
                RoundTripFabric::abandon_request(&mut sources[src], id);
                note(Fired::Abandoned { id, src, attempts });
                continue;
            }
            if let Some(plan) = plan {
                if plan.module_failed(entry.dest, now) {
                    entry.dest = plan.fallback_module(entry.dest);
                }
            }
            let packet = Packet::new(PacketId(id), src, entry.dest, 1, PacketKind::ReadRequest);
            if inject(packet) {
                self.retries += 1;
                entry.attempts += 1;
                let attempts = entry.attempts;
                self.timers.arm((now + policy.delay(attempts), id));
                note(Fired::Retried { id, attempts });
            } else {
                // Injection FIFO full: retry next cycle without
                // spending an attempt.
                self.timers.arm((now + 1, id));
            }
        }
    }
}

impl RoundTripFabric {
    /// Builds an idle fabric.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is rejected by
    /// [`try_new`](Self::try_new).
    #[must_use]
    pub fn new(cfg: FabricConfig) -> Self {
        RoundTripFabric::try_new(cfg).expect("invalid fabric configuration")
    }

    /// Builds an idle fabric, validating the configuration.
    ///
    /// # Errors
    ///
    /// Rejects an invalid network configuration and a `mem_modules`
    /// count of zero or beyond the network port count.
    pub fn try_new(cfg: FabricConfig) -> Result<Self, CedarError> {
        cfg.net.validate()?;
        let ports = cfg.net.ports();
        if cfg.mem_modules == 0 || cfg.mem_modules > ports {
            return Err(CedarError::invalid(
                "fabric.mem_modules",
                format!(
                    "mem_modules must be in 1..={ports}, got {}",
                    cfg.mem_modules
                ),
            ));
        }
        if cfg.module_buffer_requests == 0 {
            return Err(CedarError::invalid(
                "fabric.module_buffer_requests",
                "modules must buffer at least one request",
            ));
        }
        let mut reverse_net = cfg.net;
        // The reverse network delivers into 512-word prefetch buffers,
        // which never back it up.
        reverse_net.exit_fifo_words = 512;
        Ok(RoundTripFabric {
            forward: OmegaNetwork::try_new(cfg.net)?,
            reverse: OmegaNetwork::try_new(reverse_net)?,
            modules: (0..cfg.mem_modules).map(|_| MemModule::default()).collect(),
            partial: vec![None; cfg.mem_modules],
            now: 0,
            cfg,
            faults: None,
            retry: RetryPolicy::fabric(),
            module_discards: 0,
            fast_forward: true,
            ff_cycles: 0,
            obs: None,
            engine: EngineKind::from_env(),
            last_run_engine: None,
            last_fallback: None,
            fallback_logged: false,
        })
    }

    /// Overrides the execution-engine selection (the default comes
    /// from the `CEDAR_ENGINE` environment variable at construction).
    /// Engines are bit-identical; this only changes how fast the
    /// answer arrives.
    pub fn set_engine(&mut self, engine: EngineKind) {
        self.engine = engine;
    }

    /// The current execution-engine selection.
    #[must_use]
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Which engine the most recent experiment drive used
    /// (`"generic"` / `"specialized"`), or `None` before any drive.
    #[must_use]
    pub fn last_run_engine(&self) -> Option<&'static str> {
        self.last_run_engine
    }

    /// Why the most recent drive fell back to the generic engine, or
    /// `None` if it did not want or did not miss the specialized one.
    #[must_use]
    pub fn last_fallback(&self) -> Option<&'static str> {
        self.last_fallback
    }

    /// Attaches a telemetry handle to the fabric and both of its
    /// networks (labelled `fwd` / `rev`). With metrics live, the
    /// fabric interns per-module served counters
    /// (`fabric.module<m>.served`), the bank-conflict stall counter
    /// (`fabric.module_conflict_stall_cycles`) and issue/retry
    /// counters; with tracing live, every read request is followed
    /// through `request` / `forward_net` / `mem_queue` /
    /// `mem_service` / `return_net` spans with fault events
    /// interleaved on the same track. A disabled handle detaches.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.forward.set_obs(obs, "fwd");
        self.reverse.set_obs(obs, "rev");
        if !obs.is_enabled() {
            self.obs = None;
            return;
        }
        let metrics = obs.metrics_enabled().then(|| FabricMetricIds {
            served: (0..self.cfg.mem_modules)
                .map(|m| {
                    obs.counter(&format!("fabric.module{m:02}.served"))
                        .expect("metrics enabled")
                })
                .collect(),
            conflict_stall_cycles: obs
                .counter("fabric.module_conflict_stall_cycles")
                .expect("metrics enabled"),
            reply_inject_blocked: obs
                .counter("fabric.reply_inject_blocked")
                .expect("metrics enabled"),
            reads_issued: obs.counter("fabric.reads_issued").expect("metrics enabled"),
            writes_issued: obs
                .counter("fabric.writes_issued")
                .expect("metrics enabled"),
            retries: obs.counter("fabric.retries").expect("metrics enabled"),
            abandoned: obs
                .counter("fabric.requests_abandoned")
                .expect("metrics enabled"),
            engine_fallback: obs.counter("engine.fallback").expect("metrics enabled"),
        });
        self.obs = Some(FabricObs {
            tracing: obs.tracing_enabled(),
            metrics,
            open: BTreeMap::new(),
            last_noted: None,
            obs: obs.clone(),
        });
    }

    /// Opens the `request` + `forward_net` spans for a newly issued
    /// read.
    fn trace_issue(&mut self, id: u64) {
        let now = self.now;
        let Some(fobs) = self.obs.as_mut() else {
            return;
        };
        if !fobs.tracing {
            return;
        }
        let pid = id >> 40;
        fobs.obs.span_begin(pid, id, SPAN_REQUEST, now);
        fobs.obs.span_begin(pid, id, SPAN_FORWARD_NET, now);
        fobs.open.insert(id, SPAN_FORWARD_NET);
    }

    /// Advances a traced request from stage `from` to stage `to`. A
    /// no-op unless `from` is the currently open stage — duplicate
    /// milestones from fault-path packet copies are thereby ignored
    /// and the stream stays balanced.
    fn trace_transition(&mut self, id: u64, from: &'static str, to: &'static str) {
        let now = self.now;
        let Some(fobs) = self.obs.as_mut() else {
            return;
        };
        if !fobs.tracing || fobs.open.get(&id) != Some(&from) {
            return;
        }
        let pid = id >> 40;
        fobs.obs.span_end(pid, id, from, now);
        fobs.obs.span_begin(pid, id, to, now);
        fobs.open.insert(id, to);
    }

    /// Closes a traced request's open stage and its outer span,
    /// optionally recording a final instant (`"abandoned"`).
    fn trace_close(&mut self, id: u64, marker: Option<(&'static str, u64)>) {
        let now = self.now;
        let Some(fobs) = self.obs.as_mut() else {
            return;
        };
        let Some(stage) = fobs.open.remove(&id) else {
            return;
        };
        let pid = id >> 40;
        if let Some((name, value)) = marker {
            fobs.obs
                .span_instant(pid, id, name, now, Some(("attempt", value)));
        }
        fobs.obs.span_end(pid, id, stage, now);
        fobs.obs.span_end(pid, id, SPAN_REQUEST, now);
    }

    /// Marks a retry on the request's track and re-enters the
    /// `forward_net` stage (whatever stage the lost copy last reached
    /// is closed first, so the track shows where the original died).
    fn trace_retry(&mut self, id: u64, attempt: u64) {
        let now = self.now;
        let Some(fobs) = self.obs.as_mut() else {
            return;
        };
        if !fobs.tracing {
            return;
        }
        let pid = id >> 40;
        fobs.obs
            .span_instant(pid, id, "retry", now, Some(("attempt", attempt)));
        if let Some(stage) = fobs.open.get(&id).copied() {
            fobs.obs.span_end(pid, id, stage, now);
        }
        fobs.obs.span_begin(pid, id, SPAN_FORWARD_NET, now);
        fobs.open.insert(id, SPAN_FORWARD_NET);
    }

    /// Closes every span still open (in-flight requests at the end of
    /// a run, or everything when a watchdog aborts mid-flight), so the
    /// exported stream is always balanced.
    fn trace_close_dangling(&mut self) {
        let now = self.now;
        let Some(fobs) = self.obs.as_mut() else {
            return;
        };
        for (id, stage) in std::mem::take(&mut fobs.open) {
            let pid = id >> 40;
            fobs.obs.span_end(pid, id, stage, now);
            fobs.obs.span_end(pid, id, SPAN_REQUEST, now);
        }
    }

    /// Feeds the most recently opened span to the watchdog so a
    /// `Stalled` diagnostic names the stage where progress died, not
    /// just the experiment label. Formats only when the span changed.
    fn note_span_to_watchdog(&mut self, dog: &mut Watchdog) {
        let Some(fobs) = self.obs.as_mut() else {
            return;
        };
        let current = fobs.obs.last_span();
        if let Some((name, tid)) = current {
            if current != fobs.last_noted {
                dog.note_span(format!("{name} (packet {tid})"));
                fobs.last_noted = current;
            }
        }
    }

    /// Adds `n` to a fabric metric counter, if metrics are live.
    fn metric_add(&mut self, pick: impl Fn(&FabricMetricIds) -> CounterId, n: u64) {
        if let Some(fobs) = &self.obs {
            if let Some(ids) = &fobs.metrics {
                fobs.obs.add(pick(ids), n);
            }
        }
    }

    /// Attaches a fault schedule to both networks and the memory
    /// modules, plus the retry policy that recovers lost requests.
    /// A benign plan is discarded: the fabric then behaves
    /// bit-identically to one with no plan attached.
    pub fn attach_faults(&mut self, plan: FaultPlan, retry: RetryPolicy) {
        self.forward
            .attach_faults(NetDirection::Forward, plan.clone());
        self.reverse
            .attach_faults(NetDirection::Reverse, plan.clone());
        self.faults = if plan.is_benign() { None } else { Some(plan) };
        self.retry = retry;
    }

    /// The attached fault schedule, if any.
    #[must_use]
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Current simulation time in network cycles.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The fabric configuration.
    #[must_use]
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Like [`run_prefetch_experiment`], but posts every first-word
    /// latency and interarrival gap (in CE cycles) to the given
    /// performance monitor under the signals
    /// `"prefetch.first_word_latency"` and `"prefetch.interarrival"` —
    /// the software face of attaching the histogrammers to the PFU's
    /// network signals, as §2's monitoring hardware did.
    ///
    /// [`run_prefetch_experiment`]: Self::run_prefetch_experiment
    pub fn run_monitored_experiment(
        &mut self,
        n_ces: usize,
        traffic: PrefetchTraffic,
        max_net_cycles: u64,
        monitor: &mut cedar_sim::monitor::PerformanceMonitor,
    ) -> FabricReport {
        let latency_sig = monitor.signal("prefetch.first_word_latency");
        let inter_sig = monitor.signal("prefetch.interarrival");
        let report = self.run_prefetch_experiment(n_ces, traffic, max_net_cycles);
        let ratio = report.net_cycles_per_ce_cycle as f64;
        for records in &report.per_ce {
            let mut by_block: std::collections::BTreeMap<u32, Vec<&RequestRecord>> =
                std::collections::BTreeMap::new();
            for r in records {
                by_block.entry(r.block).or_default().push(r);
            }
            for rs in by_block.values() {
                for r in rs.iter().filter(|r| r.index_in_block == 0) {
                    let lat = (r.ret - r.issue) as f64 / ratio + report.latency_offset_ce;
                    monitor.post(
                        latency_sig,
                        cedar_sim::time::Cycle::new(r.ret),
                        lat.round() as u32,
                    );
                }
                let mut rets: Vec<u64> = rs.iter().map(|r| r.ret).collect();
                rets.sort_unstable();
                for w in rets.windows(2) {
                    let gap = (w[1] - w[0]) as f64 / ratio;
                    monitor.post(
                        inter_sig,
                        cedar_sim::time::Cycle::new(w[1]),
                        gap.round() as u32,
                    );
                }
            }
        }
        report
    }

    /// Runs `n_ces` identical prefetch sources to completion (or until
    /// `max_net_cycles`), returning the full request-level report.
    ///
    /// CEs occupy network ports `0..n_ces`; block `b` of CE `c` starts
    /// at module `(c * 17 + b * block_len) % mem_modules` and walks
    /// module-interleaved addresses word by word, the access pattern
    /// of a stride-1 vector fetch from double-word-interleaved global
    /// memory.
    ///
    /// # Panics
    ///
    /// Panics if `n_ces` exceeds the network port count.
    pub fn run_prefetch_experiment(
        &mut self,
        n_ces: usize,
        traffic: PrefetchTraffic,
        max_net_cycles: u64,
    ) -> FabricReport {
        self.run_experiment_inner(n_ces, traffic, max_net_cycles, None)
            .expect("only a watchdog can abort an experiment")
    }

    /// Like [`run_prefetch_experiment`], but guarded by a watchdog:
    /// if the count of resolved requests stops advancing for the
    /// watchdog's cycle budget — a deadlocked or livelocked degraded
    /// machine — the run aborts with a [`CedarError::Stalled`]
    /// diagnostic instead of burning the full cycle budget.
    ///
    /// # Errors
    ///
    /// Returns [`CedarError::Stalled`] when the watchdog trips.
    ///
    /// [`run_prefetch_experiment`]: Self::run_prefetch_experiment
    pub fn run_watched_experiment(
        &mut self,
        n_ces: usize,
        traffic: PrefetchTraffic,
        max_net_cycles: u64,
        watchdog: &mut Watchdog,
    ) -> Result<FabricReport, CedarError> {
        self.run_experiment_inner(n_ces, traffic, max_net_cycles, Some(watchdog))
    }

    /// Enables or disables the idle fast-forward (on by default).
    ///
    /// The skip is an optimization, not a model change: reports are
    /// bit-identical with it on or off. The switch exists so the
    /// equivalence can be *tested* rather than trusted
    /// (`fast_forward_is_invisible` below) and so a bisection of any
    /// future divergence can rule the skip in or out in one run.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Net cycles elided by the idle fast-forward since construction.
    #[must_use]
    pub fn fast_forwarded_cycles(&self) -> u64 {
        self.ff_cycles
    }

    /// Jumps the clocks over a provably dead stretch: when no word is
    /// buffered in either network, no module holds queued, in-service
    /// or blocked-outgoing work and no partially received packet
    /// exists, nothing can happen before
    /// [`FabricExperiment::idle_wake_cycle`]: a source issuing on a CE
    /// boundary it is not gap-blocked for, or a retry timer falling
    /// due. Every cycle before it is a pure clock tick (idle switches
    /// mutate nothing, not even arbitration pointers, and an idle
    /// network or module does nothing under any fault query, since
    /// stuck, slowed, stalled and failed are pure functions of the
    /// cycle), so the simulation lands on the same state serial
    /// stepping would reach — just without burning a loop iteration
    /// per empty cycle. Gap-heavy traffic (`gap_ce_cycles` of
    /// non-overlapped computation between blocks) and the retry
    /// timeouts of a faulted run are where this pays.
    ///
    /// `horizon` caps the jump at the cycle a cycle-by-cycle run's
    /// watchdog would have tripped, so stall reports keep identical
    /// timestamps.
    fn idle_fast_forward(&mut self, exp: &FabricExperiment, horizon: Option<u64>) {
        if !self.forward.is_idle() || !self.reverse.is_idle() {
            return;
        }
        if self
            .modules
            .iter()
            .any(|m| !m.pending.is_empty() || m.outgoing.is_some())
        {
            return;
        }
        if self.partial.iter().any(Option::is_some) {
            return;
        }
        let target = exp.idle_wake_cycle(self.now, horizon);
        // The loop is about to simulate cycle `now + 1`; stop one
        // short so the first cycle anything can happen in runs live.
        if target <= self.now + 1 {
            return;
        }
        let skipped = target - 1 - self.now;
        self.now += skipped;
        self.forward.skip_idle_cycles(skipped);
        self.reverse.skip_idle_cycles(skipped);
        self.ff_cycles += skipped;
    }

    /// Starts a prefetch experiment without running it. The returned
    /// [`FabricExperiment`] plus this fabric hold the complete run
    /// state: drive it with [`step_experiment`](Self::step_experiment)
    /// while [`experiment_running`](Self::experiment_running) and close
    /// with [`finish_experiment`](Self::finish_experiment) —
    /// [`run_prefetch_experiment`](Self::run_prefetch_experiment) is
    /// exactly that loop.
    ///
    /// # Panics
    ///
    /// Panics if `n_ces` exceeds the network port count.
    #[must_use]
    pub fn begin_experiment(
        &mut self,
        n_ces: usize,
        traffic: PrefetchTraffic,
        max_net_cycles: u64,
    ) -> FabricExperiment {
        let ports = self.cfg.net.ports();
        assert!(n_ces <= ports, "n_ces must be <= {ports}");
        let sources: Vec<CeSource> = (0..n_ces).map(|c| CeSource::new(c, traffic)).collect();
        FabricExperiment {
            recovery: self.faults.as_ref().map(|_| RecoveryState::new(n_ces)),
            completed_requests: 0,
            total_expected: sources.iter().map(CeSource::local_request_count).sum(),
            ratio: self.cfg.net.net_cycles_per_ce_cycle,
            max_net_cycles,
            sources,
        }
    }

    /// Whether the experiment still has unresolved requests and cycle
    /// budget left to simulate.
    #[must_use]
    pub fn experiment_running(&self, exp: &FabricExperiment) -> bool {
        exp.resolved_requests() < exp.total_expected && self.now < exp.max_net_cycles
    }

    /// Advances the experiment by one network cycle (or, when the
    /// fabric is provably idle, fast-forwards to the next cycle where
    /// anything can happen) — one iteration of
    /// [`run_prefetch_experiment`](Self::run_prefetch_experiment)'s
    /// loop, verbatim, so stepping externally is bit-identical to the
    /// packaged entry points.
    ///
    /// # Errors
    ///
    /// Returns [`CedarError::Stalled`] when the watchdog trips.
    pub fn step_experiment(
        &mut self,
        exp: &mut FabricExperiment,
        watchdog: Option<&mut Watchdog>,
    ) -> Result<(), CedarError> {
        if self.fast_forward && self.obs.is_none() {
            let horizon = watchdog
                .as_deref()
                .map(|dog| dog.progress_cycle() + dog.budget() + 1);
            self.idle_fast_forward(exp, horizon);
        }
        self.now += 1;
        let ce_boundary = self.now.is_multiple_of(exp.ratio);
        let ce_now = self.now / exp.ratio;

        self.forward.step();
        self.reverse.step();
        self.service_modules();

        exp.completed_requests += self.eject_replies(&mut exp.sources, exp.recovery.as_mut());
        // The fabric consumes exit words itself and never reads
        // the networks' completion logs; clear them each cycle so
        // they stay a few entries long instead of growing by one
        // per packet for the whole run.
        self.forward.clear_delivered();
        self.reverse.clear_delivered();
        if let Some(rec) = exp.recovery.as_mut() {
            self.fire_retries(rec, &mut exp.sources);
        }
        if ce_boundary {
            self.issue_requests(&mut exp.sources, ce_now, exp.recovery.as_mut());
        }
        if let Some(dog) = watchdog {
            let resolved = exp.resolved_requests();
            if self.obs.is_some() {
                self.note_span_to_watchdog(dog);
            }
            if let Err(report) = dog.observe(self.now, resolved) {
                // Balance the trace before aborting so the export
                // of a stalled run still loads.
                self.trace_close_dangling();
                return Err(report.into());
            }
        }
        Ok(())
    }

    /// Closes an experiment and assembles its report.
    #[must_use]
    pub fn finish_experiment(&mut self, exp: FabricExperiment) -> FabricReport {
        self.trace_close_dangling();
        let rec = exp.recovery.unwrap_or_default();
        FabricReport {
            per_ce: exp.sources.into_iter().map(|s| s.records).collect(),
            total_net_cycles: self.now,
            net_cycles_per_ce_cycle: exp.ratio,
            latency_offset_ce: self.cfg.latency_offset_ce,
            expected_requests: exp.total_expected,
            completed_requests: exp.completed_requests,
            retries: rec.retries,
            failed_requests: rec.failed_requests,
            words_dropped: self.forward.words_dropped() + self.reverse.words_dropped(),
            module_discards: self.module_discards,
        }
    }

    /// Drives an experiment until it stops running (or `stop_at` net
    /// cycles is reached), on whichever engine the fabric's
    /// [`EngineKind`] selection and the eligibility rules pick. Both
    /// engines are bit-identical: the specialized path replicates the
    /// generic state machine state-for-state, so a checkpoint taken
    /// after this call does not reveal which engine ran.
    ///
    /// # Errors
    ///
    /// Returns [`CedarError::Stalled`] when the watchdog trips.
    pub fn drive_experiment(
        &mut self,
        exp: &mut FabricExperiment,
        mut watchdog: Option<&mut Watchdog>,
        stop_at: Option<u64>,
    ) -> Result<(), CedarError> {
        if self.engine != EngineKind::Generic {
            match self.specialization_blocker() {
                None => {
                    self.last_run_engine = Some("specialized");
                    self.last_fallback = None;
                    return self.drive_specialized(exp, watchdog, stop_at);
                }
                Some(reason) => self.note_fallback(reason),
            }
        } else {
            self.last_run_engine = Some("generic");
            self.last_fallback = None;
        }
        while self.experiment_running(exp) && stop_at.is_none_or(|c| self.now < c) {
            self.step_experiment(exp, watchdog.as_deref_mut())?;
        }
        Ok(())
    }

    /// Records a fall-back to the generic engine: counter, diagnostic
    /// state, and — when the user explicitly demanded
    /// `CEDAR_ENGINE=specialized` — one log line naming the reason.
    fn note_fallback(&mut self, reason: &'static str) {
        self.last_run_engine = Some("generic");
        self.last_fallback = Some(reason);
        self.metric_add(|ids| ids.engine_fallback, 1);
        if self.engine == EngineKind::Specialized && !self.fallback_logged {
            self.fallback_logged = true;
            eprintln!(
                "cedar-net: CEDAR_ENGINE=specialized fell back to the generic engine: {reason}"
            );
        }
    }

    fn run_experiment_inner(
        &mut self,
        n_ces: usize,
        traffic: PrefetchTraffic,
        max_net_cycles: u64,
        watchdog: Option<&mut Watchdog>,
    ) -> Result<FabricReport, CedarError> {
        let mut exp = self.begin_experiment(n_ces, traffic, max_net_cycles);
        self.drive_experiment(&mut exp, watchdog, None)?;
        Ok(self.finish_experiment(exp))
    }

    /// Serializes this fabric together with a paused experiment into
    /// one checked envelope. Telemetry is deliberately not captured: a
    /// restored fabric comes back with no `Obs` attached — reattach
    /// with [`set_obs`](Self::set_obs); it is a pure overlay and does
    /// not affect simulated state.
    #[must_use]
    pub fn checkpoint_experiment(&self, exp: &FabricExperiment) -> Vec<u8> {
        use cedar_snap::Snapshot;
        let mut w = cedar_snap::SnapWriter::new();
        self.snap(&mut w);
        exp.snap(&mut w);
        cedar_snap::seal(&w.into_bytes())
    }

    /// Restores a fabric + experiment pair serialized by
    /// [`checkpoint_experiment`](Self::checkpoint_experiment). Driving
    /// the restored pair produces a bit-identical continuation of the
    /// interrupted run.
    ///
    /// # Errors
    ///
    /// Returns the [`cedar_snap::SnapError`] describing any envelope
    /// or decoding failure.
    pub fn restore_experiment(
        bytes: &[u8],
    ) -> Result<(Self, FabricExperiment), cedar_snap::SnapError> {
        use cedar_snap::Snapshot;
        let payload = cedar_snap::unseal(bytes)?;
        let mut r = cedar_snap::SnapReader::new(payload);
        let fabric = Self::restore(&mut r)?;
        let exp = FabricExperiment::restore(&mut r)?;
        if r.remaining() != 0 {
            return Err(cedar_snap::SnapError::TrailingBytes);
        }
        if exp.sources.len() > fabric.cfg.net.ports() {
            return Err(cedar_snap::SnapError::Invalid("more sources than ports"));
        }
        let modules = fabric.cfg.mem_modules;
        if let Some(rec) = &exp.recovery {
            if rec
                .flights
                .iter()
                .flatten()
                .any(|f| f.attempts != 0 && f.dest >= modules)
            {
                return Err(cedar_snap::SnapError::Invalid(
                    "in-flight read aimed past the modules",
                ));
            }
        }
        Ok((fabric, exp))
    }

    /// Whether a restored checkpoint belongs to *this* experiment:
    /// same fabric configuration, fault schedule, retry policy, CE
    /// count, traffic pattern and cycle budget. Anything else is a
    /// stale file from a different run and must not be resumed.
    fn checkpoint_matches(
        &self,
        fabric: &RoundTripFabric,
        exp: &FabricExperiment,
        n_ces: usize,
        traffic: PrefetchTraffic,
        max_net_cycles: u64,
    ) -> bool {
        use cedar_snap::Snapshot;
        let faults_match = {
            let mut ours = cedar_snap::SnapWriter::new();
            self.faults.snap(&mut ours);
            self.retry.snap(&mut ours);
            let mut theirs = cedar_snap::SnapWriter::new();
            fabric.faults.snap(&mut theirs);
            fabric.retry.snap(&mut theirs);
            ours.into_bytes() == theirs.into_bytes()
        };
        fabric.cfg == self.cfg
            && faults_match
            && exp.sources.len() == n_ces
            && exp.max_net_cycles == max_net_cycles
            && exp.sources.first().is_none_or(|s| s.traffic == traffic)
    }

    /// Like [`run_watched_experiment`](Self::run_watched_experiment),
    /// but writes an atomic checkpoint file every
    /// `checkpoint_every_net_cycles` simulated cycles and, when
    /// `checkpoint_path` already holds a matching checkpoint, resumes
    /// from it instead of starting over — a killed process loses at
    /// most one checkpoint interval of work. The file is removed once
    /// the run completes; a stale, corrupt or mismatched file is
    /// ignored and overwritten. Attached telemetry does not survive a
    /// resume (see
    /// [`checkpoint_experiment`](Self::checkpoint_experiment)).
    ///
    /// # Errors
    ///
    /// Returns [`CedarError::Stalled`] when the watchdog trips; the
    /// last checkpoint is left on disk in that case.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint_every_net_cycles` is zero or `n_ces`
    /// exceeds the network port count.
    pub fn run_watched_checkpointed(
        &mut self,
        n_ces: usize,
        traffic: PrefetchTraffic,
        max_net_cycles: u64,
        watchdog: &mut Watchdog,
        checkpoint_every_net_cycles: u64,
        checkpoint_path: &std::path::Path,
    ) -> Result<FabricReport, CedarError> {
        assert!(
            checkpoint_every_net_cycles > 0,
            "checkpoint interval must be nonzero"
        );
        let mut exp = match std::fs::read(checkpoint_path)
            .ok()
            .and_then(|bytes| Self::restore_experiment(&bytes).ok())
        {
            Some((fabric, exp))
                if self.checkpoint_matches(&fabric, &exp, n_ces, traffic, max_net_cycles) =>
            {
                *self = fabric;
                exp
            }
            _ => self.begin_experiment(n_ces, traffic, max_net_cycles),
        };
        let mut next_checkpoint = self.now + checkpoint_every_net_cycles;
        while self.experiment_running(&exp) {
            // Drive in checkpoint-interval chunks: both engines exit
            // at the first step that reaches `stop_at`, which is the
            // same cycle the per-step check used to fire on.
            self.drive_experiment(&mut exp, Some(&mut *watchdog), Some(next_checkpoint))?;
            if self.now >= next_checkpoint {
                // Best-effort: a failed write only costs resumability.
                let _ =
                    cedar_snap::write_atomic(checkpoint_path, &self.checkpoint_experiment(&exp));
                next_checkpoint = self.now + checkpoint_every_net_cycles;
            }
        }
        let report = self.finish_experiment(exp);
        let _ = std::fs::remove_file(checkpoint_path);
        Ok(report)
    }

    /// Fires due retry timers ([`RecoveryState::fire_due`]) into the
    /// forward network, then traces and counts what fired.
    fn fire_retries(&mut self, rec: &mut RecoveryState, sources: &mut [CeSource]) {
        let observed = self.obs.is_some();
        let mut fired = Vec::new();
        let forward = &mut self.forward;
        rec.fire_due(
            self.now,
            &self.retry,
            self.faults.as_ref(),
            sources,
            |packet| forward.try_inject(packet),
            |event| {
                if observed {
                    fired.push(event);
                }
            },
        );
        for event in fired {
            match event {
                Fired::Retried { id, attempts } => {
                    self.trace_retry(id, u64::from(attempts));
                    self.metric_add(|ids| ids.retries, 1);
                }
                Fired::Abandoned { id, attempts, .. } => {
                    self.trace_close(id, Some(("abandoned", u64::from(attempts))));
                    self.metric_add(|ids| ids.abandoned, 1);
                }
            }
        }
    }

    /// Releases an abandoned request's window slot and block
    /// accounting so the source's pipeline keeps moving; no record is
    /// made (statistics cover completed requests only).
    fn abandon_request(src: &mut CeSource, id: u64) {
        let local = Self::local_index(PacketId(id), src.port);
        let block = (local / u64::from(src.traffic.block_len)) as usize;
        src.returned_per_block[block] += 1;
        if src.returned_per_block[block] == src.traffic.block_len {
            src.completed_blocks += 1;
        }
        src.outstanding -= 1;
    }

    /// Module side: receive request words from the forward network,
    /// serve one request per `mem_service_net_cycles`, and inject
    /// replies into the reverse network.
    fn service_modules(&mut self) {
        for m in 0..self.modules.len() {
            if let Some(plan) = &self.faults {
                if plan.module_failed(m, self.now) {
                    // Fail-stop: arriving words and any queued work
                    // vanish; retries re-aim at the fallback module.
                    while self.forward.pop_output(m).is_some() {
                        self.module_discards += 1;
                    }
                    let dead = &mut self.modules[m];
                    self.module_discards += dead.pending.len() as u64;
                    dead.pending.clear();
                    if dead.outgoing.take().is_some() {
                        self.module_discards += 1;
                    }
                    self.partial[m] = None;
                    continue;
                }
                if plan.module_stalled(m, self.now) {
                    // Transient stall: the module neither receives nor
                    // serves; its backlog tree-saturates upstream.
                    continue;
                }
            }
            // Receive at most one word per cycle from the forward net,
            // but only while the module's own request buffer has room.
            if self.modules[m].pending.len() < self.cfg.module_buffer_requests {
                if let Some(&(word, _)) = self.forward.peek_output(m) {
                    self.accept_word(m, word);
                    self.forward.pop_output(m);
                }
            }
            // Retry a blocked reply injection.
            if let Some(reply) = self.modules[m].outgoing.take() {
                if !self.reverse.try_inject(reply) {
                    self.modules[m].outgoing = Some(reply);
                    if self.obs.is_some() {
                        self.metric_add(|ids| ids.reply_inject_blocked, 1);
                    }
                    continue; // cannot start new service while blocked
                }
                if self.obs.is_some() {
                    self.trace_transition(reply.id.0, SPAN_MEM_SERVICE, SPAN_RETURN_NET);
                }
            }
            // Start serving the next request when free.
            if self.now >= self.modules[m].busy_until {
                if let Some(request) = self.modules[m].pending.pop_front() {
                    let module = &mut self.modules[m];
                    module.busy_until = self.now + self.cfg.mem_service_net_cycles;
                    module.served += 1;
                    if let Some(reply) = request.reply() {
                        // The reply is ready when service completes; we
                        // inject it then by holding it in `outgoing`
                        // until `busy_until` (handled next iteration
                        // since injection requires the module free).
                        module.outgoing = Some(reply);
                    }
                    if self.obs.is_some() {
                        self.metric_add(|ids| ids.served[m], 1);
                        self.trace_transition(request.id.0, SPAN_MEM_QUEUE, SPAN_MEM_SERVICE);
                    }
                }
            } else if self.obs.is_some() && !self.modules[m].pending.is_empty() {
                // Bank conflict: a request is waiting while the module
                // serves another.
                self.metric_add(|ids| ids.conflict_stall_cycles, 1);
            }
        }
    }

    /// Accumulates words of (possibly multi-word) request packets.
    fn accept_word(&mut self, m: usize, word: Word) {
        let slot = &mut self.partial[m];
        let mut arrived = None;
        match slot {
            None => {
                debug_assert!(word.is_head(), "packet must start with its header");
                if word.is_tail() {
                    self.modules[m].pending.push_back(word.packet);
                    arrived = Some(word.packet.id);
                } else {
                    *slot = Some((word.packet, 1));
                }
            }
            Some((packet, seen)) => {
                debug_assert_eq!(packet.id, word.packet.id, "interleaved request words");
                *seen += 1;
                if word.is_tail() {
                    let packet = *packet;
                    *slot = None;
                    self.modules[m].pending.push_back(packet);
                    arrived = Some(packet.id);
                }
            }
        }
        if self.obs.is_some() {
            if let Some(id) = arrived {
                self.trace_transition(id.0, SPAN_FORWARD_NET, SPAN_MEM_QUEUE);
            }
        }
    }

    /// CE side: absorb every reply word available this cycle into the
    /// prefetch buffer. The buffer accepts words at network rate; the
    /// recorded return time is the *arrival* at the buffer, which is
    /// the signal the hardware monitor tapped ("when each datum
    /// returns to the prefetch buffer via the reverse networks").
    /// Returns the number of requests completed.
    fn eject_replies(
        &mut self,
        sources: &mut [CeSource],
        mut rec: Option<&mut RecoveryState>,
    ) -> u64 {
        let mut completed = 0;
        for src in sources.iter_mut() {
            while let Some((word, arrived)) = self.reverse.pop_output(src.port) {
                debug_assert_eq!(word.packet.kind, PacketKind::Reply);
                if let Some(rec) = rec.as_deref_mut() {
                    // Under faults a reply may duplicate (original and
                    // retry both survive) or arrive after abandonment;
                    // the in-flight table is the dedup authority.
                    if !rec.resolve(word.packet.id.0) {
                        continue;
                    }
                }
                let local = Self::local_index(word.packet.id, src.port);
                let block_len = u64::from(src.traffic.block_len);
                let record = RequestRecord {
                    block: (local / block_len) as u32,
                    index_in_block: (local % block_len) as u32,
                    issue: src.issued_at[local as usize],
                    ret: arrived,
                };
                let block = record.block as usize;
                src.returned_per_block[block] += 1;
                if src.returned_per_block[block] == src.traffic.block_len {
                    src.completed_blocks += 1;
                }
                src.records.push(record);
                src.outstanding -= 1;
                completed += 1;
                if self.obs.is_some() {
                    self.trace_close(word.packet.id.0, None);
                }
            }
        }
        completed
    }

    /// CE side: issue at most one new request per CE per CE cycle,
    /// respecting the outstanding window and inter-block gaps.
    fn issue_requests(
        &mut self,
        sources: &mut [CeSource],
        ce_now: u64,
        mut rec: Option<&mut RecoveryState>,
    ) {
        let n_mod = self.cfg.mem_modules;
        for src in sources.iter_mut() {
            if src.done_issuing
                || src.outstanding >= src.traffic.window
                || ce_now < src.blocked_until_ce
            {
                continue;
            }
            // Starting a new block requires an in-flight slot: the
            // prefetch buffer is invalidated by a new prefetch, so the
            // previous block must drain before the next is armed.
            // While the source waits at a block boundary it pays down
            // its store debt — vector-store instructions execute
            // between the load blocks, overlapped with the drain wait.
            if src.next_index == 0 {
                if src.next_block >= src.completed_blocks + src.traffic.blocks_in_flight {
                    if src.write_debt >= 1.0 {
                        let module =
                            (src.stream_bases[0] + n_mod / 2 + src.writes_issued as usize) % n_mod;
                        let write = Packet::write(
                            src.port,
                            module,
                            ((src.port as u64) << 40) | (1 << 39) | src.writes_issued,
                            1,
                        );
                        if self.forward.try_inject(write) {
                            src.write_debt -= 1.0;
                            src.writes_issued += 1;
                            if self.obs.is_some() {
                                self.metric_add(|ids| ids.writes_issued, 1);
                            }
                        }
                    }
                    continue;
                }
                // Fire: each operand stream's base address lands on a
                // random module, like real operand bases.
                for base in &mut src.stream_bases {
                    *base = src.rng.next_below(n_mod as u64) as usize;
                }
            }
            let local = u64::from(src.next_block) * u64::from(src.traffic.block_len)
                + u64::from(src.next_index);
            let n_streams = src.stream_bases.len();
            let stream = src.next_index as usize % n_streams;
            let module = match src.traffic.pattern {
                AddressPattern::HotSpot { module, fraction } if src.rng.next_bool(fraction) => {
                    module % n_mod
                }
                _ => (src.stream_bases[stream] + src.next_index as usize / n_streams) % n_mod,
            };
            let packet = Packet::new(
                Self::packet_id(src.port, local),
                src.port,
                module,
                1,
                PacketKind::ReadRequest,
            );
            if self.forward.try_inject(packet) {
                debug_assert_eq!(src.issued_at.len() as u64, local);
                src.issued_at.push(self.now);
                if self.obs.is_some() {
                    self.metric_add(|ids| ids.reads_issued, 1);
                    self.trace_issue(packet.id.0);
                }
                if let Some(rec) = rec.as_deref_mut() {
                    rec.register(packet, self.now + self.retry.base_delay_cycles);
                }
                src.outstanding += 1;
                src.write_debt += src.traffic.writes_per_read;
                src.next_index += 1;
                if src.next_index == src.traffic.block_len {
                    src.next_index = 0;
                    src.next_block += 1;
                    src.blocked_until_ce = ce_now + src.traffic.gap_ce_cycles;
                    if src.next_block == src.traffic.blocks {
                        src.done_issuing = true;
                    }
                }
            }
        }
    }

    /// Encodes (port, local request index) into a packet id.
    fn packet_id(port: usize, local: u64) -> PacketId {
        PacketId((port as u64) << 40 | local)
    }

    /// Decodes the local request index from a packet id.
    fn local_index(id: PacketId, port: usize) -> u64 {
        debug_assert_eq!(id.0 >> 40, port as u64, "reply delivered to wrong CE");
        id.0 & ((1 << 40) - 1)
    }
}

/// Splits a read's packet id into (port, local request index).
fn split_id(id: u64) -> (usize, usize) {
    ((id >> 40) as usize, (id & ((1 << 40) - 1)) as usize)
}

/// The outcome of one prefetch experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricReport {
    /// Request records per CE, in completion order.
    pub per_ce: Vec<Vec<RequestRecord>>,
    /// Total simulated network cycles.
    pub total_net_cycles: u64,
    /// Clock ratio used, for unit conversion.
    pub net_cycles_per_ce_cycle: u64,
    /// Fixed CE-side path cost added to latencies.
    pub latency_offset_ce: f64,
    expected_requests: u64,
    completed_requests: u64,
    retries: u64,
    failed_requests: u64,
    words_dropped: u64,
    module_discards: u64,
}

impl FabricReport {
    /// Whether every issued request completed within the cycle budget.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.completed_requests == self.expected_requests
    }

    /// Whether every request was resolved — completed, or abandoned
    /// after exhausting its retries. A degraded run that resolves
    /// everything terminated cleanly even if some requests failed.
    #[must_use]
    pub fn resolved(&self) -> bool {
        self.completed_requests + self.failed_requests == self.expected_requests
    }

    /// Requests re-injected after a timeout. Always zero without an
    /// attached fault schedule.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Requests abandoned after the retry budget ran out.
    #[must_use]
    pub fn failed_requests(&self) -> u64 {
        self.failed_requests
    }

    /// Words lost to injected link faults across both networks.
    #[must_use]
    pub fn words_dropped(&self) -> u64 {
        self.words_dropped
    }

    /// Words and requests destroyed at fail-stopped memory modules.
    #[must_use]
    pub fn module_discards(&self) -> u64 {
        self.module_discards
    }

    /// Mean first-word latency in CE cycles: for the first word of
    /// each block, return time minus issue time, plus the fixed
    /// CE-side offset. This is the paper's "Latency" column.
    #[must_use]
    pub fn mean_first_word_latency_ce(&self) -> f64 {
        let ratio = self.net_cycles_per_ce_cycle as f64;
        let mut n = 0u64;
        let mut sum = 0.0;
        for records in &self.per_ce {
            for r in records {
                if r.index_in_block == 0 {
                    sum += (r.ret - r.issue) as f64 / ratio;
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64 + self.latency_offset_ce
        }
    }

    /// Mean interarrival time in CE cycles between consecutive words
    /// of the same block — the paper's "Interarrival" column.
    #[must_use]
    pub fn mean_interarrival_ce(&self) -> f64 {
        let ratio = self.net_cycles_per_ce_cycle as f64;
        let mut n = 0u64;
        let mut sum = 0.0;
        // Completion order within one CE is return order. A stable sort
        // by block groups each CE's returns into blocks ascending, each
        // block keeping return order; consecutive returns of one block
        // are differenced in that order. One buffer serves every CE.
        let mut rets: Vec<(u32, u64)> = Vec::new();
        for records in &self.per_ce {
            rets.clear();
            rets.extend(records.iter().map(|r| (r.block, r.ret)));
            rets.sort_by_key(|&(block, _)| block);
            for w in rets.windows(2) {
                if w[0].0 == w[1].0 {
                    sum += (w[1].1 - w[0].1) as f64 / ratio;
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// The `q`-quantile of first-word latency in CE cycles (q clamped
    /// to `[0, 1]`), or `None` with no block-first records. Tail
    /// latency is what the paper's histogram hardware exposed beyond
    /// the means Table 2 prints.
    #[must_use]
    pub fn latency_quantile_ce(&self, q: f64) -> Option<f64> {
        let ratio = self.net_cycles_per_ce_cycle as f64;
        let mut lats: Vec<f64> = self
            .per_ce
            .iter()
            .flatten()
            .filter(|r| r.index_in_block == 0)
            .map(|r| (r.ret - r.issue) as f64 / ratio + self.latency_offset_ce)
            .collect();
        if lats.is_empty() {
            return None;
        }
        lats.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let idx = ((q.clamp(0.0, 1.0) * (lats.len() - 1) as f64).round()) as usize;
        Some(lats[idx])
    }

    /// Aggregate delivered-data bandwidth in words per CE cycle.
    #[must_use]
    pub fn words_per_ce_cycle(&self) -> f64 {
        if self.total_net_cycles == 0 {
            return 0.0;
        }
        let words: usize = self.per_ce.iter().map(Vec::len).sum();
        words as f64 / (self.total_net_cycles as f64 / self.net_cycles_per_ce_cycle as f64)
    }

    /// Total requests completed across all CEs.
    #[must_use]
    pub fn request_count(&self) -> u64 {
        self.completed_requests
    }

    /// Mean first-word latency of one CE, in CE cycles — the paper
    /// monitored "all requests of a single processor and compared
    /// repeated experiments for consistency".
    #[must_use]
    pub fn ce_mean_latency_ce(&self, ce: usize) -> Option<f64> {
        let records = self.per_ce.get(ce)?;
        let ratio = self.net_cycles_per_ce_cycle as f64;
        let firsts: Vec<f64> = records
            .iter()
            .filter(|r| r.index_in_block == 0)
            .map(|r| (r.ret - r.issue) as f64 / ratio + self.latency_offset_ce)
            .collect();
        if firsts.is_empty() {
            None
        } else {
            Some(firsts.iter().sum::<f64>() / firsts.len() as f64)
        }
    }
}

cedar_snap::snapshot_struct!(FabricConfig {
    net,
    mem_service_net_cycles,
    mem_modules,
    latency_offset_ce,
    module_buffer_requests,
});
cedar_snap::snapshot_struct!(PrefetchTraffic {
    block_len,
    blocks,
    window,
    gap_ce_cycles,
    blocks_in_flight,
    writes_per_read,
    streams,
    pattern,
});
cedar_snap::snapshot_struct!(RequestRecord {
    block,
    index_in_block,
    issue,
    ret,
});
cedar_snap::snapshot_struct!(MemModule {
    pending,
    busy_until,
    outgoing,
    served,
});
cedar_snap::snapshot_struct!(CeSource {
    port,
    traffic,
    next_block,
    next_index,
    outstanding,
    blocked_until_ce,
    records,
    issued_at,
    returned_per_block,
    completed_blocks,
    stream_bases,
    write_debt,
    writes_issued,
    rng,
    done_issuing,
});
cedar_snap::snapshot_struct!(InFlight { packet, attempts });

// Written as the derived layout would be, field by field; restoring the
// recovery state needs the sources restored before it.
impl cedar_snap::Snapshot for FabricExperiment {
    fn snap(&self, w: &mut cedar_snap::SnapWriter) {
        self.sources.snap(w);
        match &self.recovery {
            None => w.put_u8(0),
            Some(rec) => {
                w.put_u8(1);
                rec.snap(w);
            }
        }
        self.completed_requests.snap(w);
        self.total_expected.snap(w);
        self.ratio.snap(w);
        self.max_net_cycles.snap(w);
    }
    fn restore(r: &mut cedar_snap::SnapReader<'_>) -> Result<Self, cedar_snap::SnapError> {
        use cedar_snap::Snapshot;
        let sources: Vec<CeSource> = Snapshot::restore(r)?;
        if sources.iter().enumerate().any(|(i, s)| s.port != i) {
            return Err(cedar_snap::SnapError::Invalid("source port out of order"));
        }
        let recovery = match r.get_u8()? {
            0 => None,
            1 => Some(RecoveryState::restore(r, &sources)?),
            _ => return Err(cedar_snap::SnapError::Invalid("Option tag out of range")),
        };
        Ok(FabricExperiment {
            sources,
            recovery,
            completed_requests: Snapshot::restore(r)?,
            total_expected: Snapshot::restore(r)?,
            ratio: Snapshot::restore(r)?,
            max_net_cycles: Snapshot::restore(r)?,
        })
    }
}
cedar_snap::snapshot_struct!(FabricReport {
    per_ce,
    total_net_cycles,
    net_cycles_per_ce_cycle,
    latency_offset_ce,
    expected_requests,
    completed_requests,
    retries,
    failed_requests,
    words_dropped,
    module_discards,
});

impl cedar_snap::Snapshot for AddressPattern {
    fn snap(&self, w: &mut cedar_snap::SnapWriter) {
        match self {
            AddressPattern::Strided => w.put_u8(0),
            AddressPattern::HotSpot { module, fraction } => {
                w.put_u8(1);
                w.put_usize(*module);
                w.put_f64(*fraction);
            }
        }
    }
    fn restore(r: &mut cedar_snap::SnapReader<'_>) -> Result<Self, cedar_snap::SnapError> {
        match r.get_u8()? {
            0 => Ok(AddressPattern::Strided),
            1 => Ok(AddressPattern::HotSpot {
                module: r.get_usize()?,
                fraction: r.get_f64()?,
            }),
            _ => Err(cedar_snap::SnapError::Invalid("address pattern tag")),
        }
    }
}

// Checkpoints keep the layout of an ordered map of in-flight reads and a
// sorted timer list: the in-flight reads as a length and then
// `(id, InFlight)` pairs in ascending id, the timers ascending. `(due,
// id)` is a total order, so restoring every timer into the heap keeps
// the firing order exactly.
impl RecoveryState {
    /// The in-flight reads in ascending id, as checkpoints record them.
    fn in_flight(&self) -> impl Iterator<Item = (u64, InFlight)> + '_ {
        self.flights.iter().enumerate().flat_map(|(port, flights)| {
            let live = flights.iter().enumerate().filter(|(_, f)| f.attempts != 0);
            live.map(move |(local, f)| {
                let id = RoundTripFabric::packet_id(port, local as u64);
                let packet = Packet::new(id, port, f.dest, 1, PacketKind::ReadRequest);
                let attempts = f.attempts;
                (id.0, InFlight { packet, attempts })
            })
        })
    }

    fn snap(&self, w: &mut cedar_snap::SnapWriter) {
        use cedar_snap::Snapshot;
        self.live.snap(w);
        for read in self.in_flight() {
            read.snap(w);
        }
        self.timers.sorted().snap(w);
        self.retries.snap(w);
        self.failed_requests.snap(w);
    }

    /// Restores the state [`snap`](Self::snap) wrote for `sources`,
    /// rejecting any read or timer the sources never issued. Each
    /// source's table is sized by its issued reads, which the
    /// checkpoint holds one by one, never by a decoded count.
    fn restore(
        r: &mut cedar_snap::SnapReader<'_>,
        sources: &[CeSource],
    ) -> Result<Self, cedar_snap::SnapError> {
        use cedar_snap::{SnapError, Snapshot};
        let issued: Vec<usize> = sources
            .iter()
            .map(|s| (s.issued_at.len() as u64).min(s.local_request_count()) as usize)
            .collect();
        let mut rec = RecoveryState {
            flights: issued.iter().map(|&n| vec![Flight::default(); n]).collect(),
            ..RecoveryState::default()
        };
        let in_range = |id: u64| {
            let (port, local) = split_id(id);
            issued.get(port).is_some_and(|&n| local < n)
        };
        let reads: Vec<(u64, InFlight)> = Snapshot::restore(r)?;
        let mut last = None;
        for (id, f) in reads {
            if !in_range(id) {
                return Err(SnapError::Invalid("in-flight read never issued"));
            }
            if last.is_some_and(|l| l >= id) {
                return Err(SnapError::Invalid("in-flight reads out of order"));
            }
            last = Some(id);
            let (port, local) = split_id(id);
            let read = Packet::new(
                PacketId(id),
                port,
                f.packet.dest,
                1,
                PacketKind::ReadRequest,
            );
            if f.packet != read || f.attempts == 0 {
                return Err(SnapError::Invalid("in-flight read disagrees with its id"));
            }
            rec.flights[port][local] = Flight {
                attempts: f.attempts,
                dest: read.dest,
            };
            rec.live += 1;
        }
        let timers: Vec<(u64, u64)> = Snapshot::restore(r)?;
        if !timers.iter().all(|&(_, id)| in_range(id)) {
            return Err(SnapError::Invalid("retry timer for a read never issued"));
        }
        rec.timers.heap = timers.into_iter().map(Reverse).collect();
        rec.retries = Snapshot::restore(r)?;
        rec.failed_requests = Snapshot::restore(r)?;
        Ok(rec)
    }
}

// Telemetry is a pure overlay and deliberately not captured: a
// restored fabric has no `Obs` attached (see `set_obs`). Everything
// that feeds the simulation — including the fault and retry schedules
// — round-trips.
impl cedar_snap::Snapshot for RoundTripFabric {
    fn snap(&self, w: &mut cedar_snap::SnapWriter) {
        self.cfg.snap(w);
        self.forward.snap(w);
        self.reverse.snap(w);
        self.modules.snap(w);
        self.partial.snap(w);
        self.now.snap(w);
        self.faults.snap(w);
        self.retry.snap(w);
        self.module_discards.snap(w);
        self.fast_forward.snap(w);
        self.ff_cycles.snap(w);
    }
    fn restore(r: &mut cedar_snap::SnapReader<'_>) -> Result<Self, cedar_snap::SnapError> {
        use cedar_snap::Snapshot;
        Ok(RoundTripFabric {
            cfg: Snapshot::restore(r)?,
            forward: Snapshot::restore(r)?,
            reverse: Snapshot::restore(r)?,
            modules: Snapshot::restore(r)?,
            partial: Snapshot::restore(r)?,
            now: Snapshot::restore(r)?,
            faults: Snapshot::restore(r)?,
            retry: Snapshot::restore(r)?,
            module_discards: Snapshot::restore(r)?,
            fast_forward: Snapshot::restore(r)?,
            ff_cycles: Snapshot::restore(r)?,
            obs: None,
            // Engine selection is not simulated state (engines are
            // bit-identical); a restored fabric re-reads the
            // environment, like a fresh one.
            engine: EngineKind::from_env(),
            last_run_engine: None,
            last_fallback: None,
            fallback_logged: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_traffic() -> PrefetchTraffic {
        PrefetchTraffic::compiler_default(4)
    }

    /// The load-bearing property of the idle fast-forward: skipping
    /// provably dead cycles never changes a delivered packet's issue
    /// or return timestamp, nor any other report field. Gap-heavy
    /// traffic idles the whole fabric between blocks, which is
    /// exactly when the skip engages.
    #[test]
    fn fast_forward_is_invisible() {
        let gapped = PrefetchTraffic {
            gap_ce_cycles: 64,
            ..small_traffic()
        };
        let mut on = RoundTripFabric::new(FabricConfig::cedar());
        let fast = on.run_prefetch_experiment(4, gapped, 1_000_000);
        assert!(
            on.fast_forwarded_cycles() > 0,
            "the skip never engaged; the test is vacuous"
        );
        let mut off = RoundTripFabric::new(FabricConfig::cedar());
        off.set_fast_forward(false);
        let slow = off.run_prefetch_experiment(4, gapped, 1_000_000);
        assert_eq!(off.fast_forwarded_cycles(), 0);
        assert_eq!(fast, slow, "fast-forward changed an observable");
    }

    /// Drives an experiment on 4 CEs and returns its outcome (the
    /// report, or the watchdog's diagnostic) plus the cycles skipped
    /// while a request awaited recovery. With the skip on, each drive
    /// call runs one loop iteration, so every skip is attributed.
    fn drive_stepwise(
        fabric: &mut RoundTripFabric,
        traffic: PrefetchTraffic,
        watchdog_budget: Option<u64>,
    ) -> (Result<FabricReport, String>, u64) {
        let mut dog = watchdog_budget.map(|budget| Watchdog::new(budget, "stepwise run"));
        let mut exp = fabric.begin_experiment(4, traffic, 64_000_000);
        let mut recovery_skips = 0;
        while fabric.experiment_running(&exp) {
            let in_flight = exp.retry_in_flight();
            let before = fabric.fast_forwarded_cycles();
            let stop = fabric.fast_forward.then(|| fabric.now() + 1);
            if let Err(err) = fabric.drive_experiment(&mut exp, dog.as_mut(), stop) {
                return (Err(format!("{err:?}")), recovery_skips);
            }
            if in_flight {
                recovery_skips += fabric.fast_forwarded_cycles() - before;
            }
        }
        (Ok(fabric.finish_experiment(exp)), recovery_skips)
    }

    /// A fabric with `cfg`'s fault plan and `retry` on `engine`.
    fn faulted(
        cfg: &cedar_faults::FaultConfig,
        retry: RetryPolicy,
        engine: EngineKind,
        fast_forward: bool,
    ) -> RoundTripFabric {
        let plan = FaultPlan::generate(cfg, &cedar_faults::MachineShape::cedar())
            .expect("valid fault config");
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        fabric.attach_faults(plan, retry);
        fabric.set_engine(engine);
        fabric.set_fast_forward(fast_forward);
        fabric
    }

    /// Same invariant on a degraded machine, on both engines: the skip
    /// runs while requests await their retry timers, and still shifts
    /// no retry or abandonment — including on a machine that loses
    /// every request.
    #[test]
    fn fast_forward_is_invisible_under_faults() {
        use cedar_faults::FaultConfig;

        let gapped = PrefetchTraffic {
            gap_ce_cycles: 64,
            ..small_traffic()
        };
        let hopeless = RetryPolicy {
            base_delay_cycles: 64,
            max_retries: 2,
            max_delay_cycles: 256,
        };
        for (cfg, retry) in [
            (FaultConfig::degraded(0xCEDA, 0.02), RetryPolicy::fabric()),
            (FaultConfig::link_noise(3, 1.0), hopeless),
        ] {
            let mut reports = Vec::new();
            for engine in [EngineKind::Generic, EngineKind::Specialized] {
                for fast_forward in [true, false] {
                    let mut fabric = faulted(&cfg, retry, engine, fast_forward);
                    let (report, recovery_skips) = drive_stepwise(&mut fabric, gapped, None);
                    if fast_forward {
                        assert!(recovery_skips > 0, "{engine:?}: no skip during recovery");
                    } else {
                        assert_eq!(fabric.fast_forwarded_cycles(), 0);
                    }
                    reports.push(report.expect("no watchdog attached"));
                }
            }
            assert!(reports[0].retries() > 0, "no retries; the test is vacuous");
            if cfg.link_drop_prob == 1.0 {
                assert_eq!(reports[0].failed_requests(), 4 * 4 * 32, "all abandoned");
            }
            for report in &reports[1..] {
                assert_eq!(
                    *report, reports[0],
                    "fast-forward changed a degraded observable"
                );
            }
        }
    }

    /// A watchdog budget shorter than the 4096-cycle retry delay trips
    /// while a dropped request waits for its timer. The skip must stop
    /// at the trip cycle, so the `Stalled` report is identical with the
    /// skip on or off, on either engine.
    #[test]
    fn fast_forward_keeps_watchdog_stalls_under_faults() {
        let cfg = cedar_faults::FaultConfig::link_noise(0xBAD, 0.05);
        let mut stalls = Vec::new();
        for engine in [EngineKind::Generic, EngineKind::Specialized] {
            for fast_forward in [true, false] {
                let mut fabric = faulted(&cfg, RetryPolicy::fabric(), engine, fast_forward);
                let (outcome, recovery_skips) =
                    drive_stepwise(&mut fabric, small_traffic(), Some(1_000));
                assert_eq!(recovery_skips > 0, fast_forward, "{engine:?}");
                let stall = outcome.expect_err("a 1000-cycle watchdog trips first");
                assert!(stall.starts_with("Stalled"), "{stall}");
                stalls.push(stall);
            }
        }
        for stall in &stalls[1..] {
            assert_eq!(*stall, stalls[0]);
        }
    }

    /// Stepping an experiment manually is the same loop the packaged
    /// entry point runs; the reports must be identical.
    #[test]
    fn stepwise_run_matches_packaged_entry_point() {
        let mut packaged = RoundTripFabric::new(FabricConfig::cedar());
        let expected = packaged.run_prefetch_experiment(4, small_traffic(), 1_000_000);

        let mut stepped = RoundTripFabric::new(FabricConfig::cedar());
        let mut exp = stepped.begin_experiment(4, small_traffic(), 1_000_000);
        while stepped.experiment_running(&exp) {
            stepped.step_experiment(&mut exp, None).unwrap();
        }
        assert_eq!(stepped.finish_experiment(exp), expected);
    }

    /// The tentpole guarantee on a healthy machine: serialize
    /// mid-flight, restore in a "fresh process" (a new fabric value),
    /// continue — and land on the exact report an uninterrupted run
    /// produces.
    #[test]
    fn checkpoint_mid_run_resumes_bit_identically() {
        let mut straight = RoundTripFabric::new(FabricConfig::cedar());
        let expected = straight.run_prefetch_experiment(4, small_traffic(), 1_000_000);

        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        let mut exp = fabric.begin_experiment(4, small_traffic(), 1_000_000);
        for _ in 0..137 {
            assert!(fabric.experiment_running(&exp), "stopped before checkpoint");
            fabric.step_experiment(&mut exp, None).unwrap();
        }
        let bytes = fabric.checkpoint_experiment(&exp);
        drop((fabric, exp));

        let (mut resumed, mut exp) = RoundTripFabric::restore_experiment(&bytes).unwrap();
        while resumed.experiment_running(&exp) {
            resumed.step_experiment(&mut exp, None).unwrap();
        }
        assert_eq!(resumed.finish_experiment(exp), expected);
    }

    /// The same guarantee mid-recovery on a degraded machine: the
    /// checkpoint is taken while timed-out requests await retries, so
    /// the in-flight table, the timer queue and the fault-plan decisions
    /// all have to survive the round trip for the reports to agree.
    #[test]
    fn checkpoint_mid_retry_under_faults_resumes_identically() {
        use cedar_faults::{FaultConfig, MachineShape};

        let make = || {
            let plan =
                FaultPlan::generate(&FaultConfig::degraded(0xCEDA, 0.05), &MachineShape::cedar())
                    .expect("valid preset");
            let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
            fabric.attach_faults(plan, RetryPolicy::fabric());
            fabric
        };
        let mut straight = make();
        let mut dog = Watchdog::new(4_000_000, "straight degraded run");
        let expected = straight
            .run_watched_experiment(8, small_traffic(), 64_000_000, &mut dog)
            .expect("run completes");
        assert!(expected.retries() > 0, "no retries; the test is vacuous");

        let mut fabric = make();
        let mut exp = fabric.begin_experiment(8, small_traffic(), 64_000_000);
        // Step until the recovery machinery is mid-flight, then a bit
        // further so retry timers are armed at assorted depths.
        while !exp.retry_in_flight() {
            fabric.step_experiment(&mut exp, None).unwrap();
        }
        for _ in 0..50 {
            fabric.step_experiment(&mut exp, None).unwrap();
        }
        assert!(exp.retry_in_flight(), "checkpoint must land mid-recovery");
        let bytes = fabric.checkpoint_experiment(&exp);
        drop((fabric, exp));

        let (mut resumed, mut exp) = RoundTripFabric::restore_experiment(&bytes).unwrap();
        let mut dog = Watchdog::new(4_000_000, "resumed degraded run");
        while resumed.experiment_running(&exp) {
            resumed.step_experiment(&mut exp, Some(&mut dog)).unwrap();
        }
        assert_eq!(resumed.finish_experiment(exp), expected);
    }

    /// A degraded run with a short retry budget: 16 CEs of RK traffic,
    /// 5% link drops, retries after 256 cycles, abandoned after 2.
    fn harsh_degraded(kind: EngineKind) -> (RoundTripFabric, FabricExperiment) {
        use cedar_faults::{FaultConfig, MachineShape};
        let plan =
            FaultPlan::generate(&FaultConfig::degraded(0xCEDA, 0.05), &MachineShape::cedar())
                .expect("valid preset");
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        fabric.set_engine(kind);
        let retry = RetryPolicy {
            base_delay_cycles: 256,
            max_retries: 2,
            max_delay_cycles: 1024,
        };
        fabric.attach_faults(plan, retry);
        let exp = fabric.begin_experiment(16, PrefetchTraffic::rk_aggressive(2), 1_000_000);
        (fabric, exp)
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Pins the checkpoint bytes of a degraded run, on both engines,
    /// mid-burst, mid-recovery (backoff timers at depth 2, stale timers
    /// queued) and after abandonments. The constants were taken before
    /// the recovery state moved from an ordered map and one heap to a
    /// dense table and a FIFO-plus-heap queue; both engines share that
    /// state, so only a pin like this sees its format drift.
    #[test]
    fn degraded_checkpoint_bytes_are_pinned() {
        let pins = [
            (200, 0x1992_a9f6_9280_cd3d),
            (1_100, 0x04ab_4c36_3379_70b3),
            (2_000, 0x4a00_7340_fa70_44c2),
        ];
        for kind in [EngineKind::Generic, EngineKind::Specialized] {
            let (mut fabric, mut exp) = harsh_degraded(kind);
            for (cycle, pin) in pins {
                fabric
                    .drive_experiment(&mut exp, None, Some(cycle))
                    .unwrap();
                assert_eq!(fabric.now(), cycle);
                let rec = exp.recovery.as_ref().unwrap();
                let flights = || rec.flights.iter().flatten();
                let stale = rec
                    .timers
                    .sorted()
                    .iter()
                    .filter(|&&(_, id)| {
                        let (port, local) = split_id(id);
                        rec.flights[port].get(local).is_none_or(|f| f.attempts == 0)
                    })
                    .count();
                match cycle {
                    200 => assert_eq!(rec.retries, 0, "mid-burst, before any timeout"),
                    1_100 => assert!(flights().any(|f| f.attempts >= 3) && stale > 0),
                    _ => assert!(rec.failed_requests > 0),
                }
                let bytes = fabric.checkpoint_experiment(&exp);
                assert_eq!(fnv1a(&bytes), pin, "{kind:?} checkpoint at cycle {cycle}");
            }
        }
    }

    /// The timer queue pops exactly as one min-heap of `(due, id)`
    /// would, over random interleavings of in-order and out-of-order
    /// first arms, backoff arms and next-cycle re-arms.
    #[test]
    fn timer_queue_pops_in_heap_order() {
        let mut rng = SplitMix64::new(0x7173);
        for _ in 0..40 {
            let mut queue = TimerQueue::default();
            let mut heap = BinaryHeap::new();
            let mut now = 0;
            for n in 0..1_500 {
                now += rng.next_below(3);
                let id = rng.next_below(16) << 40 | n;
                let (first, timer) = match rng.next_below(5) {
                    0 | 1 => (true, (now + 64, id)),
                    2 => (true, (now + rng.next_below(64), id)),
                    3 => (false, (now + (64 << rng.next_below(4)), id)),
                    _ => (false, (now + 1, id)),
                };
                if first {
                    queue.arm_first(timer);
                } else {
                    queue.arm(timer);
                }
                heap.push(Reverse(timer));
                while queue.peek().is_some_and(|(due, _)| due <= now) {
                    assert_eq!(queue.pop(), heap.pop().map(|Reverse(t)| t));
                }
                assert_eq!(queue.peek(), heap.peek().map(|&Reverse(t)| t));
            }
            let mut all: Vec<(u64, u64)> = heap.iter().map(|&Reverse(t)| t).collect();
            all.sort_unstable();
            assert_eq!(queue.sorted(), all);
            while let Some(t) = heap.pop() {
                assert_eq!(queue.pop(), Some(t.0));
            }
            assert_eq!(queue.pop(), None);
        }
    }

    /// A sealed checkpoint of `fabric` and `exp` whose recovery state
    /// holds `reads` and `timers` as given, whatever they say.
    fn forged_checkpoint(
        fabric: &RoundTripFabric,
        exp: &FabricExperiment,
        reads: &[(u64, InFlight)],
        timers: &[(u64, u64)],
    ) -> Vec<u8> {
        use cedar_snap::Snapshot;
        let rec = exp.recovery.as_ref().unwrap();
        let mut w = cedar_snap::SnapWriter::new();
        fabric.snap(&mut w);
        exp.sources.snap(&mut w);
        w.put_u8(1);
        reads.to_vec().snap(&mut w);
        timers.to_vec().snap(&mut w);
        rec.retries.snap(&mut w);
        rec.failed_requests.snap(&mut w);
        exp.completed_requests.snap(&mut w);
        exp.total_expected.snap(&mut w);
        exp.ratio.snap(&mut w);
        exp.max_net_cycles.snap(&mut w);
        cedar_snap::seal(&w.into_bytes())
    }

    /// Restore rejects, with a typed error, recovery state that names a
    /// read the experiment never issued or that disagrees with its id:
    /// sized or indexed by such a read, the in-flight table would
    /// panic at the first timer.
    #[test]
    fn restore_rejects_impossible_recovery_state() {
        let (mut fabric, mut exp) = harsh_degraded(EngineKind::Auto);
        fabric
            .drive_experiment(&mut exp, None, Some(1_100))
            .unwrap();
        let rec = exp.recovery.as_ref().unwrap();
        let reads: Vec<(u64, InFlight)> = rec.in_flight().collect();
        let timers = rec.timers.sorted();
        // The forger writes the real format: unforged, it is the checkpoint.
        assert_eq!(
            forged_checkpoint(&fabric, &exp, &reads, &timers),
            fabric.checkpoint_experiment(&exp)
        );

        let count = exp.sources[3].local_request_count();
        let read = |port: usize, local: u64| {
            let id = RoundTripFabric::packet_id(port, local);
            let packet = Packet::new(id, port, 0, 1, PacketKind::ReadRequest);
            (
                id.0,
                InFlight {
                    packet,
                    attempts: 1,
                },
            )
        };
        let rejected = |reads: &[(u64, InFlight)], timers: &[(u64, u64)]| {
            let bytes = forged_checkpoint(&fabric, &exp, reads, timers);
            matches!(
                RoundTripFabric::restore_experiment(&bytes),
                Err(cedar_snap::SnapError::Invalid(_))
            )
        };
        let (id, good) = reads[0];
        let forge = |edit: &dyn Fn(&mut InFlight)| {
            let mut f = good;
            edit(&mut f);
            vec![(id, f)]
        };
        let modules = fabric.config().mem_modules;
        let bad_reads = [
            ("read port past the sources", vec![read(999, 0)]),
            ("read past the request count", vec![read(3, count)]),
            (
                "source disagrees with the id",
                forge(&|f| f.packet.src ^= 1),
            ),
            ("packet id disagrees", forge(&|f| f.packet.id.0 += 1)),
            ("multi-word read", forge(&|f| f.packet.words = 2)),
            ("not a read", forge(&|f| f.packet.kind = PacketKind::Write)),
            ("zero attempts", forge(&|f| f.attempts = 0)),
            ("dest past the modules", forge(&|f| f.packet.dest = modules)),
            ("reads out of order", vec![reads[1], reads[0]]),
            ("duplicate read", vec![reads[0], reads[0]]),
        ];
        for (what, bad) in bad_reads {
            assert!(rejected(&bad, &timers), "{what}: restored");
        }
        let bad_timers = [
            ("timer port past the sources", (1_200, 999 << 40)),
            ("timer past the request count", (1_200, 3 << 40 | count)),
        ];
        for (what, bad) in bad_timers {
            let mut all = timers.clone();
            all.push(bad);
            assert!(rejected(&reads, &all), "{what}: restored");
        }
    }

    /// `run_watched_checkpointed` picks an interrupted run back up
    /// from its checkpoint file, finishes with the uninterrupted
    /// run's exact report, and cleans the file up.
    #[test]
    fn run_watched_checkpointed_resumes_from_kill_point() {
        let path =
            std::env::temp_dir().join(format!("cedar-fabric-ckpt-{}.snap", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut straight = RoundTripFabric::new(FabricConfig::cedar());
        let expected = straight.run_prefetch_experiment(4, small_traffic(), 1_000_000);

        // Simulate a killed run: step partway, write the checkpoint,
        // drop everything.
        let mut killed = RoundTripFabric::new(FabricConfig::cedar());
        let mut exp = killed.begin_experiment(4, small_traffic(), 1_000_000);
        for _ in 0..200 {
            killed.step_experiment(&mut exp, None).unwrap();
        }
        cedar_snap::write_atomic(&path, &killed.checkpoint_experiment(&exp)).unwrap();
        drop((killed, exp));

        let mut resumed = RoundTripFabric::new(FabricConfig::cedar());
        let mut dog = Watchdog::new(4_000_000, "checkpointed run");
        let report = resumed
            .run_watched_checkpointed(4, small_traffic(), 1_000_000, &mut dog, 500, &path)
            .expect("run completes");
        assert!(
            resumed.now > 200,
            "resume must continue, not restart, the clock"
        );
        assert_eq!(report, expected);
        assert!(
            !path.exists(),
            "checkpoint file must be removed on completion"
        );
    }

    /// A checkpoint from a *different* experiment (other traffic
    /// pattern) must be ignored, not resumed into wrong results.
    #[test]
    fn mismatched_checkpoint_is_ignored() {
        let path =
            std::env::temp_dir().join(format!("cedar-fabric-stale-{}.snap", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut other = RoundTripFabric::new(FabricConfig::cedar());
        let mut exp = other.begin_experiment(2, PrefetchTraffic::rk_aggressive(2), 1_000_000);
        for _ in 0..100 {
            other.step_experiment(&mut exp, None).unwrap();
        }
        cedar_snap::write_atomic(&path, &other.checkpoint_experiment(&exp)).unwrap();

        let mut straight = RoundTripFabric::new(FabricConfig::cedar());
        let expected = straight.run_prefetch_experiment(4, small_traffic(), 1_000_000);

        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        let mut dog = Watchdog::new(4_000_000, "stale checkpoint run");
        let report = fabric
            .run_watched_checkpointed(4, small_traffic(), 1_000_000, &mut dog, 500, &path)
            .expect("run completes");
        assert_eq!(report, expected, "stale checkpoint leaked into the run");
        assert!(!path.exists());
    }

    /// Prints the contention profile used to calibrate against the
    /// paper's Table 2. Run with
    /// `cargo test -p cedar-net -- --ignored --nocapture profile`.
    #[test]
    #[ignore = "diagnostic printout, not an assertion"]
    fn print_contention_profile() {
        for (name, make) in [
            (
                "TM",
                PrefetchTraffic::tridiagonal_matvec as fn(u32) -> PrefetchTraffic,
            ),
            ("CG", PrefetchTraffic::conjugate_gradient),
            ("VF", PrefetchTraffic::vector_load),
            ("RK", PrefetchTraffic::rk_aggressive),
        ] {
            print!("  {name}:");
            for n in [8usize, 16, 32] {
                let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
                let report = fabric.run_prefetch_experiment(n, make(8), 16_000_000);
                print!(
                    "  n={n:2} lat={:5.1} int={:4.2}",
                    report.mean_first_word_latency_ce(),
                    report.mean_interarrival_ce()
                );
            }
            println!();
        }
    }

    #[test]
    fn single_ce_unloaded_latency_near_minimum() {
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        let report = fabric.run_prefetch_experiment(1, small_traffic(), 100_000);
        assert!(report.completed());
        let lat = report.mean_first_word_latency_ce();
        // Paper: minimal latency 8 cycles; an unloaded machine should
        // sit within a couple of cycles of it.
        assert!(
            (8.0..11.0).contains(&lat),
            "unloaded latency {lat} outside [8, 11)"
        );
    }

    #[test]
    fn single_ce_interarrival_near_one_cycle() {
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        let report = fabric.run_prefetch_experiment(1, small_traffic(), 100_000);
        let inter = report.mean_interarrival_ce();
        // Paper: minimal interarrival 1 cycle; observed 1.1–1.2 at 8 CEs.
        assert!(
            (0.9..1.5).contains(&inter),
            "unloaded interarrival {inter} outside [0.9, 1.5)"
        );
    }

    #[test]
    fn latency_grows_with_ce_count() {
        let cfg = FabricConfig::cedar();
        let lat_at = |n: usize| {
            let mut fabric = RoundTripFabric::new(cfg.clone());
            let report = fabric.run_prefetch_experiment(n, small_traffic(), 2_000_000);
            assert!(report.completed(), "experiment with {n} CEs did not finish");
            report.mean_first_word_latency_ce()
        };
        let l8 = lat_at(8);
        let l32 = lat_at(32);
        assert!(
            l32 > l8 + 1.0,
            "contention should raise latency: 8 CEs {l8}, 32 CEs {l32}"
        );
    }

    #[test]
    fn interarrival_grows_with_ce_count() {
        let cfg = FabricConfig::cedar();
        let inter_at = |n: usize| {
            let mut fabric = RoundTripFabric::new(cfg.clone());
            let report = fabric.run_prefetch_experiment(n, small_traffic(), 2_000_000);
            report.mean_interarrival_ce()
        };
        let i8 = inter_at(8);
        let i32v = inter_at(32);
        assert!(
            i32v > i8,
            "contention should raise interarrival: 8 CEs {i8}, 32 CEs {i32v}"
        );
    }

    #[test]
    fn window_of_two_limits_pipelining() {
        // The no-prefetch case: only two outstanding requests per CE.
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        let narrow = PrefetchTraffic {
            window: 2,
            ..small_traffic()
        };
        let r_narrow = fabric.run_prefetch_experiment(1, narrow, 1_000_000);
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        let r_wide = fabric.run_prefetch_experiment(1, small_traffic(), 1_000_000);
        assert!(
            r_narrow.words_per_ce_cycle() < r_wide.words_per_ce_cycle() / 1.5,
            "window 2 ({} w/c) should be much slower than window 512 ({} w/c)",
            r_narrow.words_per_ce_cycle(),
            r_wide.words_per_ce_cycle()
        );
    }

    #[test]
    fn all_requests_complete_and_are_distinct() {
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        let report = fabric.run_prefetch_experiment(4, small_traffic(), 1_000_000);
        assert!(report.completed());
        for (ce, records) in report.per_ce.iter().enumerate() {
            assert_eq!(records.len(), 32 * 4, "CE {ce} record count");
            let mut keys: Vec<(u32, u32)> = records
                .iter()
                .map(|r| (r.block, r.index_in_block))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), 32 * 4, "CE {ce} has duplicate records");
        }
    }

    #[test]
    fn returns_never_precede_issues() {
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        let report = fabric.run_prefetch_experiment(8, small_traffic(), 2_000_000);
        for records in &report.per_ce {
            for r in records {
                assert!(r.ret > r.issue, "request returned before issue: {r:?}");
            }
        }
    }

    #[test]
    fn gap_cycles_slow_the_stream_down() {
        let gapped = PrefetchTraffic {
            gap_ce_cycles: 64,
            ..small_traffic()
        };
        let mut f1 = RoundTripFabric::new(FabricConfig::cedar());
        let r1 = f1.run_prefetch_experiment(1, gapped, 1_000_000);
        let mut f2 = RoundTripFabric::new(FabricConfig::cedar());
        let r2 = f2.run_prefetch_experiment(1, small_traffic(), 1_000_000);
        assert!(r1.total_net_cycles > r2.total_net_cycles + 3 * 64);
    }

    #[test]
    fn deeper_queues_reduce_contention_latency() {
        // The [Turn93] ablation: with 32 CEs active, deeper crossbar
        // queues should not make latency worse, and typically help.
        let shallow = FabricConfig::cedar();
        let mut deep = FabricConfig::cedar();
        deep.net = NetworkConfig::cedar_with_queue_words(8);
        let lat = |cfg: FabricConfig| {
            let mut fabric = RoundTripFabric::new(cfg);
            fabric
                .run_prefetch_experiment(32, small_traffic(), 4_000_000)
                .mean_first_word_latency_ce()
        };
        let l_shallow = lat(shallow);
        let l_deep = lat(deep);
        assert!(
            l_deep <= l_shallow + 0.5,
            "deep queues {l_deep} should not exceed shallow {l_shallow}"
        );
    }

    /// The paper: "we monitored all requests of a single processor and
    /// compared repeated experiments for consistency. The results of
    /// all experiments were within 10% of each other." Our analogue:
    /// each CE is an independent experiment (distinct seed, same
    /// machine); the per-CE mean latencies at full load must agree to
    /// ~10%.
    #[test]
    fn per_ce_measurements_agree_within_ten_percent() {
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        let report =
            fabric.run_prefetch_experiment(32, PrefetchTraffic::tridiagonal_matvec(96), 64_000_000);
        let means: Vec<f64> = (0..32)
            .filter_map(|ce| report.ce_mean_latency_ce(ce))
            .collect();
        assert_eq!(means.len(), 32);
        let mean: f64 = means.iter().sum::<f64>() / means.len() as f64;
        let var: f64 =
            means.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / means.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(
            cv < 0.10,
            "per-CE latency spread should be ~10% (paper's repeatability): CV = {cv:.3}"
        );
    }

    #[test]
    fn latency_quantiles_are_ordered() {
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        let report = fabric.run_prefetch_experiment(32, small_traffic(), 2_000_000);
        let p10 = report.latency_quantile_ce(0.1).unwrap();
        let p50 = report.latency_quantile_ce(0.5).unwrap();
        let p99 = report.latency_quantile_ce(0.99).unwrap();
        assert!(p10 <= p50 && p50 <= p99, "{p10} <= {p50} <= {p99}");
        assert!(
            p99 > report.mean_first_word_latency_ce(),
            "the tail exceeds the mean under contention"
        );
    }

    #[test]
    fn monitored_run_fills_the_histogrammers() {
        use cedar_sim::monitor::PerformanceMonitor;
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        let mut monitor = PerformanceMonitor::new();
        monitor.start();
        let report = fabric.run_monitored_experiment(
            8,
            PrefetchTraffic::compiler_default(8),
            4_000_000,
            &mut monitor,
        );
        monitor.stop();
        let lat_sig = monitor.lookup("prefetch.first_word_latency").unwrap();
        let stats = monitor.stats(lat_sig).unwrap();
        assert_eq!(stats.count(), 8 * 8, "one latency sample per block");
        assert!(
            (stats.mean() - report.mean_first_word_latency_ce()).abs() < 1.0,
            "monitor mean {} tracks the report {}",
            stats.mean(),
            report.mean_first_word_latency_ce()
        );
        let hist = monitor.histogrammer(lat_sig).unwrap();
        assert!(hist.mean() > 7.0);
        let inter_sig = monitor.lookup("prefetch.interarrival").unwrap();
        assert!(monitor.stats(inter_sig).unwrap().count() > 0);
    }

    #[test]
    fn report_bandwidth_sane() {
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        let report = fabric.run_prefetch_experiment(1, small_traffic(), 1_000_000);
        let bw = report.words_per_ce_cycle();
        assert!(
            bw > 0.0 && bw <= 1.0,
            "one CE cannot exceed 1 word/cycle, got {bw}"
        );
    }

    #[test]
    fn try_new_rejects_zero_modules() {
        let mut cfg = FabricConfig::cedar();
        cfg.mem_modules = 0;
        let err = RoundTripFabric::try_new(cfg).unwrap_err();
        assert!(err.to_string().contains("fabric.mem_modules"), "{err}");
    }

    mod obs {
        use super::*;
        use cedar_faults::{FaultConfig, FaultPlan, MachineShape, RetryPolicy};
        use cedar_obs::trace::SpanPhase;
        use cedar_obs::{Obs, ObsConfig};

        #[test]
        fn a_request_traces_through_the_full_path() {
            let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
            let obs = Obs::new(ObsConfig::enabled());
            fabric.set_obs(&obs);
            let report = fabric.run_prefetch_experiment(2, small_traffic(), 1_000_000);
            assert!(report.completed());
            obs.validate_trace().unwrap();
            // Pick the first traced request and collect its stage names.
            let events = obs.with(|inner| inner.trace.events().to_vec()).unwrap();
            let tid = events[0].tid;
            let begins: Vec<&str> = events
                .iter()
                .filter(|e| e.tid == tid && e.phase == SpanPhase::Begin)
                .map(|e| e.name)
                .collect();
            assert_eq!(
                begins,
                [
                    SPAN_REQUEST,
                    SPAN_FORWARD_NET,
                    SPAN_MEM_QUEUE,
                    SPAN_MEM_SERVICE,
                    SPAN_RETURN_NET
                ],
                "one request walks every stage in path order"
            );
            // Every request's track is individually balanced.
            let ends = events
                .iter()
                .filter(|e| e.tid == tid && e.phase == SpanPhase::End)
                .count();
            assert_eq!(ends, begins.len());
        }

        #[test]
        fn metrics_capture_issue_and_service_counts() {
            let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
            let obs = Obs::new(ObsConfig::metrics_only());
            fabric.set_obs(&obs);
            let report = fabric.run_prefetch_experiment(2, small_traffic(), 1_000_000);
            let expected = 2 * 4 * 32;
            assert_eq!(report.request_count(), expected);
            assert_eq!(obs.counter_value("fabric.reads_issued"), expected);
            let served = obs.with(|i| i.metrics.rollup("fabric.module")).unwrap();
            assert!(
                served >= expected,
                "every read is served at least once: {served}"
            );
            assert!(
                obs.counter_value("fabric.module_conflict_stall_cycles") > 0,
                "two CEs over shared modules must collide sometimes"
            );
        }

        #[test]
        fn faulted_run_shows_retries_on_the_request_track() {
            let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
            let plan = FaultPlan::generate(
                &FaultConfig::link_noise(0xBAD, 0.02),
                &MachineShape::cedar(),
            )
            .unwrap();
            fabric.attach_faults(plan, RetryPolicy::fabric());
            let obs = Obs::new(ObsConfig::enabled());
            fabric.set_obs(&obs);
            let report = fabric.run_prefetch_experiment(4, small_traffic(), 8_000_000);
            assert!(report.retries() > 0, "the fault must actually fire");
            obs.validate_trace().unwrap();
            let events = obs.with(|inner| inner.trace.events().to_vec()).unwrap();
            let retry = events
                .iter()
                .find(|e| e.name == "retry" && e.phase == SpanPhase::Instant)
                .expect("retry instants recorded");
            // The same track also carries the request's spans: the
            // retry marker sits on the request's own row.
            assert!(
                events
                    .iter()
                    .any(|e| e.tid == retry.tid && e.name == SPAN_REQUEST),
                "retry marker shares its track with the request spans"
            );
            assert_eq!(retry.arg, Some(("attempt", 2)), "first retry is attempt 2");
        }

        #[test]
        fn instrumentation_is_a_pure_overlay_on_the_simulation() {
            let mut plain = RoundTripFabric::new(FabricConfig::cedar());
            let baseline = plain.run_prefetch_experiment(4, small_traffic(), 1_000_000);

            let mut disabled = RoundTripFabric::new(FabricConfig::cedar());
            disabled.set_obs(&Obs::new(ObsConfig::disabled()));
            assert_eq!(
                disabled.run_prefetch_experiment(4, small_traffic(), 1_000_000),
                baseline,
                "disabled handle is bit-identical"
            );

            let mut traced = RoundTripFabric::new(FabricConfig::cedar());
            traced.set_obs(&Obs::new(ObsConfig::enabled()));
            assert_eq!(
                traced.run_prefetch_experiment(4, small_traffic(), 1_000_000),
                baseline,
                "full telemetry observes without perturbing"
            );
        }

        #[test]
        fn stalled_watchdog_report_names_the_last_span() {
            let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
            let plan =
                FaultPlan::generate(&FaultConfig::link_noise(3, 1.0), &MachineShape::cedar())
                    .unwrap();
            fabric.attach_faults(
                plan,
                RetryPolicy {
                    base_delay_cycles: 1 << 30,
                    max_retries: 1,
                    max_delay_cycles: 1 << 30,
                },
            );
            let obs = Obs::new(ObsConfig::enabled());
            fabric.set_obs(&obs);
            let mut dog = Watchdog::new(20_000, "traced degraded experiment");
            let err = fabric
                .run_watched_experiment(2, small_traffic(), 8_000_000, &mut dog)
                .unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("last span seen:") && msg.contains("packet"),
                "stall diagnostic should point at a span: {msg}"
            );
            obs.validate_trace()
                .expect("aborted run still exports a balanced trace");
        }
    }

    mod degraded {
        use super::*;
        use cedar_faults::{FaultConfig, FaultPlan, MachineShape, RetryPolicy};

        fn cedar_plan(cfg: &FaultConfig) -> FaultPlan {
            FaultPlan::generate(cfg, &MachineShape::cedar()).unwrap()
        }

        fn assert_exactly_once(report: &FabricReport) {
            for (ce, records) in report.per_ce.iter().enumerate() {
                let mut keys: Vec<(u32, u32)> = records
                    .iter()
                    .map(|r| (r.block, r.index_in_block))
                    .collect();
                let n = keys.len();
                keys.sort_unstable();
                keys.dedup();
                assert_eq!(keys.len(), n, "CE {ce} recorded a request twice");
            }
        }

        #[test]
        fn benign_plan_report_is_bit_identical_to_no_plan() {
            let mut healthy = RoundTripFabric::new(FabricConfig::cedar());
            let a = healthy.run_prefetch_experiment(4, small_traffic(), 1_000_000);
            let mut benign = RoundTripFabric::new(FabricConfig::cedar());
            benign.attach_faults(cedar_plan(&FaultConfig::none(1)), RetryPolicy::fabric());
            assert!(benign.faults().is_none());
            let b = benign.run_prefetch_experiment(4, small_traffic(), 1_000_000);
            assert_eq!(a, b);
        }

        #[test]
        fn dropped_requests_recovered_by_retries_exactly_once() {
            let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
            fabric.attach_faults(
                cedar_plan(&FaultConfig::link_noise(0xBAD, 0.02)),
                RetryPolicy::fabric(),
            );
            let report = fabric.run_prefetch_experiment(4, small_traffic(), 8_000_000);
            assert!(report.resolved(), "every request resolves");
            assert!(report.completed(), "2% loss with 8 retries loses nothing");
            assert!(report.words_dropped() > 0, "the fault actually fired");
            assert!(report.retries() > 0, "drops were recovered by retries");
            assert_exactly_once(&report);
        }

        #[test]
        fn degraded_fabric_run_is_deterministic() {
            let run = || {
                let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
                fabric.attach_faults(
                    cedar_plan(&FaultConfig::degraded(0x5EED, 0.01)),
                    RetryPolicy::fabric(),
                );
                fabric.run_prefetch_experiment(8, small_traffic(), 8_000_000)
            };
            assert_eq!(run(), run(), "same seed, same degraded report");
        }

        #[test]
        fn failed_module_traffic_rerouted_to_fallback() {
            let cfg = FaultConfig {
                failed_modules: 2,
                // Fail during the experiment, not after it finishes.
                fail_by_cycle: 200,
                ..FaultConfig::none(0xDEAD)
            };
            let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
            fabric.attach_faults(cedar_plan(&cfg), RetryPolicy::fabric());
            let report = fabric.run_prefetch_experiment(4, small_traffic(), 16_000_000);
            assert!(report.resolved());
            assert!(
                report.completed(),
                "fail-stop is recoverable via the fallback module, {} failed",
                report.failed_requests()
            );
            assert!(
                report.retries() > 0,
                "rerouting goes through the retry path"
            );
            assert_exactly_once(&report);
        }

        #[test]
        fn hopeless_run_abandons_requests_but_terminates() {
            // Total link loss: no single-word request ever survives, so
            // every read exhausts its retries and is abandoned — but the
            // run still terminates with every request resolved.
            let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
            fabric.attach_faults(
                cedar_plan(&FaultConfig::link_noise(3, 1.0)),
                RetryPolicy {
                    base_delay_cycles: 64,
                    max_retries: 2,
                    max_delay_cycles: 256,
                },
            );
            let report = fabric.run_prefetch_experiment(2, small_traffic(), 8_000_000);
            assert!(report.resolved());
            assert_eq!(report.request_count(), 0, "nothing survives total loss");
            assert_eq!(report.failed_requests(), 2 * 4 * 32);
        }

        #[test]
        fn watchdog_aborts_stalled_degraded_run() {
            // Total loss plus a retry policy whose first timeout is far
            // beyond the watchdog budget: resolved-count cannot advance,
            // and the watchdog must abort with a diagnostic rather than
            // burn the full 8M-cycle budget.
            let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
            fabric.attach_faults(
                cedar_plan(&FaultConfig::link_noise(3, 1.0)),
                RetryPolicy {
                    base_delay_cycles: 1 << 30,
                    max_retries: 1,
                    max_delay_cycles: 1 << 30,
                },
            );
            let mut dog = Watchdog::new(20_000, "degraded prefetch experiment");
            let err = fabric
                .run_watched_experiment(2, small_traffic(), 8_000_000, &mut dog)
                .unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("degraded prefetch experiment"), "{msg}");
            assert!(dog.is_tripped());
        }

        #[test]
        fn watchdog_leaves_healthy_run_untouched() {
            let mut watched = RoundTripFabric::new(FabricConfig::cedar());
            let mut dog = Watchdog::new(100_000, "healthy run");
            let a = watched
                .run_watched_experiment(2, small_traffic(), 1_000_000, &mut dog)
                .unwrap();
            let mut plain = RoundTripFabric::new(FabricConfig::cedar());
            let b = plain.run_prefetch_experiment(2, small_traffic(), 1_000_000);
            assert_eq!(a, b);
            assert!(!dog.is_tripped());
        }
    }
}
