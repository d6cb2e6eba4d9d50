//! Deterministic, seeded fault schedules.
//!
//! The paper's central memory-system finding is congestion collapse —
//! tree saturation at the memory-module buffers backing up into the
//! omega network \[Turn93\] — and the real Cedar shipped with
//! redundant network copies and per-module synchronization processors
//! precisely so the machine could keep running degraded. This module
//! makes that explorable: a [`FaultConfig`] (seed + rates) expands
//! into a concrete [`FaultPlan`] — which switch outputs are stuck or
//! slowed over which cycle windows, which memory modules stall or
//! fail-stop, how often a link eats a word, which synchronization
//! processors die — that the network, fabric and memory models consult
//! every cycle.
//!
//! Two properties are load-bearing:
//!
//! 1. **Determinism.** The same seed always yields the same plan, and
//!    per-event decisions (word drops, lost sync updates) are pure
//!    hashes of the event's identity — never draws from shared mutable
//!    RNG state — so they cannot depend on model call order. The same
//!    seed therefore replays the same degraded run bit-for-bit,
//!    preserving the FIFO-determinism contract of
//!    `cedar_sim::event::EventQueue`.
//! 2. **Recoverability.** Transient faults (drops, stalls, stuck
//!    windows) heal with time, so a bounded retry with backoff always
//!    makes progress; permanent faults (module fail-stop, dead sync
//!    processors) are either routed around ([`FaultPlan::fallback_module`],
//!    modelling standby-module reconfiguration) or surfaced to the
//!    watchdog as an explicit deadlock diagnostic.

use cedar_sim::rng::SplitMix64;

use crate::error::CedarError;

/// Which of the two unidirectional networks a fault lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetDirection {
    /// CE → memory (requests).
    Forward,
    /// Memory → CE (replies).
    Reverse,
}

impl NetDirection {
    fn tag(self) -> u64 {
        match self {
            NetDirection::Forward => 0x0F0F,
            NetDirection::Reverse => 0xF0F0,
        }
    }
}

/// The machine geometry a plan is generated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineShape {
    /// Crossbar radix of each network switch.
    pub radix: usize,
    /// Switch stages per network.
    pub stages: usize,
    /// Network positions (`radix ^ stages`).
    pub ports: usize,
    /// Interleaved memory modules.
    pub modules: usize,
}

impl MachineShape {
    /// The production Cedar geometry: 8×8 switches, 2 stages, 64
    /// ports, 32 memory modules.
    #[must_use]
    pub fn cedar() -> Self {
        MachineShape {
            radix: 8,
            stages: 2,
            ports: 64,
            modules: 32,
        }
    }

    fn switches_per_stage(&self) -> usize {
        self.ports / self.radix
    }
}

/// A seeded fault-injection recipe: rates and counts that
/// [`FaultPlan::generate`] expands deterministically into concrete
/// fault events.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Master seed; every derived fault and per-event decision flows
    /// from it.
    pub seed: u64,
    /// Number of switch outputs stuck (fully blocked) for one window.
    pub stuck_outputs: u32,
    /// Length in network cycles of each stuck window.
    pub stuck_window_cycles: u64,
    /// Number of switch outputs permanently slowed.
    pub slow_outputs: u32,
    /// A slowed output transmits only one cycle in `slow_period`.
    pub slow_period: u64,
    /// Probability that a link traversal loses a single-word packet.
    pub link_drop_prob: f64,
    /// Number of memory modules that stall (stop serving) for one
    /// window, letting congestion tree-saturate upstream.
    pub module_stalls: u32,
    /// Length in network cycles of each module stall.
    pub stall_window_cycles: u64,
    /// Number of memory modules that fail-stop partway through the
    /// run; traffic re-targets their fallback module on retry.
    pub failed_modules: u32,
    /// Upper bound (exclusive) on the cycle at which fail-stop events
    /// occur. Tighten this so short experiments still see failures.
    pub fail_by_cycle: u64,
    /// Probability that a synchronization instruction's update is lost
    /// (executed by the module's sync processor but never committed).
    pub sync_lost_prob: f64,
    /// Modules whose synchronization processor is dead: every sync
    /// update against them is lost. The barrier-deadlock injection.
    pub dead_sync_modules: Vec<usize>,
}

impl FaultConfig {
    /// No faults at all; [`FaultPlan::is_benign`] will be true.
    #[must_use]
    pub fn none(seed: u64) -> Self {
        FaultConfig {
            seed,
            stuck_outputs: 0,
            stuck_window_cycles: 0,
            slow_outputs: 0,
            slow_period: 1,
            link_drop_prob: 0.0,
            module_stalls: 0,
            stall_window_cycles: 0,
            failed_modules: 0,
            fail_by_cycle: WINDOW_HORIZON,
            sync_lost_prob: 0.0,
            dead_sync_modules: Vec::new(),
        }
    }

    /// Lossy links only: each single-word link traversal is lost with
    /// probability `p`. The workhorse of the degraded Table-2 sweep.
    #[must_use]
    pub fn link_noise(seed: u64, p: f64) -> Self {
        FaultConfig {
            link_drop_prob: p,
            ..FaultConfig::none(seed)
        }
    }

    /// A broadly degraded machine: a few stuck and slowed switch
    /// outputs, lossy links, stalling modules and occasional lost sync
    /// updates — everything transient or recoverable.
    #[must_use]
    pub fn degraded(seed: u64, drop_prob: f64) -> Self {
        FaultConfig {
            stuck_outputs: 2,
            stuck_window_cycles: 2_000,
            slow_outputs: 2,
            slow_period: 4,
            link_drop_prob: drop_prob,
            module_stalls: 2,
            stall_window_cycles: 2_000,
            sync_lost_prob: drop_prob,
            ..FaultConfig::none(seed)
        }
    }

    /// The barrier-deadlock injection: the synchronization processor
    /// of `module` is dead, so no update against it ever commits.
    #[must_use]
    pub fn dead_sync_processor(seed: u64, module: usize) -> Self {
        FaultConfig {
            dead_sync_modules: vec![module],
            ..FaultConfig::none(seed)
        }
    }
}

/// One switch output blocked over a cycle window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StuckOutput {
    dir: NetDirection,
    stage: usize,
    switch: usize,
    port: usize,
    from: u64,
    until: u64,
}

/// One switch output that transmits only every `period` cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlowOutput {
    dir: NetDirection,
    stage: usize,
    switch: usize,
    port: usize,
    period: u64,
}

/// One memory module out of service over a cycle window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ModuleStall {
    module: usize,
    from: u64,
    until: u64,
}

/// A concrete, fully deterministic fault schedule.
///
/// Generated once from a [`FaultConfig`] and then consulted by the
/// models through pure `&self` queries — the plan carries no mutable
/// state, which is what makes degraded runs replayable.
///
/// # Examples
///
/// ```
/// use cedar_faults::plan::{FaultConfig, FaultPlan, MachineShape};
///
/// let plan = FaultPlan::generate(
///     &FaultConfig::link_noise(42, 0.01),
///     &MachineShape::cedar(),
/// ).unwrap();
/// let again = FaultPlan::generate(
///     &FaultConfig::link_noise(42, 0.01),
///     &MachineShape::cedar(),
/// ).unwrap();
/// assert_eq!(plan, again); // same seed, same schedule
/// assert!(!plan.is_benign());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    shape: MachineShape,
    stuck: Vec<StuckOutput>,
    slow: Vec<SlowOutput>,
    link_drop_prob: f64,
    stalls: Vec<ModuleStall>,
    /// `(module, fail cycle)` fail-stop events.
    failed: Vec<(usize, u64)>,
    sync_lost_prob: f64,
    dead_sync_modules: Vec<usize>,
}

/// Cycle horizon over which generated windows are scattered. Windows
/// repeat modulo this horizon so arbitrarily long runs still see them.
const WINDOW_HORIZON: u64 = 1 << 16;

impl FaultPlan {
    /// Expands a configuration into a concrete schedule.
    ///
    /// # Errors
    ///
    /// Rejects probabilities outside `[0, 1]`, a zero `slow_period`,
    /// fault counts exceeding the machine shape, and dead-sync modules
    /// out of range.
    pub fn generate(cfg: &FaultConfig, shape: &MachineShape) -> Result<FaultPlan, CedarError> {
        if !(0.0..=1.0).contains(&cfg.link_drop_prob) {
            return Err(CedarError::invalid(
                "faults.link_drop_prob",
                format!("probability must be in [0, 1], got {}", cfg.link_drop_prob),
            ));
        }
        if !(0.0..=1.0).contains(&cfg.sync_lost_prob) {
            return Err(CedarError::invalid(
                "faults.sync_lost_prob",
                format!("probability must be in [0, 1], got {}", cfg.sync_lost_prob),
            ));
        }
        if cfg.slow_period == 0 {
            return Err(CedarError::invalid(
                "faults.slow_period",
                "a slowed output must still transmit sometimes; period must be nonzero",
            ));
        }
        let outputs_per_net = shape.stages * shape.switches_per_stage() * shape.radix;
        let budget = (2 * outputs_per_net) as u32;
        if cfg.stuck_outputs + cfg.slow_outputs > budget {
            return Err(CedarError::invalid(
                "faults.stuck_outputs",
                format!(
                    "{} faulted outputs exceed the machine's {budget} switch outputs",
                    cfg.stuck_outputs + cfg.slow_outputs
                ),
            ));
        }
        if cfg.failed_modules as usize >= shape.modules {
            return Err(CedarError::invalid(
                "faults.failed_modules",
                format!(
                    "at least one of the {} modules must survive, got {} failures",
                    shape.modules, cfg.failed_modules
                ),
            ));
        }
        if let Some(&m) = cfg.dead_sync_modules.iter().find(|&&m| m >= shape.modules) {
            return Err(CedarError::invalid(
                "faults.dead_sync_modules",
                format!("module {m} out of range (machine has {})", shape.modules),
            ));
        }

        // Independent derived streams so adding one fault class never
        // perturbs the placement of another.
        let mut root = SplitMix64::new(cfg.seed);
        let mut stuck_rng = root.split();
        let mut slow_rng = root.split();
        let mut stall_rng = root.split();
        let mut fail_rng = root.split();

        let pick_output = |rng: &mut SplitMix64| {
            let dir = if rng.next_bool(0.5) {
                NetDirection::Forward
            } else {
                NetDirection::Reverse
            };
            let stage = rng.next_below(shape.stages as u64) as usize;
            let switch = rng.next_below(shape.switches_per_stage() as u64) as usize;
            let port = rng.next_below(shape.radix as u64) as usize;
            (dir, stage, switch, port)
        };

        let stuck = (0..cfg.stuck_outputs)
            .map(|_| {
                let (dir, stage, switch, port) = pick_output(&mut stuck_rng);
                let from = stuck_rng.next_below(WINDOW_HORIZON);
                StuckOutput {
                    dir,
                    stage,
                    switch,
                    port,
                    from,
                    until: from + cfg.stuck_window_cycles,
                }
            })
            .collect();
        let slow = (0..cfg.slow_outputs)
            .map(|_| {
                let (dir, stage, switch, port) = pick_output(&mut slow_rng);
                SlowOutput {
                    dir,
                    stage,
                    switch,
                    port,
                    period: cfg.slow_period,
                }
            })
            .collect();
        let stalls = (0..cfg.module_stalls)
            .map(|_| {
                let module = stall_rng.next_below(shape.modules as u64) as usize;
                let from = stall_rng.next_below(WINDOW_HORIZON);
                ModuleStall {
                    module,
                    from,
                    until: from + cfg.stall_window_cycles,
                }
            })
            .collect();
        let mut failed: Vec<(usize, u64)> = Vec::new();
        while failed.len() < cfg.failed_modules as usize {
            let module = fail_rng.next_below(shape.modules as u64) as usize;
            if failed.iter().all(|&(m, _)| m != module) {
                failed.push((module, fail_rng.next_below(cfg.fail_by_cycle.max(1))));
            }
        }

        Ok(FaultPlan {
            seed: cfg.seed,
            shape: *shape,
            stuck,
            slow,
            link_drop_prob: cfg.link_drop_prob,
            stalls,
            failed,
            sync_lost_prob: cfg.sync_lost_prob,
            dead_sync_modules: cfg.dead_sync_modules.clone(),
        })
    }

    /// The master seed the plan was generated from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The machine shape the plan was generated against.
    #[must_use]
    pub fn shape(&self) -> &MachineShape {
        &self.shape
    }

    /// Whether the plan injects nothing at all. Models treat a benign
    /// plan exactly like no plan, so healthy baselines stay
    /// bit-identical to runs without fault wiring.
    #[must_use]
    pub fn is_benign(&self) -> bool {
        self.stuck.is_empty()
            && self.slow.is_empty()
            && self.link_drop_prob == 0.0
            && self.stalls.is_empty()
            && self.failed.is_empty()
            && self.sync_lost_prob == 0.0
            && self.dead_sync_modules.is_empty()
    }

    /// Whether the plan contains any fault a retry cannot eventually
    /// get past without rerouting (fail-stop modules, dead sync
    /// processors).
    #[must_use]
    pub fn has_permanent_faults(&self) -> bool {
        !self.failed.is_empty() || !self.dead_sync_modules.is_empty()
    }

    /// Whether the output `port` of `switch` at `stage` may transmit at
    /// `cycle`. Stuck windows block entirely (repeating modulo the
    /// generation horizon); slowed outputs pass one cycle in `period`.
    #[must_use]
    pub fn output_blocked(
        &self,
        dir: NetDirection,
        stage: usize,
        switch: usize,
        port: usize,
        cycle: u64,
    ) -> bool {
        let phase = cycle % WINDOW_HORIZON;
        if self.stuck.iter().any(|s| {
            s.dir == dir
                && s.stage == stage
                && s.switch == switch
                && s.port == port
                && phase >= s.from
                && phase < s.until
        }) {
            return true;
        }
        self.slow.iter().any(|s| {
            s.dir == dir
                && s.stage == stage
                && s.switch == switch
                && s.port == port
                && !cycle.is_multiple_of(s.period)
        })
    }

    /// Every switch output of the `dir` network that a stuck window or
    /// a slowdown names, as `(stage, switch, port)`.
    /// [`output_blocked`](Self::output_blocked) is false at every
    /// cycle for any output not listed, so a stepper can compile the
    /// list into masks and query the plan only at these outputs.
    pub fn faulted_outputs(
        &self,
        dir: NetDirection,
    ) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let stuck = self
            .stuck
            .iter()
            .map(|s| (s.dir, s.stage, s.switch, s.port));
        let slow = self.slow.iter().map(|s| (s.dir, s.stage, s.switch, s.port));
        stuck
            .chain(slow)
            .filter(move |&(d, ..)| d == dir)
            .map(|(_, stage, switch, port)| (stage, switch, port))
    }

    /// Every memory module that a stall window or a fail-stop names.
    /// [`module_stalled`](Self::module_stalled) and
    /// [`module_failed`](Self::module_failed) are false at every cycle
    /// for any module not listed.
    pub fn faulted_modules(&self) -> impl Iterator<Item = usize> + '_ {
        let stalls = self.stalls.iter().map(|s| s.module);
        stalls.chain(self.failed.iter().map(|&(m, _)| m))
    }

    /// Whether the link traversal of a single-word packet identified by
    /// `packet_id` over output `(stage, switch, port)` at `cycle` loses
    /// the word. Pure hash of the event identity: retries at later
    /// cycles roll fresh, independent outcomes.
    #[must_use]
    pub fn drops_word(
        &self,
        dir: NetDirection,
        stage: usize,
        switch: usize,
        port: usize,
        packet_id: u64,
        cycle: u64,
    ) -> bool {
        self.drops_on_link(self.link_key(dir, stage, switch, port), packet_id, cycle)
    }

    /// The part of [`drops_word`](Self::drops_word)'s event hash that
    /// depends only on the link `(stage, switch, port)`: the hash is a
    /// left fold over the event identity, so a stepper can compute this
    /// once per link and ask [`drops_on_link`](Self::drops_on_link) per
    /// word.
    #[must_use]
    pub fn link_key(&self, dir: NetDirection, stage: usize, switch: usize, port: usize) -> u64 {
        event_hash(
            self.seed ^ dir.tag(),
            &[stage as u64, switch as u64, port as u64],
        )
    }

    /// [`drops_word`](Self::drops_word) for the link whose
    /// [`link_key`](Self::link_key) is `key`.
    #[must_use]
    pub fn drops_on_link(&self, key: u64, packet_id: u64, cycle: u64) -> bool {
        self.link_drop_prob > 0.0
            && to_unit(event_hash(key, &[packet_id, cycle])) < self.link_drop_prob
    }

    /// Whether `module` is stalled (not receiving or serving) at
    /// `cycle` — transient; its buffer backlog tree-saturates upstream.
    #[must_use]
    pub fn module_stalled(&self, module: usize, cycle: u64) -> bool {
        let phase = cycle % WINDOW_HORIZON;
        self.stalls
            .iter()
            .any(|s| s.module == module && phase >= s.from && phase < s.until)
    }

    /// Whether `module` has fail-stopped at or before `cycle` —
    /// permanent; arrivals are discarded and sources must re-target
    /// [`fallback_module`](Self::fallback_module).
    #[must_use]
    pub fn module_failed(&self, module: usize, cycle: u64) -> bool {
        self.failed
            .iter()
            .any(|&(m, at)| m == module && cycle >= at)
    }

    /// The standby module serving a failed module's traffic: the next
    /// module (cyclically) that never fails. Models the
    /// reconfiguration that let the real machine run degraded.
    ///
    /// # Panics
    ///
    /// Never panics for plans built through [`generate`]
    /// (which guarantees at least one surviving module).
    ///
    /// [`generate`]: Self::generate
    #[must_use]
    pub fn fallback_module(&self, module: usize) -> usize {
        let n = self.shape.modules;
        (1..=n)
            .map(|step| (module + step) % n)
            .find(|&m| self.failed.iter().all(|&(f, _)| f != m))
            .expect("generate() guarantees a surviving module")
    }

    /// Whether the `op_index`-th synchronization instruction overall,
    /// executed at `module` against word `cell`, loses its update (the
    /// sync processor computes the reply but the memory write never
    /// commits). Always true for dead sync processors.
    #[must_use]
    pub fn sync_update_lost(&self, module: usize, cell: u64, op_index: u64) -> bool {
        if self.dead_sync_modules.contains(&module) {
            return true;
        }
        if self.sync_lost_prob <= 0.0 {
            return false;
        }
        let h = event_hash(self.seed ^ 0x5C5C, &[module as u64, cell, op_index]);
        to_unit(h) < self.sync_lost_prob
    }
}

/// A bounded retry schedule with exponential backoff, shared by the
/// fabric's request timeouts and the runtime's sync-operation retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay before the first retry, in cycles of the caller's clock.
    pub base_delay_cycles: u64,
    /// Maximum retries after the initial attempt.
    pub max_retries: u32,
    /// Cap on any single backoff delay.
    pub max_delay_cycles: u64,
}

impl RetryPolicy {
    /// The fabric default: first retry after 4096 network cycles
    /// (far beyond any congested round trip, so healthy requests are
    /// never duplicated), doubling up to 8 retries.
    #[must_use]
    pub fn fabric() -> Self {
        RetryPolicy {
            base_delay_cycles: 4096,
            max_retries: 8,
            max_delay_cycles: 1 << 16,
        }
    }

    /// The sync-operation default: first retry after one spin-poll
    /// interval, doubling up to 8 retries.
    #[must_use]
    pub fn sync() -> Self {
        RetryPolicy {
            base_delay_cycles: 26,
            max_retries: 8,
            max_delay_cycles: 1 << 12,
        }
    }

    /// The backoff delay before retry number `attempt` (1-based):
    /// `base * 2^(attempt-1)`, saturating at the cap.
    #[must_use]
    pub fn delay(&self, attempt: u32) -> u64 {
        let shifted = self
            .base_delay_cycles
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(32));
        shifted.min(self.max_delay_cycles)
    }

    /// Total delay across all permitted retries — an upper bound on
    /// how long a caller waits before giving up.
    #[must_use]
    pub fn total_delay(&self) -> u64 {
        (1..=self.max_retries).map(|a| self.delay(a)).sum()
    }

    /// [`delay`](Self::delay) with deterministic seeded jitter: the
    /// exponential backoff value ±25%, derived purely from
    /// `(seed, attempt)`. When a fleet of restarting workers shares one
    /// policy, distinct seeds (worker slot, incarnation) de-correlate
    /// their restart instants — the thundering-herd guard — while the
    /// same seed always reproduces the same schedule, preserving
    /// replayability.
    ///
    /// The jittered delay is clamped to `[1, max_delay_cycles]`, so
    /// jitter never turns a backoff into an immediate retry.
    #[must_use]
    pub fn jittered_delay(&self, attempt: u32, seed: u64) -> u64 {
        let base = self.delay(attempt);
        if base == 0 {
            return 0;
        }
        let h = event_hash(seed ^ 0x4A17, &[u64::from(attempt)]);
        // ±25%: subtract a fixed quarter, add back [0, half].
        let span = base / 2 + 1;
        (base - base / 4 + h % span).clamp(1, self.max_delay_cycles)
    }
}

/// SplitMix64-style stateless mixing of an event identity.
pub(crate) fn event_hash(seed: u64, tags: &[u64]) -> u64 {
    let mut h = seed;
    for &t in tags {
        h = SplitMix64::new(h ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
    }
    h
}

/// Maps a hash to `[0, 1)` with 53 bits of precision.
fn to_unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl cedar_snap::Snapshot for NetDirection {
    fn snap(&self, w: &mut cedar_snap::SnapWriter) {
        w.put_u8(match self {
            NetDirection::Forward => 0,
            NetDirection::Reverse => 1,
        });
    }
    fn restore(r: &mut cedar_snap::SnapReader<'_>) -> Result<Self, cedar_snap::SnapError> {
        match r.get_u8()? {
            0 => Ok(NetDirection::Forward),
            1 => Ok(NetDirection::Reverse),
            _ => Err(cedar_snap::SnapError::Invalid("net direction tag")),
        }
    }
}

cedar_snap::snapshot_struct!(MachineShape {
    radix,
    stages,
    ports,
    modules,
});
cedar_snap::snapshot_struct!(FaultConfig {
    seed,
    stuck_outputs,
    stuck_window_cycles,
    slow_outputs,
    slow_period,
    link_drop_prob,
    module_stalls,
    stall_window_cycles,
    failed_modules,
    fail_by_cycle,
    sync_lost_prob,
    dead_sync_modules,
});
cedar_snap::snapshot_struct!(StuckOutput {
    dir,
    stage,
    switch,
    port,
    from,
    until,
});
cedar_snap::snapshot_struct!(SlowOutput {
    dir,
    stage,
    switch,
    port,
    period,
});
cedar_snap::snapshot_struct!(ModuleStall {
    module,
    from,
    until,
});
// The plan's fault decisions are pure hashes of event identity, so
// restoring these tables reproduces every future decision exactly.
cedar_snap::snapshot_struct!(FaultPlan {
    seed,
    shape,
    stuck,
    slow,
    link_drop_prob,
    stalls,
    failed,
    sync_lost_prob,
    dead_sync_modules,
});
cedar_snap::snapshot_struct!(RetryPolicy {
    base_delay_cycles,
    max_retries,
    max_delay_cycles,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> MachineShape {
        MachineShape::cedar()
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = FaultConfig::degraded(7, 0.01);
        let a = FaultPlan::generate(&cfg, &shape()).unwrap();
        let b = FaultPlan::generate(&cfg, &shape()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_place_faults_differently() {
        let a = FaultPlan::generate(&FaultConfig::degraded(1, 0.01), &shape()).unwrap();
        let b = FaultPlan::generate(&FaultConfig::degraded(2, 0.01), &shape()).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn none_is_benign_and_blocks_nothing() {
        let plan = FaultPlan::generate(&FaultConfig::none(5), &shape()).unwrap();
        assert!(plan.is_benign());
        assert!(!plan.has_permanent_faults());
        for cycle in 0..100 {
            assert!(!plan.output_blocked(NetDirection::Forward, 0, 0, 0, cycle));
            assert!(!plan.drops_word(NetDirection::Forward, 0, 0, 0, 1, cycle));
            assert!(!plan.module_stalled(0, cycle));
            assert!(!plan.module_failed(0, cycle));
            assert!(!plan.sync_update_lost(0, 0, cycle));
        }
    }

    #[test]
    fn drop_decisions_are_pure_functions_of_identity() {
        let plan = FaultPlan::generate(&FaultConfig::link_noise(9, 0.5), &shape()).unwrap();
        let a = plan.drops_word(NetDirection::Forward, 1, 3, 2, 77, 1000);
        let b = plan.drops_word(NetDirection::Forward, 1, 3, 2, 77, 1000);
        assert_eq!(a, b, "same event, same outcome");
        // Over many cycles the empirical rate tracks the probability.
        let hits = (0..10_000)
            .filter(|&c| plan.drops_word(NetDirection::Forward, 0, 0, 0, 1, c))
            .count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.5).abs() < 0.05, "drop rate {rate} far from 0.5");
    }

    #[test]
    fn keyed_drop_query_matches_drops_word() {
        let mut rng = SplitMix64::new(0x11CE);
        for p in [0.0, 1.0, 0.3] {
            let plan =
                FaultPlan::generate(&FaultConfig::link_noise(rng.next_u64(), p), &shape()).unwrap();
            let mut drops = 0;
            for _ in 0..2_000 {
                let dir = if rng.next_bool(0.5) {
                    NetDirection::Forward
                } else {
                    NetDirection::Reverse
                };
                let (stage, switch, port) = (
                    rng.next_below(4) as usize,
                    rng.next_below(64) as usize,
                    rng.next_below(8) as usize,
                );
                let (id, cycle) = (rng.next_u64(), rng.next_u64());
                let dropped = plan.drops_word(dir, stage, switch, port, id, cycle);
                let key = plan.link_key(dir, stage, switch, port);
                assert_eq!(plan.drops_on_link(key, id, cycle), dropped);
                drops += u32::from(dropped);
            }
            if p == 0.0 {
                assert_eq!(drops, 0);
            } else if p == 1.0 {
                assert_eq!(drops, 2_000);
            } else {
                assert!((400..800).contains(&drops), "{drops} drops at p = {p}");
            }
        }
    }

    #[test]
    fn retries_roll_fresh_outcomes() {
        let plan = FaultPlan::generate(&FaultConfig::link_noise(3, 0.5), &shape()).unwrap();
        // A packet dropped at one cycle is not doomed at later cycles.
        let outcomes: Vec<bool> = (0..64)
            .map(|c| plan.drops_word(NetDirection::Reverse, 0, 1, 1, 42, c * 100))
            .collect();
        assert!(outcomes.iter().any(|&d| d) && outcomes.iter().any(|&d| !d));
    }

    #[test]
    fn stuck_windows_block_then_heal() {
        let cfg = FaultConfig {
            stuck_outputs: 1,
            stuck_window_cycles: 100,
            ..FaultConfig::none(11)
        };
        let plan = FaultPlan::generate(&cfg, &shape()).unwrap();
        let s = plan.stuck[0];
        assert!(plan.output_blocked(s.dir, s.stage, s.switch, s.port, s.from));
        assert!(!plan.output_blocked(s.dir, s.stage, s.switch, s.port, s.until));
    }

    /// The masks a stepper compiles from `faulted_outputs` and
    /// `faulted_modules` are exact: every output or module that any
    /// query ever blocks is listed.
    #[test]
    fn faulted_lists_cover_every_blocking_query() {
        let cfg = FaultConfig {
            failed_modules: 3,
            fail_by_cycle: 50,
            ..FaultConfig::degraded(0x5EED, 0.01)
        };
        let plan = FaultPlan::generate(&cfg, &shape()).unwrap();
        let modules: Vec<usize> = plan.faulted_modules().collect();
        for m in 0..shape().modules {
            let hit = (0..WINDOW_HORIZON)
                .step_by(7)
                .any(|c| plan.module_stalled(m, c) || plan.module_failed(m, c));
            assert_eq!(hit, modules.contains(&m), "module {m}");
        }
        for dir in [NetDirection::Forward, NetDirection::Reverse] {
            let outputs: Vec<_> = plan.faulted_outputs(dir).collect();
            for stage in 0..shape().stages {
                for switch in 0..shape().switches_per_stage() {
                    for port in 0..shape().radix {
                        let hit = (0..WINDOW_HORIZON)
                            .step_by(7)
                            .any(|c| plan.output_blocked(dir, stage, switch, port, c));
                        let listed = outputs.contains(&(stage, switch, port));
                        assert_eq!(hit, listed, "{dir:?} output {stage}/{switch}/{port}");
                    }
                }
            }
        }
    }

    #[test]
    fn slow_outputs_pass_periodically() {
        let cfg = FaultConfig {
            slow_outputs: 1,
            slow_period: 4,
            ..FaultConfig::none(13)
        };
        let plan = FaultPlan::generate(&cfg, &shape()).unwrap();
        let s = plan.slow[0];
        let open = (0..100)
            .filter(|&c| !plan.output_blocked(s.dir, s.stage, s.switch, s.port, c))
            .count();
        assert_eq!(open, 25, "one cycle in four passes");
    }

    #[test]
    fn module_failure_is_permanent_and_remapped() {
        let cfg = FaultConfig {
            failed_modules: 1,
            ..FaultConfig::none(17)
        };
        let plan = FaultPlan::generate(&cfg, &shape()).unwrap();
        assert!(plan.has_permanent_faults());
        let (m, at) = plan.failed[0];
        assert!(!plan.module_failed(m, at.saturating_sub(1)));
        assert!(plan.module_failed(m, at));
        assert!(
            plan.module_failed(m, at + 1_000_000),
            "fail-stop is forever"
        );
        let fb = plan.fallback_module(m);
        assert_ne!(fb, m);
        assert!(!plan.module_failed(fb, u64::MAX), "fallback survives");
    }

    #[test]
    fn dead_sync_processor_loses_every_update() {
        let plan = FaultPlan::generate(&FaultConfig::dead_sync_processor(19, 5), &shape()).unwrap();
        for op in 0..100 {
            assert!(plan.sync_update_lost(5, 123, op));
            assert!(!plan.sync_update_lost(6, 123, op), "other modules fine");
        }
    }

    #[test]
    fn generate_rejects_bad_probability() {
        let cfg = FaultConfig::link_noise(1, 1.5);
        let err = FaultPlan::generate(&cfg, &shape()).unwrap_err();
        assert!(matches!(err, CedarError::InvalidConfig { field, .. }
            if field == "faults.link_drop_prob"));
    }

    #[test]
    fn generate_rejects_all_modules_failing() {
        let cfg = FaultConfig {
            failed_modules: 32,
            ..FaultConfig::none(1)
        };
        assert!(FaultPlan::generate(&cfg, &shape()).is_err());
    }

    #[test]
    fn generate_rejects_out_of_range_dead_sync_module() {
        let cfg = FaultConfig::dead_sync_processor(1, 99);
        let err = FaultPlan::generate(&cfg, &shape()).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn generate_rejects_zero_slow_period() {
        let cfg = FaultConfig {
            slow_outputs: 1,
            slow_period: 0,
            ..FaultConfig::none(1)
        };
        assert!(FaultPlan::generate(&cfg, &shape()).is_err());
    }

    #[test]
    fn retry_policy_backs_off_exponentially() {
        let p = RetryPolicy {
            base_delay_cycles: 10,
            max_retries: 5,
            max_delay_cycles: 1000,
        };
        assert_eq!(p.delay(1), 10);
        assert_eq!(p.delay(2), 20);
        assert_eq!(p.delay(3), 40);
        assert_eq!(p.delay(20), 1000, "capped");
        assert_eq!(p.total_delay(), 10 + 20 + 40 + 80 + 160);
    }

    #[test]
    fn jittered_backoff_schedule_is_pinned_for_a_fixed_seed() {
        let p = RetryPolicy {
            base_delay_cycles: 100,
            max_retries: 6,
            max_delay_cycles: 10_000,
        };
        // The exact schedule for seed 0xCEDA, pinned: any change to the
        // jitter derivation shows up here as a hard failure, because
        // restart replayability depends on it.
        let schedule: Vec<u64> = (1..=6).map(|a| p.jittered_delay(a, 0xCEDA)).collect();
        assert_eq!(schedule, vec![91, 153, 443, 645, 1725, 3814]);
        // Determinism: the same (seed, attempt) always reproduces.
        let again: Vec<u64> = (1..=6).map(|a| p.jittered_delay(a, 0xCEDA)).collect();
        assert_eq!(schedule, again);
        // De-correlation: a different seed lands elsewhere.
        let other: Vec<u64> = (1..=6).map(|a| p.jittered_delay(a, 0xBEEF)).collect();
        assert_ne!(schedule, other);
        // Bounds: each jittered delay stays within ±25% of the base
        // (and within the cap), so backoff character is preserved.
        for a in 1..=6u32 {
            for seed in 0..64u64 {
                let base = p.delay(a);
                let j = p.jittered_delay(a, seed);
                assert!(j >= base - base / 4 && j <= base + base / 2);
                assert!(j <= p.max_delay_cycles);
            }
        }
        // A capped base still caps the jittered value.
        assert!(p.jittered_delay(20, 7) <= p.max_delay_cycles);
    }

    #[test]
    fn restored_plan_makes_identical_fault_decisions() {
        use cedar_snap::Snapshot;
        let cfg = FaultConfig::degraded(0xCEDA, 0.05);
        let plan = FaultPlan::generate(&cfg, &MachineShape::cedar()).unwrap();
        let bytes = plan.to_snapshot_bytes();
        let restored = FaultPlan::from_snapshot_bytes(&bytes).unwrap();
        // Fault decisions are pure functions of event identity; sample
        // them across directions, ports, cycles and op indices.
        for cycle in (0..200_000u64).step_by(7919) {
            for port in 0..8 {
                for dir in [NetDirection::Forward, NetDirection::Reverse] {
                    assert_eq!(
                        plan.output_blocked(dir, 0, 3, port, cycle),
                        restored.output_blocked(dir, 0, 3, port, cycle)
                    );
                    assert_eq!(
                        plan.drops_word(dir, 1, 2, port, cycle ^ 0x9E37, cycle),
                        restored.drops_word(dir, 1, 2, port, cycle ^ 0x9E37, cycle)
                    );
                }
            }
            for module in 0..32 {
                assert_eq!(
                    plan.module_failed(module, cycle),
                    restored.module_failed(module, cycle)
                );
                assert_eq!(
                    plan.sync_update_lost(module, cycle, cycle / 3),
                    restored.sync_update_lost(module, cycle, cycle / 3)
                );
            }
        }
        assert_eq!(plan.seed(), restored.seed());
        assert_eq!(plan.is_benign(), restored.is_benign());
    }
}
