//! One unidirectional omega network assembled from crossbar stages.
//!
//! Words advance one switch per network cycle: each [`step`] performs
//! inter-stage link transfers (oldest stage first, so a word never
//! teleports through the whole network in one cycle), then internal
//! crossbar switching, then injection from the per-port source FIFOs.
//! Injection is gated to the CE clock (one word per CE cycle per
//! port), modelling the processor-side interface running at the
//! slower 170 ns instruction clock.
//!
//! [`step`]: OmegaNetwork::step

use std::collections::VecDeque;

use cedar_faults::{CedarError, FaultPlan, NetDirection};
use cedar_obs::{CounterId, HistogramId, Obs};

use crate::config::NetworkConfig;
use crate::packet::{Packet, PacketId, Word};
use crate::switch::Crossbar;
use crate::topology::{Hop, Topology};

/// Capacity of the per-port injection FIFO, in words. This models the
/// small buffer between a CE (or memory module) and its network port;
/// sources see backpressure through [`OmegaNetwork::try_inject`].
pub const INJECT_FIFO_WORDS: usize = 8;

/// Interned telemetry handles for one network, built once by
/// [`OmegaNetwork::set_obs`] so the per-cycle loops update counters by
/// index instead of by name.
#[derive(Debug)]
struct NetObs {
    obs: Obs,
    /// Per-stage count of transfers that had a word ready but could
    /// not move it (downstream queue full or fault-blocked output).
    blocked: Vec<CounterId>,
    /// Words refused at the exit because the consumer-side FIFO was
    /// full (consumer congestion backing into the net).
    exit_blocked: CounterId,
    /// Words lost to injected link faults.
    dropped: CounterId,
    /// Per-stage distribution of total buffered words, sampled once
    /// per network cycle.
    occupancy: Vec<HistogramId>,
}

/// A packet that has fully exited the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The delivered packet.
    pub packet: Packet,
    /// Network cycle at which the head word exited.
    pub head_exit: u64,
    /// Network cycle at which the tail word exited.
    pub tail_exit: u64,
}

/// Progress of a packet's words through the final output.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExitProgress {
    pub(crate) packet: Packet,
    pub(crate) head_exit: u64,
    pub(crate) words_seen: u8,
}

/// One unidirectional multistage shuffle-exchange network.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug)]
pub struct OmegaNetwork {
    pub(crate) cfg: NetworkConfig,
    pub(crate) topo: Topology,
    pub(crate) stages: Vec<Vec<Crossbar>>,
    pub(crate) inject_fifo: Vec<VecDeque<Word>>,
    /// Words that exited but have not been consumed yet, per output
    /// position. The consumer (memory module or CE interface) pops at
    /// its own rate; this queue is bounded by the switch output queue
    /// upstream, so it holds at most one word added per cycle and is
    /// drained by `pop_output`.
    pub(crate) exit_fifo: Vec<VecDeque<(Word, u64)>>,
    pub(crate) exit_progress: Vec<Option<ExitProgress>>,
    pub(crate) delivered: Vec<Delivery>,
    pub(crate) now: u64,
    pub(crate) words_injected: u64,
    pub(crate) words_exited: u64,
    pub(crate) words_dropped: u64,
    /// Which direction this network plays in a fault plan; only
    /// consulted when `faults` is attached.
    pub(crate) direction: NetDirection,
    /// Attached fault schedule. `None` (the default, and the result of
    /// attaching a benign plan) leaves every code path bit-identical
    /// to the healthy network.
    faults: Option<FaultPlan>,
    /// Attached telemetry. `None` (the default, and the result of
    /// attaching a handle without live metrics) keeps every per-cycle
    /// loop on its un-instrumented path.
    obs: Option<NetObs>,
}

impl OmegaNetwork {
    /// Builds an idle network.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NetworkConfig::validate`].
    /// Use [`try_new`](Self::try_new) to handle the rejection instead.
    #[must_use]
    pub fn new(cfg: NetworkConfig) -> Self {
        OmegaNetwork::try_new(cfg).expect("invalid network configuration")
    }

    /// Builds an idle network, validating the configuration.
    ///
    /// # Errors
    ///
    /// Propagates whatever [`NetworkConfig::validate`] rejects.
    pub fn try_new(cfg: NetworkConfig) -> Result<Self, CedarError> {
        cfg.validate()?;
        let topo = Topology::new(cfg.radix, cfg.stages)?;
        let stages = (0..cfg.stages)
            .map(|s| {
                (0..topo.switches_per_stage())
                    .map(|_| Crossbar::new(cfg.radix, cfg.queue_words, s))
                    .collect()
            })
            .collect();
        let ports = topo.ports();
        Ok(OmegaNetwork {
            cfg,
            topo,
            stages,
            inject_fifo: (0..ports).map(|_| VecDeque::new()).collect(),
            exit_fifo: (0..ports).map(|_| VecDeque::new()).collect(),
            exit_progress: vec![None; ports],
            delivered: Vec::new(),
            now: 0,
            words_injected: 0,
            words_exited: 0,
            words_dropped: 0,
            direction: NetDirection::Forward,
            faults: None,
            obs: None,
        })
    }

    /// Attaches a telemetry handle under `label` (e.g. `"fwd"` /
    /// `"rev"`), interning this network's counters and histograms up
    /// front: `net.<label>.stage<i>.blocked_transfers`,
    /// `net.<label>.stage<i>.occupancy_words`,
    /// `net.<label>.exit_blocked` and `net.<label>.words_dropped`.
    /// A handle without live metrics is discarded, leaving the
    /// per-cycle loops bit-identical to an un-instrumented network.
    pub fn set_obs(&mut self, obs: &Obs, label: &str) {
        if !obs.metrics_enabled() {
            self.obs = None;
            return;
        }
        let queue_words = self.cfg.queue_words;
        let radix = self.cfg.radix;
        let switches = self.topo.switches_per_stage();
        // Worst case per stage: every input and output queue full.
        let max_words = switches * radix * queue_words * 2;
        let bins = 32usize;
        let bin_width = ((max_words / bins) + 1) as u64;
        let blocked = (0..self.cfg.stages)
            .map(|s| {
                obs.counter(&format!("net.{label}.stage{s}.blocked_transfers"))
                    .expect("metrics enabled")
            })
            .collect();
        let occupancy = (0..self.cfg.stages)
            .map(|s| {
                obs.histogram(
                    &format!("net.{label}.stage{s}.occupancy_words"),
                    bins,
                    bin_width,
                )
                .expect("metrics enabled")
            })
            .collect();
        self.obs = Some(NetObs {
            blocked,
            exit_blocked: obs
                .counter(&format!("net.{label}.exit_blocked"))
                .expect("metrics enabled"),
            dropped: obs
                .counter(&format!("net.{label}.words_dropped"))
                .expect("metrics enabled"),
            occupancy,
            obs: obs.clone(),
        });
    }

    /// Attaches a fault schedule, declaring which direction this
    /// network plays in it. A benign plan is discarded: the network
    /// then behaves bit-identically to one with no plan attached.
    pub fn attach_faults(&mut self, direction: NetDirection, plan: FaultPlan) {
        self.direction = direction;
        self.faults = if plan.is_benign() { None } else { Some(plan) };
    }

    /// The attached fault schedule, if any.
    #[must_use]
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Whether a switch output may transmit this cycle under the
    /// attached fault schedule.
    fn output_open(&self, stage: usize, switch: usize, port: usize) -> bool {
        match &self.faults {
            None => true,
            Some(plan) => !plan.output_blocked(self.direction, stage, switch, port, self.now),
        }
    }

    /// Whether the link traversal out of `(stage, switch, port)` loses
    /// `word` this cycle. Only single-word packets are droppable: a
    /// dropped body word would corrupt wormhole reassembly downstream,
    /// and Cedar's multi-word packets (writes) are covered by the
    /// module-side fault classes instead.
    fn link_eats(&self, stage: usize, switch: usize, port: usize, word: Word) -> bool {
        match &self.faults {
            None => false,
            Some(plan) => {
                word.packet.words == 1
                    && plan.drops_word(
                        self.direction,
                        stage,
                        switch,
                        port,
                        word.packet.id.0,
                        self.now,
                    )
            }
        }
    }

    /// The network's topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The configuration this network was built with.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Current simulation time in network cycles.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Queues a packet for injection at its source port. Returns
    /// `false` without queueing if the port's injection FIFO lacks
    /// room for the whole packet — the source must retry later.
    ///
    /// # Panics
    ///
    /// Panics if the packet's source or destination port is out of
    /// range.
    pub fn try_inject(&mut self, packet: Packet) -> bool {
        assert!(packet.src < self.topo.ports(), "src out of range");
        assert!(packet.dest < self.topo.ports(), "dest out of range");
        let fifo = &mut self.inject_fifo[packet.src];
        if fifo.len() + packet.words as usize > INJECT_FIFO_WORDS {
            return false;
        }
        fifo.extend(Word::of_packet(packet));
        true
    }

    /// Words waiting in the injection FIFO of `port`.
    #[must_use]
    pub fn inject_backlog(&self, port: usize) -> usize {
        self.inject_fifo[port].len()
    }

    /// Advances the network by one network cycle.
    ///
    /// The telemetry check happens once here, not inside the per-cycle
    /// loops: the un-instrumented instantiation compiles the obs
    /// branches away entirely.
    pub fn step(&mut self) {
        if self.obs.is_some() {
            self.step_impl::<true>();
        } else {
            self.step_impl::<false>();
        }
    }

    fn step_impl<const OBS: bool>(&mut self) {
        self.now += 1;
        self.collect_exits::<OBS>();
        self.link_transfers::<OBS>();
        for stage in &mut self.stages {
            for sw in stage {
                sw.transfer(&self.topo);
            }
        }
        self.injection();
        if OBS {
            self.sample_occupancy();
        }
    }

    /// Records each stage's total buffered words into its occupancy
    /// histogram. Only called when telemetry is attached.
    fn sample_occupancy(&mut self) {
        let Some(net_obs) = &self.obs else { return };
        for (stage, &hist) in self.stages.iter().zip(&net_obs.occupancy) {
            let words: usize = stage
                .iter()
                .map(|sw| sw.words_in_inputs() + sw.words_in_outputs())
                .sum();
            net_obs.obs.record(hist, words as u64);
        }
    }

    /// Moves words from final-stage switch outputs to the exit FIFOs
    /// (one word per output position per cycle). A full exit buffer
    /// refuses the word, backing the final stage up — the consumer's
    /// congestion thereby propagates into the network.
    fn collect_exits<const OBS: bool>(&mut self) {
        let last = self.cfg.stages - 1;
        let radix = self.cfg.radix;
        for sw_idx in 0..self.topo.switches_per_stage() {
            for out_port in 0..radix {
                let pos = match self.topo.next_hop(last, sw_idx, out_port) {
                    Hop::Output(p) => p,
                    Hop::Switch { .. } => unreachable!("last stage exits the network"),
                };
                if !self.output_open(last, sw_idx, out_port) {
                    if OBS {
                        if let Some(net_obs) = &self.obs {
                            if self.stages[last][sw_idx].peek_output(out_port).is_some() {
                                net_obs.obs.inc(net_obs.blocked[last]);
                            }
                        }
                    }
                    continue;
                }
                if self.exit_fifo[pos].len() >= self.cfg.exit_fifo_words {
                    if OBS {
                        if let Some(net_obs) = &self.obs {
                            if self.stages[last][sw_idx].peek_output(out_port).is_some() {
                                net_obs.obs.inc(net_obs.exit_blocked);
                            }
                        }
                    }
                    continue;
                }
                if let Some(&word) = self.stages[last][sw_idx].peek_output(out_port) {
                    if self.link_eats(last, sw_idx, out_port, word) {
                        let _ = self.stages[last][sw_idx].pop_output(out_port);
                        self.words_dropped += 1;
                        if OBS {
                            if let Some(net_obs) = &self.obs {
                                net_obs.obs.inc(net_obs.dropped);
                            }
                        }
                        continue;
                    }
                    let word = self.stages[last][sw_idx]
                        .pop_output(out_port)
                        .expect("peeked word");
                    self.exit_fifo[pos].push_back((word, self.now));
                    self.words_exited += 1;
                }
            }
        }
    }

    /// Inter-stage link transfers, earliest stage first so that a word
    /// moves at most one switch per cycle (its arrival at stage `s+1`
    /// happens before stage `s+1`'s internal transfer this cycle,
    /// giving one full switch traversal per cycle).
    fn link_transfers<const OBS: bool>(&mut self) {
        let radix = self.cfg.radix;
        for s in (0..self.cfg.stages - 1).rev() {
            for sw_idx in 0..self.topo.switches_per_stage() {
                for out_port in 0..radix {
                    let Hop::Switch {
                        switch: next_sw,
                        input: next_in,
                    } = self.topo.next_hop(s, sw_idx, out_port)
                    else {
                        unreachable!("non-final stage feeds a switch");
                    };
                    if !self.output_open(s, sw_idx, out_port) {
                        if OBS {
                            if let Some(net_obs) = &self.obs {
                                if self.stages[s][sw_idx].peek_output(out_port).is_some() {
                                    net_obs.obs.inc(net_obs.blocked[s]);
                                }
                            }
                        }
                        continue;
                    }
                    let Some(&word) = self.stages[s][sw_idx].peek_output(out_port) else {
                        continue;
                    };
                    if !self.stages[s + 1][next_sw].can_accept(next_in) {
                        if OBS {
                            if let Some(net_obs) = &self.obs {
                                net_obs.obs.inc(net_obs.blocked[s]);
                            }
                        }
                        continue;
                    }
                    let word_taken = self.stages[s][sw_idx]
                        .pop_output(out_port)
                        .expect("peeked word");
                    if self.link_eats(s, sw_idx, out_port, word) {
                        self.words_dropped += 1;
                        if OBS {
                            if let Some(net_obs) = &self.obs {
                                net_obs.obs.inc(net_obs.dropped);
                            }
                        }
                        continue;
                    }
                    let accepted = self.stages[s + 1][next_sw].try_accept(next_in, word_taken);
                    debug_assert!(accepted, "can_accept said there was space");
                }
            }
        }
    }

    /// Moves at most one word per port from the injection FIFOs into
    /// the stage-0 input queues, only on CE-cycle boundaries.
    fn injection(&mut self) {
        if !self.now.is_multiple_of(self.cfg.net_cycles_per_ce_cycle) {
            return;
        }
        for src in 0..self.topo.ports() {
            let Some(&word) = self.inject_fifo[src].front() else {
                continue;
            };
            let (sw_idx, input) = self.topo.injection_switch(src);
            if self.stages[0][sw_idx].try_accept(input, word) {
                self.inject_fifo[src].pop_front();
                self.words_injected += 1;
            }
        }
    }

    /// The oldest unconsumed word at network output `pos`, with its
    /// exit cycle, without removing it.
    #[must_use]
    pub fn peek_output(&self, pos: usize) -> Option<&(Word, u64)> {
        self.exit_fifo[pos].front()
    }

    /// Consumes the oldest word at network output `pos`. Packet
    /// completions are tracked and surface via [`drain_delivered`].
    ///
    /// [`drain_delivered`]: Self::drain_delivered
    pub fn pop_output(&mut self, pos: usize) -> Option<(Word, u64)> {
        let (word, at) = self.exit_fifo[pos].pop_front()?;
        let progress = &mut self.exit_progress[pos];
        let entry = progress.get_or_insert(ExitProgress {
            packet: word.packet,
            head_exit: at,
            words_seen: 0,
        });
        debug_assert_eq!(entry.packet.id, word.packet.id, "interleaved exit words");
        entry.words_seen += 1;
        if entry.words_seen == entry.packet.words {
            self.delivered.push(Delivery {
                packet: entry.packet,
                head_exit: entry.head_exit,
                tail_exit: at,
            });
            *progress = None;
        }
        Some((word, at))
    }

    /// Pops every available exit word at every port (an infinite-sink
    /// consumer) and returns packets completed so far.
    pub fn drain_delivered(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.drain_delivered_into(&mut out);
        out
    }

    /// Like [`drain_delivered`](Self::drain_delivered), but appends
    /// the completions to a caller-owned buffer — the per-cycle loops
    /// reuse one buffer instead of allocating a fresh `Vec` each cycle.
    pub fn drain_delivered_into(&mut self, out: &mut Vec<Delivery>) {
        for pos in 0..self.topo.ports() {
            while self.pop_output(pos).is_some() {}
        }
        out.append(&mut self.delivered);
    }

    /// Packets fully delivered and not yet taken by
    /// [`drain_delivered`](Self::drain_delivered).
    #[must_use]
    pub fn delivered_count(&self) -> usize {
        self.delivered.len()
    }

    /// Discards the completion log without reading it. Long-running
    /// consumers that pop exit words directly and never look at the
    /// log call this each cycle to keep its memory flat instead of
    /// accumulating one entry per packet for the whole run.
    pub fn clear_delivered(&mut self) {
        self.delivered.clear();
    }

    /// Advances the clock by `cycles` without simulating them.
    ///
    /// Sound only while the network [`is idle`](Self::is_idle): an
    /// idle cycle moves no word and leaves every arbitration pointer
    /// untouched, so it is a pure clock tick. The fabric's idle
    /// fast-forward uses this to keep the network clock (which stamps
    /// exit times) in lockstep with its own after a skip.
    pub fn skip_idle_cycles(&mut self, cycles: u64) {
        debug_assert!(self.is_idle(), "skipping cycles with words in flight");
        self.now += cycles;
    }

    /// Whether any word is buffered anywhere in the network, the
    /// injection FIFOs, or the exit FIFOs.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.inject_fifo.iter().all(VecDeque::is_empty)
            && self.exit_fifo.iter().all(VecDeque::is_empty)
            && self
                .stages
                .iter()
                .flatten()
                .all(|sw| sw.words_in_inputs() == 0 && sw.words_in_outputs() == 0)
    }

    /// Total words injected into stage 0 so far.
    #[must_use]
    pub fn words_injected(&self) -> u64 {
        self.words_injected
    }

    /// Total words that exited the final stage so far.
    #[must_use]
    pub fn words_exited(&self) -> u64 {
        self.words_exited
    }

    /// Total words lost to injected link faults so far. Always zero
    /// without an attached fault schedule.
    #[must_use]
    pub fn words_dropped(&self) -> u64 {
        self.words_dropped
    }

    /// Enables (nonzero `slots`) or disables (zero) Ultracomputer-style
    /// fetch-and-add combining at every switch, with `slots` wait-buffer
    /// entries per switch. See [`Crossbar::set_combining`].
    pub fn enable_combining(&mut self, slots: usize) {
        for stage in &mut self.stages {
            for sw in stage {
                sw.set_combining(slots);
            }
        }
    }

    /// Total sync requests absorbed by combining across all switches.
    #[must_use]
    pub fn words_combined(&self) -> u64 {
        self.stages
            .iter()
            .flatten()
            .map(Crossbar::words_combined)
            .sum()
    }

    /// Absorbed packets still parked in switch wait buffers.
    #[must_use]
    pub fn combined_waiting(&self) -> usize {
        self.stages
            .iter()
            .flatten()
            .map(Crossbar::waiting_combined)
            .sum()
    }

    /// Decombination: collects every packet absorbed under survivor
    /// `id`, transitively — an absorbed packet may itself have
    /// absorbed others at an earlier stage, and those riders follow
    /// it out. Called by the fabric when the survivor's reply is
    /// produced, so each collected packet gets its own reply.
    pub fn take_combined(&mut self, id: PacketId) -> Vec<Packet> {
        let mut out = Vec::new();
        let mut ids = vec![id];
        let mut next = 0;
        while next < ids.len() {
            let id = ids[next];
            next += 1;
            for stage in &mut self.stages {
                for sw in stage {
                    let before = out.len();
                    sw.take_combined_into(id, &mut out);
                    for pkt in &out[before..] {
                        ids.push(pkt.id);
                    }
                }
            }
        }
        out
    }
}

cedar_snap::snapshot_struct!(Delivery {
    packet,
    head_exit,
    tail_exit,
});
cedar_snap::snapshot_struct!(ExitProgress {
    packet,
    head_exit,
    words_seen,
});

// The topology is a pure function of the config and is rebuilt on
// restore; telemetry handles are reattached by the caller (`set_obs`).
// Everything that carries words or arbitration state round-trips.
impl cedar_snap::Snapshot for OmegaNetwork {
    fn snap(&self, w: &mut cedar_snap::SnapWriter) {
        self.cfg.snap(w);
        self.stages.snap(w);
        self.inject_fifo.snap(w);
        self.exit_fifo.snap(w);
        self.exit_progress.snap(w);
        self.delivered.snap(w);
        self.now.snap(w);
        self.words_injected.snap(w);
        self.words_exited.snap(w);
        self.words_dropped.snap(w);
        self.direction.snap(w);
        self.faults.snap(w);
    }
    fn restore(r: &mut cedar_snap::SnapReader<'_>) -> Result<Self, cedar_snap::SnapError> {
        use cedar_snap::Snapshot;
        let cfg = NetworkConfig::restore(r)?;
        let topo = Topology::new(cfg.radix, cfg.stages)
            .map_err(|_| cedar_snap::SnapError::Invalid("network config rejected"))?;
        Ok(OmegaNetwork {
            cfg,
            topo,
            stages: Snapshot::restore(r)?,
            inject_fifo: Snapshot::restore(r)?,
            exit_fifo: Snapshot::restore(r)?,
            exit_progress: Snapshot::restore(r)?,
            delivered: Snapshot::restore(r)?,
            now: Snapshot::restore(r)?,
            words_injected: Snapshot::restore(r)?,
            words_exited: Snapshot::restore(r)?,
            words_dropped: Snapshot::restore(r)?,
            direction: Snapshot::restore(r)?,
            faults: Snapshot::restore(r)?,
            obs: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketId, PacketKind};

    fn run_until_delivered(net: &mut OmegaNetwork, max_cycles: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        for _ in 0..max_cycles {
            net.step();
            out.extend(net.drain_delivered());
        }
        out
    }

    #[test]
    fn single_packet_reaches_destination() {
        let mut net = OmegaNetwork::new(NetworkConfig::cedar());
        assert!(net.try_inject(Packet::request(5, 42, 1)));
        let deliveries = run_until_delivered(&mut net, 30);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].packet.dest, 42);
        assert!(net.is_idle());
    }

    #[test]
    fn every_src_dest_pair_is_routable() {
        // Smaller radix keeps this exhaustive test fast: 16-port net.
        let cfg = NetworkConfig {
            radix: 4,
            stages: 2,
            queue_words: 2,
            net_cycles_per_ce_cycle: 1,
            exit_fifo_words: 64,
        };
        for src in 0..16 {
            for dest in 0..16 {
                let mut net = OmegaNetwork::new(cfg);
                net.try_inject(Packet::request(src, dest, 1));
                let d = run_until_delivered(&mut net, 40);
                assert_eq!(d.len(), 1, "{src}->{dest} lost");
                assert_eq!(d[0].packet.dest, dest);
            }
        }
    }

    #[test]
    fn min_one_way_latency_is_two_net_cycles_per_stage() {
        // With net_cycles_per_ce_cycle = 1 a word injected at cycle 1
        // enters stage 0 at cycle 1, switches at cycle 2, links+switches
        // at cycle 3, and exits at cycle 4: ~2 cycles/stage + exit.
        let cfg = NetworkConfig {
            radix: 8,
            stages: 2,
            queue_words: 2,
            net_cycles_per_ce_cycle: 1,
            exit_fifo_words: 64,
        };
        let mut net = OmegaNetwork::new(cfg);
        net.try_inject(Packet::request(0, 63, 7));
        let d = run_until_delivered(&mut net, 20);
        assert_eq!(d.len(), 1);
        assert!(
            (3..=5).contains(&d[0].head_exit),
            "unloaded latency {} outside expected envelope",
            d[0].head_exit
        );
    }

    #[test]
    fn multiword_packet_exits_contiguously() {
        let mut net = OmegaNetwork::new(NetworkConfig::cedar());
        net.try_inject(Packet::write(3, 40, 1, 3));
        let d = run_until_delivered(&mut net, 40);
        assert_eq!(d.len(), 1);
        let delivery = d[0];
        assert_eq!(delivery.packet.words, 4);
        assert!(delivery.tail_exit > delivery.head_exit);
    }

    #[test]
    fn pipelined_stream_achieves_one_word_per_ce_cycle() {
        // One CE streaming single-word packets to one destination:
        // throughput is injection-limited to 1 packet per CE cycle.
        let mut net = OmegaNetwork::new(NetworkConfig::cedar());
        let total = 32u64;
        let mut injected = 0;
        let mut exits = Vec::new();
        let mut cycles = 0;
        while exits.len() < total as usize {
            if injected < total && net.try_inject(Packet::request(0, 32, injected)) {
                injected += 1;
            }
            net.step();
            for d in net.drain_delivered() {
                exits.push(d.head_exit);
            }
            cycles += 1;
            assert!(cycles < 10_000, "stream did not complete");
        }
        let gaps: Vec<u64> = exits.windows(2).map(|w| w[1] - w[0]).collect();
        let mean_gap = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        let per_ce = NetworkConfig::cedar().net_cycles_per_ce_cycle as f64;
        assert!(
            (mean_gap - per_ce).abs() < 0.3,
            "steady-state gap {mean_gap} net cycles; expected about {per_ce}"
        );
    }

    #[test]
    fn contention_to_one_port_serializes() {
        // All 8 sources of one first-stage switch target the same
        // destination: deliveries must be ~1 per CE cycle total.
        let mut net = OmegaNetwork::new(NetworkConfig::cedar());
        for src in 0..8 {
            net.try_inject(Packet::request(src, 9, src as u64));
        }
        let d = run_until_delivered(&mut net, 200);
        assert_eq!(d.len(), 8);
        let mut exits: Vec<u64> = d.iter().map(|x| x.head_exit).collect();
        exits.sort_unstable();
        let span = exits.last().unwrap() - exits.first().unwrap();
        assert!(
            span >= 7,
            "eight packets through one port need >= 7 gaps, span {span}"
        );
    }

    #[test]
    fn distinct_destinations_proceed_in_parallel() {
        // A permutation with no shared switches: src i -> dest i*8 for
        // i in 0..8 (each lands on a distinct final switch) should be
        // much faster than the serialized case.
        let mut net = OmegaNetwork::new(NetworkConfig::cedar());
        for i in 0..8usize {
            net.try_inject(Packet::request(i, i * 8, i as u64));
        }
        let d = run_until_delivered(&mut net, 60);
        assert_eq!(d.len(), 8);
        let mut exits: Vec<u64> = d.iter().map(|x| x.head_exit).collect();
        exits.sort_unstable();
        let span = exits.last().unwrap() - exits.first().unwrap();
        assert!(
            span <= 2,
            "conflict-free traffic should exit nearly together, span {span}"
        );
    }

    #[test]
    fn injection_backpressure_reported() {
        let mut net = OmegaNetwork::new(NetworkConfig::cedar());
        let mut accepted = 0;
        for id in 0..20 {
            if net.try_inject(Packet::request(0, 1, id)) {
                accepted += 1;
            }
        }
        assert_eq!(
            accepted, INJECT_FIFO_WORDS,
            "FIFO capacity bounds acceptance"
        );
        assert_eq!(net.inject_backlog(0), INJECT_FIFO_WORDS);
    }

    #[test]
    fn word_accounting_balances() {
        let mut net = OmegaNetwork::new(NetworkConfig::cedar());
        for id in 0..5 {
            net.try_inject(Packet::request(id as usize, 8 + id as usize, id));
        }
        let _ = run_until_delivered(&mut net, 60);
        assert_eq!(net.words_injected(), 5);
        assert_eq!(net.words_exited(), 5);
        assert!(net.is_idle());
    }

    #[test]
    fn sync_ops_flow_like_reads() {
        let mut net = OmegaNetwork::new(NetworkConfig::cedar());
        let pkt = Packet::new(PacketId(1), 2, 33, 2, PacketKind::SyncOp);
        net.try_inject(pkt);
        let d = run_until_delivered(&mut net, 40);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].packet.kind, PacketKind::SyncOp);
    }

    #[test]
    fn try_new_rejects_invalid_config() {
        let mut cfg = NetworkConfig::cedar();
        cfg.radix = 6;
        let err = OmegaNetwork::try_new(cfg).unwrap_err();
        assert!(err.to_string().contains("net.radix"), "{err}");
    }

    mod obs {
        use super::*;
        use cedar_obs::{Obs, ObsConfig};

        #[test]
        fn contention_shows_up_in_blocked_counters_and_occupancy() {
            let mut net = OmegaNetwork::new(NetworkConfig::cedar());
            let obs = Obs::new(ObsConfig::metrics_only());
            net.set_obs(&obs, "fwd");
            // All 8 sources of one switch to one destination: heavy
            // contention, so some stage must report blocked transfers.
            for round in 0..4u64 {
                for src in 0..8 {
                    net.try_inject(Packet::request(src, 9, round * 8 + src as u64));
                }
                for _ in 0..50 {
                    net.step();
                }
                let _ = net.drain_delivered();
            }
            let blocked = obs.with(|inner| inner.metrics.rollup("net.fwd.")).unwrap();
            assert!(blocked > 0, "contention must register somewhere");
            let occupancy = obs
                .with(|inner| {
                    inner
                        .metrics
                        .histogram_entry("net.fwd.stage0.occupancy_words")
                        .map(|e| e.bins.total())
                })
                .unwrap()
                .unwrap();
            assert!(occupancy > 0, "occupancy sampled every cycle");
        }

        #[test]
        fn disabled_handle_attaches_nothing() {
            let mut net = OmegaNetwork::new(NetworkConfig::cedar());
            let obs = Obs::disabled();
            net.set_obs(&obs, "fwd");
            assert!(net.obs.is_none());
            net.try_inject(Packet::request(0, 1, 1));
            for _ in 0..20 {
                net.step();
            }
            assert_eq!(obs.counter_value("net.fwd.exit_blocked"), 0);
        }
    }

    mod faults {
        use super::*;
        use cedar_faults::{FaultConfig, FaultPlan, MachineShape, NetDirection};

        fn cedar_plan(cfg: &FaultConfig) -> FaultPlan {
            FaultPlan::generate(cfg, &MachineShape::cedar()).unwrap()
        }

        fn run_traffic(net: &mut OmegaNetwork) -> Vec<Delivery> {
            for id in 0..32u64 {
                net.try_inject(Packet::request(
                    (id % 8) as usize,
                    8 + (id % 16) as usize,
                    id,
                ));
            }
            let mut out = Vec::new();
            for _ in 0..400 {
                net.step();
                out.extend(net.drain_delivered());
            }
            out
        }

        #[test]
        fn benign_plan_is_bit_identical_to_no_plan() {
            let mut healthy = OmegaNetwork::new(NetworkConfig::cedar());
            let mut benign = OmegaNetwork::new(NetworkConfig::cedar());
            benign.attach_faults(NetDirection::Forward, cedar_plan(&FaultConfig::none(1)));
            assert!(benign.faults().is_none(), "benign plan is discarded");
            let a = run_traffic(&mut healthy);
            let b = run_traffic(&mut benign);
            assert_eq!(a, b);
            assert_eq!(healthy.words_exited(), benign.words_exited());
            assert_eq!(benign.words_dropped(), 0);
        }

        #[test]
        fn degraded_run_is_deterministic() {
            let cfg = FaultConfig::degraded(0xD15EA5E, 0.05);
            let mut a = OmegaNetwork::new(NetworkConfig::cedar());
            let mut b = OmegaNetwork::new(NetworkConfig::cedar());
            a.attach_faults(NetDirection::Forward, cedar_plan(&cfg));
            b.attach_faults(NetDirection::Forward, cedar_plan(&cfg));
            assert_eq!(run_traffic(&mut a), run_traffic(&mut b));
            assert_eq!(a.words_dropped(), b.words_dropped());
        }

        #[test]
        fn word_accounting_includes_drops() {
            let mut net = OmegaNetwork::new(NetworkConfig::cedar());
            net.attach_faults(
                NetDirection::Forward,
                cedar_plan(&FaultConfig::link_noise(7, 0.3)),
            );
            let delivered = run_traffic(&mut net);
            assert!(net.words_dropped() > 0, "30% loss over 32 packets");
            assert!(delivered.len() < 32, "some packets were lost");
            assert_eq!(
                net.words_injected(),
                net.words_exited() + net.words_dropped(),
                "every injected word either exits or is dropped"
            );
            assert!(net.is_idle(), "lost packets leave no residue");
        }

        #[test]
        fn multiword_packets_are_never_dropped() {
            let mut net = OmegaNetwork::new(NetworkConfig::cedar());
            net.attach_faults(
                NetDirection::Forward,
                cedar_plan(&FaultConfig::link_noise(7, 1.0)),
            );
            net.try_inject(Packet::write(3, 40, 1, 3));
            let mut out = Vec::new();
            for _ in 0..100 {
                net.step();
                out.extend(net.drain_delivered());
            }
            assert_eq!(out.len(), 1, "writes survive even total link noise");
            assert_eq!(out[0].packet.words, 4);
            assert_eq!(net.words_dropped(), 0);
        }

        #[test]
        fn stuck_outputs_delay_but_do_not_lose_packets() {
            let cfg = FaultConfig {
                stuck_outputs: 4,
                stuck_window_cycles: 200,
                ..FaultConfig::none(21)
            };
            let mut net = OmegaNetwork::new(NetworkConfig::cedar());
            net.attach_faults(NetDirection::Forward, cedar_plan(&cfg));
            let mut delivered = Vec::new();
            for id in 0..16u64 {
                net.try_inject(Packet::request(id as usize, 32 + id as usize, id));
            }
            // Long enough for every stuck window to open again.
            for _ in 0..80_000 {
                net.step();
                delivered.extend(net.drain_delivered());
                if delivered.len() == 16 {
                    break;
                }
            }
            assert_eq!(delivered.len(), 16, "stuck windows heal; nothing is lost");
            assert_eq!(net.words_dropped(), 0);
        }
    }
}
