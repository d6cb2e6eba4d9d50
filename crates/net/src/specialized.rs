//! The specialized cycle engine: topology-monomorphized stepping for
//! the un-instrumented fabric, healthy or faulted.
//!
//! The generic engine in [`fabric`](super) and [`network`](crate::network)
//! is an interpreter: every cycle walks `Vec<VecDeque<Word>>` queues,
//! `Option` locks and fault/telemetry hooks scattered across hundreds
//! of small heap allocations, and asks the fault plan about every
//! output and module. That flexibility is what the observability
//! studies need — but the Table 2 reference runs and the degraded
//! sweeps spend their whole budget in it. This module is the celox
//! move (ROADMAP item 1): when the configuration matches the supported
//! family, the two omega networks are compiled into flat
//! structure-of-arrays state and stepped by a const-generic,
//! branch-lean loop, replicating the generic engine *state for state*
//! so reports and checkpoints stay bit-identical.
//!
//! # Eligibility and fallback
//!
//! [`RoundTripFabric::drive_experiment`](super::RoundTripFabric::drive_experiment)
//! consults [`EngineKind`] ([`Auto`](EngineKind::Auto) unless a test
//! or benchmark sets [`Generic`](EngineKind::Generic)) and the private
//! eligibility check. A run specializes when:
//!
//! - no telemetry handle is attached (obs hooks are compiled out, so
//!   an attached `Obs` would silently go blind), and
//! - the network family fits the packed lanes: 1–4 stages, radix ≤ 64,
//!   ≤ 4096 ports, switch queues ≤ 64 words, exit FIFOs ≤ 65536 words,
//!   module buffers ≤ 64 requests,
//! - the networks' delivery logs are drained (the specialized engine
//!   does not maintain them),
//! - and an attached fault plan names no module beyond the network
//!   (a retry re-aimed there would index the lanes out of bounds).
//!
//! # Faults and recovery
//!
//! A run with a fault plan or recovery state takes the `F = true`
//! instantiation of the loop; without one, `F = false` compiles every
//! fault hook out, so a healthy run steps exactly the hook-free loop.
//! At import the plan is compiled into masks: per switch, the outputs
//! any stuck window or slowdown names (`NetFaults`), and the modules
//! any stall or fail-stop names (`SpecModules::fault_mask`). Only
//! masked outputs ask `output_blocked` and only masked modules ask
//! `module_stalled` / `module_failed`; masked modules are visited every
//! cycle, as the generic engine visits every module. Every link hop of
//! a single-word packet asks `drops_on_link` with its link's key, which
//! import precomputes (`FaultPlan::link_key`), and so gets `drops_word`'s
//! answer. Issue, reply ejection and the retry timers run the generic
//! recovery code (`RecoveryState::register`, `resolve` and `fire_due`)
//! at the same point of the cycle, so retries, dedup and abandonment
//! happen in the same order.
//!
//! Anything else falls back to the generic engine, bumps the
//! `engine.fallback` obs counter when metrics are live, and records
//! the reason in `last_fallback`.
//!
//! # Record layout and event masks
//!
//! Each network becomes a `SpecNet`. Its switches live in one flat
//! `u64` array, one contiguous record per switch: one cell per port
//! holding the output's candidate mask, the output and input queues'
//! packed state words (head, length, wormhole lock and, for outputs,
//! the round-robin pointer), the precomputed link targets up and down
//! the network, the switched-word count and both queues' rings. A grant
//! addresses its switch's cells from one base, and its only store
//! outside the record is the upstream unblock. The event masks follow
//! the records, one bit per port in port order, so a stage's masks are
//! a few 64-bit words and each pass walks a whole word of ports —
//! several switches — in one loop with the word's masks in registers.
//! The dimensions that address the records are copied into locals for
//! a stepping pass, and Cedar's own shape (8×8 switches, 2-word queues)
//! has an instantiation with every dimension a constant. The
//! inject/exit FIFOs and exit-progress trackers stay per-port lanes,
//! and the memory modules flatten into a `SpecModules`.
//!
//! Exit FIFOs are sized lazily. The reverse network's exit FIFOs hold
//! 512 words, but the CE ports drain them every cycle, so a reply
//! port never holds more than a word or two. Each import sizes the
//! exit rings at the largest imported occupancy, at least four words,
//! rounded up to a power of two, and a `#[cold]` path doubles every
//! ring before a push would overflow one, up to the capacity. The
//! capacity check that backpressures the last stage is unchanged.
//!
//! The throughput win over a straight SoA transcription comes from
//! replacing every per-cycle scan with an incrementally maintained
//! bitmask:
//!
//! - `C_CAND` — for each switch output, the set of unlocked inputs
//!   whose buffered *header* word routes to it. Updated when a word
//!   enters an empty unlocked input, when a grant consumes a header,
//!   and when a tail unlocks an input — never by scanning. Arbitration
//!   becomes two shifts and a `trailing_zeros`.
//! - `M_GRANTABLE` — outputs that are locked mid-packet or have a
//!   candidate; `transfer` walks `grantable & !full` instead of every
//!   output.
//! - `M_NONEMPTY` / `M_FULL` — drive the link and exit phases straight
//!   to occupied queues. A pass holds a word of these three in
//!   registers and stores it once.
//! - `M_BLOCKED` and the injection backpressure mask — outputs and
//!   sources whose downstream queue is full. The push that fills a
//!   queue sets the bit of whatever feeds it (`C_UP`) and the pop that
//!   frees it clears the bit, so links, exits and injection never load
//!   downstream state to find out.
//! - `inj_mask` / `exit_mask` — ports with buffered inject/exit words,
//!   so injection, module service and reply ejection touch only live
//!   ports.
//! - `pend_full` — modules whose pending buffer is full. An arriving
//!   word alone does not bring such a module into the visit set: the
//!   generic visit would refuse the word and, with no reply live and no
//!   wake due, start nothing. Set by `push_pending`, cleared by a serve
//!   and by a fail-stop.
//! - `issuable` (in the experiment loop) — sources that might issue at
//!   the next CE boundary. A source is parked while only a reply or an
//!   abandonment can change its outcome (window full, block window
//!   closed, stream done), and while its packet does not fit its
//!   injection FIFO — but only when the failed attempt drew nothing
//!   from its RNG: block starts redraw their stream bases and hot-spot
//!   reads draw a coin on every attempt, so those repeat every
//!   boundary. Ejection and abandonment re-arm a source, and so does
//!   `inj_popped`, which injection sets whenever it pops a source's
//!   FIFO.
//!
//! The per-cycle bookkeeping has no divisions when the ratios are
//! powers of two: the module wake wheel is a power-of-two ring indexed
//! by mask, and the CE boundary and CE cycle are a mask and a shift
//! when the net-to-CE clock ratio is a power of two (`CeClock`).
//! Issuing a read has none at all: each source's stream and module
//! offset advance with its request index (`IssueCursor`).
//!
//! `import` copies a generic network in (building the masks once),
//! `export` writes the exact generic representation back, so a
//! checkpoint taken after a specialized run is byte-identical to one
//! from a generic run.
//!
//! # Phase ledger
//!
//! [`RoundTripFabric::drive_with_ledger`] runs the `L = true`
//! instantiation of the loop, a const generic like `F` and `MULTI`.
//! It fills a [`PhaseLedger`]: per [`Phase`], how many work items the
//! loop examined and how many did something, plus host time on one
//! live cycle in 31 and the import/export cost. Every drive through
//! [`drive_experiment`](super::RoundTripFabric::drive_experiment)
//! takes `L = false`, where each ledger statement is dead code, so the
//! production loop carries none of it.

use super::*;
use crate::network::INJECT_FIFO_WORDS;
use std::time::Instant;

/// Which execution engine a fabric uses for experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Always interpret with the generic engine: the reference the
    /// differential tests and `perf`'s engine ratio compare against.
    Generic,
    /// Specialize when eligible, fall back to generic otherwise (the
    /// default).
    Auto,
}

// ---------------------------------------------------------------------------
// Packed word metadata: dest | src | words | index | kind in one u32.
// The eligibility bound of 4096 ports keeps dest and src in 12 bits;
// MAX_PACKET_WORDS = 4 keeps words and index in 3.
// ---------------------------------------------------------------------------

const META_PORT_MASK: u32 = 0xFFF;
const META_SRC_SHIFT: u32 = 12;
const META_WORDS_SHIFT: u32 = 24;
const META_INDEX_SHIFT: u32 = 27;
const META_KIND_SHIFT: u32 = 30;

#[inline]
fn kind_tag(kind: PacketKind) -> u32 {
    match kind {
        PacketKind::ReadRequest => 0,
        PacketKind::Write => 1,
        PacketKind::SyncOp => 2,
        PacketKind::Reply => 3,
    }
}

#[inline]
fn kind_from_tag(tag: u32) -> PacketKind {
    match tag & 3 {
        0 => PacketKind::ReadRequest,
        1 => PacketKind::Write,
        2 => PacketKind::SyncOp,
        _ => PacketKind::Reply,
    }
}

#[inline]
fn pack_packet_meta(p: &Packet) -> u32 {
    debug_assert!(p.dest as u32 <= META_PORT_MASK && p.src as u32 <= META_PORT_MASK);
    p.dest as u32
        | (p.src as u32) << META_SRC_SHIFT
        | u32::from(p.words) << META_WORDS_SHIFT
        | kind_tag(p.kind) << META_KIND_SHIFT
}

#[inline]
fn pack_word_meta(w: &Word) -> u32 {
    pack_packet_meta(&w.packet) | u32::from(w.index) << META_INDEX_SHIFT
}

#[inline]
fn unpack_packet(id: u64, meta: u32) -> Packet {
    // Constructed literally (the fields are pub) so the index bits of
    // word metas are ignored without a round-trip through `Packet::new`.
    Packet {
        id: PacketId(id),
        src: meta_src(meta) as usize,
        dest: (meta & META_PORT_MASK) as usize,
        words: meta_words(meta) as u8,
        kind: kind_from_tag(meta >> META_KIND_SHIFT),
    }
}

#[inline]
fn unpack_word(id: u64, meta: u32) -> Word {
    Word {
        packet: unpack_packet(id, meta),
        index: meta_index(meta) as u8,
    }
}

#[inline]
fn meta_dest(meta: u32) -> u32 {
    meta & META_PORT_MASK
}

#[inline]
fn meta_src(meta: u32) -> u32 {
    (meta >> META_SRC_SHIFT) & META_PORT_MASK
}

#[inline]
fn meta_words(meta: u32) -> u32 {
    (meta >> META_WORDS_SHIFT) & 7
}

#[inline]
fn meta_index(meta: u32) -> u32 {
    (meta >> META_INDEX_SHIFT) & 7
}

#[inline]
fn meta_kind(meta: u32) -> u32 {
    meta >> META_KIND_SHIFT
}

/// Whether a word meta is its packet's last word.
#[inline]
fn meta_is_tail(meta: u32) -> bool {
    meta_index(meta) + 1 == meta_words(meta)
}

/// The reply a served request produces, as a packed meta: src and dest
/// swapped, one word, `Reply` kind. Mirrors `Packet::reply`: reads and
/// sync operations, the even kind tags, are answered.
#[inline]
fn reply_meta(meta: u32) -> Option<u32> {
    (meta_kind(meta) & 1 == 0).then(|| {
        meta_src(meta)
            | meta_dest(meta) << META_SRC_SHIFT
            | 1 << META_WORDS_SHIFT
            | kind_tag(PacketKind::Reply) << META_KIND_SHIFT
    })
}

// ---------------------------------------------------------------------------
// SpecNet: one omega network flattened into one record per switch.
// ---------------------------------------------------------------------------

/// One buffered FIFO word: packet id plus packed meta, stored together
/// so a queue operation costs one indexed access instead of two.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    id: u64,
    meta: u32,
}

/// One exit-FIFO word: a [`Slot`] plus the cycle it left the network.
#[derive(Debug, Clone, Copy, Default)]
struct ExitSlot {
    id: u64,
    at: u64,
    meta: u32,
}

/// Ring-buffer state packed into one `u16`: head in the low byte, live
/// length in the high byte (capacities are bounded at 64 by
/// eligibility, so both fit with room to spare).
#[inline]
fn hl_pack(head: usize, len: usize) -> u16 {
    (head | len << 8) as u16
}

#[inline]
fn hl_head(hl: u16) -> usize {
    (hl & 0xFF) as usize
}

#[inline]
fn hl_len(hl: u16) -> usize {
    (hl >> 8) as usize
}

/// Lock byte meaning "no lock held" in a packed queue-state word.
const ST_NO_LOCK: u32 = 0xFF;

/// Switch-queue state packed into one `u32`: ring head in bits 0..8,
/// live length in bits 8..16, wormhole lock in bits 16..24
/// ([`ST_NO_LOCK`] when unlocked, else the peer port number; radix is
/// bounded at 64 by eligibility so a real port never collides with
/// the sentinel), and — output queues only — the round-robin pointer
/// in bits 24..32 ([`ST_RR_SHIFT`]). One load yields everything the
/// grant path needs to know about an output, and one store commits a
/// push, a lock transition and the pointer's advance.
#[inline]
fn st_pack(head: usize, len: usize, lock: u32) -> u32 {
    (head | len << 8) as u32 | lock << 16
}

#[inline]
fn st_head(st: u32) -> usize {
    (st & 0xFF) as usize
}

#[inline]
fn st_len(st: u32) -> usize {
    ((st >> 8) & 0xFF) as usize
}

#[inline]
fn st_lock(st: u32) -> u32 {
    (st >> 16) & 0xFF
}

/// Position of an output queue's round-robin pointer in its state word.
const ST_RR_SHIFT: u32 = 24;
/// The round-robin pointer's bits in an output queue's state word.
const ST_RR_BITS: u32 = 0xFF << ST_RR_SHIFT;

/// Bounds-check-free lane read for the hot stepping paths. Every index
/// is derived from dimensions validated by `specialization_blocker`
/// (port/switch/queue arithmetic over fixed lane shapes), and debug
/// builds — including the whole test suite and the differential fuzz
/// run — verify each access. Release builds skip the redundant check:
/// the specialized engine's inner loops index a dozen lanes per word
/// moved, and the elided compare/branch pairs are a measurable share
/// of its per-event budget.
#[inline(always)]
fn ld<T: Copy>(lane: &[T], i: usize) -> T {
    debug_assert!(i < lane.len(), "lane index out of bounds");
    // SAFETY: `i` is in bounds — checked in debug builds above, and
    // derived from eligibility-validated dims at every call site.
    unsafe { *lane.get_unchecked(i) }
}

/// Bounds-check-free lane slot for writes; see [`ld`].
#[inline(always)]
fn at<T>(lane: &mut [T], i: usize) -> &mut T {
    debug_assert!(i < lane.len(), "lane index out of bounds");
    // SAFETY: `i` is in bounds — checked in debug builds above, and
    // derived from eligibility-validated dims at every call site.
    unsafe { lane.get_unchecked_mut(i) }
}

// Switch records. Every switch port has a cell of `1 << cshift` words in
// `recs`; the cells of one switch are contiguous (its record), and the
// records of one stage follow each other in switch order. A port is named
// by its global position `gpos = s * span + pos`: stage `s`, stage
// position `pos = sw * radix + port`, and `span` the stage width rounded
// up to whole 64-bit mask words. Its cell starts at word `gpos << cshift`.
// After the cells come the event masks, one bit per port, and the
// injection backpressure mask (see `Dims`).

/// Port cell, as an output: the unlocked inputs whose buffered header
/// routes here.
const C_CAND: usize = 0;
/// Port cell: the output queue's state word (see `st_pack`).
const C_OUT_ST: usize = 1;
/// Port cell: the input queue's state word.
const C_IN_ST: usize = 2;
/// Port cell, as an input: the backpressure bit of whatever feeds the
/// queue, as `word << 6 | bit` in `recs` — the upstream output's
/// `M_BLOCKED` bit, or at stage 0 the source's bit of the injection
/// mask. Set while the queue is full.
const C_UP: usize = 3;
/// Port cell, as an output of every stage but the last: the global
/// position of the input its link feeds.
const C_DOWN: usize = 4;
/// Port cell: the packet id holding the output's wormhole lock (read
/// only while the lock is held).
const C_LOCK_ID: usize = 5;
/// Port cell: words this output has taken from the switch's inputs. A
/// switch's `words_switched` is the sum over its ports.
const C_SWITCHED: usize = 6;
/// Port cell: the queue rings. Entry `k` is four words, the output
/// slot's id and meta, then the input slot's.
const C_RING: usize = 7;
/// The input slot's offset within a ring entry.
const RING_IN: usize = 2;

/// Event mask: outputs locked mid-packet or with a candidate.
const M_GRANTABLE: usize = 0;
/// Event mask: outputs with buffered words.
const M_NONEMPTY: usize = 1;
/// Event mask: outputs whose queue is full.
const M_FULL: usize = 2;
/// Event mask: outputs whose downstream input (links) or exit FIFO
/// (last stage) is full, kept exact by the push that fills it and the
/// pop that frees it, so links and exits never look downstream first.
const M_BLOCKED: usize = 3;

/// One mask word's three event masks, held in registers while a pass
/// walks its ports: loaded once and stored once.
#[derive(Clone, Copy)]
struct Masks {
    grantable: u64,
    nonempty: u64,
    full: u64,
}

/// The dimensions that address a network's records and masks.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Dims {
    rbits: u32,
    rmask: usize,
    /// Ports per stage.
    ports: usize,
    /// Mask words per stage; a stage spans `pwords * 64` positions.
    pwords: usize,
    queue_words: usize,
    qmask: usize,
    /// A port cell is `1 << cshift` words.
    cshift: u32,
    /// The first word of the event masks: mask `k` of mask word `w` is
    /// at `masks + k * mwords + w`.
    masks: usize,
    /// Mask words per mask, all stages.
    mwords: usize,
    /// Per stage, the shift that brings a destination's routing digit
    /// to the bottom.
    dest_shift: [u32; 4],
}

impl Dims {
    /// The dimensions of a network with `stages` stages of
    /// `radix`-port switches whose queues hold `queue_words` words.
    const fn new(radix: usize, stages: usize, queue_words: usize) -> Dims {
        let rbits = radix.trailing_zeros();
        let ports = radix.pow(stages as u32);
        let pwords = ports.div_ceil(64);
        let qcap = queue_words.next_power_of_two();
        let cshift = (C_RING + 4 * qcap).next_power_of_two().trailing_zeros();
        let mut dest_shift = [0; 4];
        let mut s = 0;
        while s < stages {
            dest_shift[s] = rbits * (stages - 1 - s) as u32;
            s += 1;
        }
        Dims {
            rbits,
            rmask: radix - 1,
            ports,
            pwords,
            queue_words,
            qmask: qcap - 1,
            cshift,
            masks: (stages * pwords * 64) << cshift,
            mwords: stages * pwords,
            dest_shift,
        }
    }

    /// These dimensions, or with `C` set the constant [`CEDAR_DIMS`]
    /// they equal (the dispatch checks), so every shift and mask folds.
    #[inline(always)]
    fn pick<const C: bool>(self) -> Dims {
        if C {
            debug_assert!(self == CEDAR_DIMS, "constant shape on another network");
            CEDAR_DIMS
        } else {
            self
        }
    }

    /// The global position of stage-`s` position `pos`.
    #[inline(always)]
    fn gpos(&self, s: usize, pos: usize) -> usize {
        s * (self.pwords << 6) + pos
    }

    /// The first word of the cell at global position `gpos`.
    #[inline(always)]
    fn cell(&self, gpos: usize) -> usize {
        gpos << self.cshift
    }

    /// Word `w` of event mask `kind`.
    #[inline(always)]
    fn mask_word(&self, kind: usize, w: usize) -> usize {
        self.masks + kind * self.mwords + w
    }

    /// The word of event mask `kind` holding global position `gpos`'s bit.
    #[inline(always)]
    fn mask(&self, kind: usize, gpos: usize) -> usize {
        self.mask_word(kind, gpos >> 6)
    }

    /// The injection backpressure mask's word `w`, after the masks.
    #[inline(always)]
    fn inj_blocked(&self, w: usize) -> usize {
        self.masks + 4 * self.mwords + w
    }

    /// Words of `recs` in all.
    fn len(&self) -> usize {
        self.inj_blocked(self.pwords)
    }

    /// The ring-entry word of queue position `k` in the cell at `cell`
    /// (the output slot; the input slot is `RING_IN` words on).
    #[inline(always)]
    fn ring(&self, cell: usize, k: usize) -> usize {
        cell + C_RING + ((k & self.qmask) << 2)
    }

    /// The output a header word with `meta` takes at stage `s`.
    #[inline(always)]
    fn route(&self, s: usize, meta: u32) -> usize {
        (meta_dest(meta) >> ld(&self.dest_shift, s)) as usize & self.rmask
    }
}

/// Cedar's network: two stages of 8×8 crossbars with 2-word queues.
/// The stepper has an instantiation for it with every dimension a
/// constant (`C = true`); any other shape steps the same source with
/// the dimensions read at run time.
const CEDAR_DIMS: Dims = Dims::new(8, 2, 2);

// The record operations of a stepping pass take the dimensions by value
// and the records as a slice. Held in locals, the dimensions stay in
// registers across the record stores; read through `&mut SpecNet`, the
// compiler reloads them after every store, since it cannot prove the
// records do not overlap the struct.
impl Dims {
    /// Appends a word to the stage-`s` input at global position `gin`,
    /// maintaining the candidate and grantable masks and the feeder's
    /// backpressure bit. The input is not full (its feeder is blocked
    /// while it is).
    #[inline(always)]
    fn push_input(self, recs: &mut [u64], s: usize, gin: usize, id: u64, meta: u32) {
        let d = self;
        let cell = d.cell(gin);
        let st = ld(recs, cell + C_IN_ST) as u32;
        debug_assert!(st_len(st) < d.queue_words);
        let slot = d.ring(cell, st_head(st) + st_len(st)) + RING_IN;
        *at(recs, slot) = id;
        *at(recs, slot + 1) = u64::from(meta);
        *at(recs, cell + C_IN_ST) = u64::from(st + 0x100);
        // Filling the queue backpressures whatever feeds it.
        let up = ld(recs, cell + C_UP) as usize;
        let filled = u64::from(st_len(st) + 1 == d.queue_words);
        *at(recs, up >> 6) |= filled << (up & 63);
        // A word landing in an empty unlocked queue is a header (the
        // wormhole invariant) and becomes the queue's candidate for
        // the output it routes to: a masked store, not a branch.
        let fresh = u64::from(st >> 8 == ST_NO_LOCK << 8);
        let gout = (gin & !d.rmask) + d.route(s, meta);
        *at(recs, d.cell(gout) + C_CAND) |= fresh << (gin & d.rmask);
        *at(recs, d.mask(M_GRANTABLE, gout)) |= fresh << (gout & 63);
    }

    /// Pops the head word of the output at global position `gpos`,
    /// maintaining its mask word's register-resident masks. The caller
    /// has already checked non-emptiness.
    #[inline(always)]
    fn pop_out(self, recs: &mut [u64], gpos: usize, v: &mut Masks) -> (u64, u32) {
        let d = self;
        let cell = d.cell(gpos);
        let st = ld(recs, cell + C_OUT_ST) as u32;
        debug_assert!(st_len(st) > 0);
        let slot = d.ring(cell, st_head(st));
        let (id, meta) = (ld(recs, slot), ld(recs, slot + 1) as u32);
        *at(recs, cell + C_OUT_ST) = u64::from(
            st & ST_RR_BITS | st_pack((st_head(st) + 1) & d.qmask, st_len(st) - 1, st_lock(st)),
        );
        let bit = gpos & 63;
        v.nonempty &= !(u64::from(st_len(st) == 1) << bit);
        v.full &= !(1u64 << bit);
        (id, meta)
    }

    /// The internal transfer cycle of every switch in mask word `w` of
    /// stage `s`: the exact generic `Crossbar::transfer`, switches in
    /// order and each switch's outputs in ascending order over live
    /// state (so one input can feed several outputs in a cycle, as the
    /// generic switch allows) — but walking only the grantable, non-full
    /// outputs, all of the word's switches in one loop. The masks come
    /// in and go out by value, so they stay in registers for the whole
    /// walk, and a grant touches only its own switch's record but for
    /// the upstream unblock. The grant body is written with arithmetic
    /// selects instead of data-dependent branches: the round-robin pick
    /// is a rotate, and the next-header re-expose and the upstream
    /// unblock are masked stores that write nothing when they do not
    /// apply. The moved-word path keeps one unpredictable branch, the
    /// empty-locked-input skip, and only under `MULTI`.
    fn transfer<const C: bool, const MULTI: bool, const L: bool>(
        self,
        recs: &mut [u64],
        s: usize,
        w: usize,
        v: Masks,
        census: &mut [u64; 4],
    ) -> Masks {
        let Masks {
            grantable: mut g,
            nonempty: mut ne,
            full: mut fl,
        } = v;
        let d = self.pick::<C>();
        let Dims {
            cshift,
            qmask,
            rmask,
            queue_words: qw,
            ..
        } = d;
        let dest_shift = ld(&d.dest_shift, s);
        let word = w << 6;
        let mut switched = 0u64;
        // The outputs still to visit, ascending. Only a re-exposed
        // header can add one past `bit` (below), so the walk's next
        // step never waits on this grant's loads.
        let mut todo = g & !fl;
        while todo != 0 {
            let bit = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            if L {
                census[0] += 1;
            }
            // The output's port, and its switch's port 0 as a bit of
            // this word and as a global position (a switch's ports
            // share a mask word: the radix divides 64).
            let out = bit & rmask;
            let base_bit = bit - out;
            let cells = (word + base_bit) << cshift;
            let oc = cells + (out << cshift);
            let ost = ld(recs, oc + C_OUT_ST) as u32;
            debug_assert!(
                MULTI || st_lock(ost) == ST_NO_LOCK,
                "lock without multi-word packet"
            );
            let lock_in = if MULTI { st_lock(ost) } else { ST_NO_LOCK };
            let unlocked = lock_in == ST_NO_LOCK;
            // Round-robin: first candidate at or after rr_next,
            // wrapping. Rotating the candidates right by rr_next puts
            // that candidate at the lowest set bit; the radix divides
            // 64, so the wrapped index reduces with `rmask`. Under a
            // held lock the selection is ignored and the pointer
            // written back unchanged — a select, not a branch.
            let m = ld(recs, oc + C_CAND);
            debug_assert!(
                !unlocked || m != 0,
                "grantable output with no lock and no candidates"
            );
            let start = ost >> ST_RR_SHIFT;
            let rr_pick = (start + m.rotate_right(start).trailing_zeros()) as usize & rmask;
            let input = if unlocked { rr_pick } else { lock_in as usize };
            let rr_next = if unlocked {
                ((rr_pick + 1) & rmask) as u32
            } else {
                start
            };
            let ic = cells + (input << cshift);
            let ist = ld(recs, ic + C_IN_ST) as u32;
            let ilen = st_len(ist);
            debug_assert!(MULTI || ilen > 0, "empty candidate input");
            if MULTI && ilen == 0 {
                continue; // locked input has no word buffered yet
            }
            let ihead = st_head(ist);
            let ihead2 = (ihead + 1) & qmask;
            let islot = ic + C_RING + RING_IN + (ihead << 2);
            let (id, meta) = (ld(recs, islot), ld(recs, islot + 1) as u32);
            debug_assert!(
                unlocked || recs[oc + C_LOCK_ID] == id,
                "wormhole violation: interleaved packet on a locked output"
            );
            debug_assert!(
                MULTI || meta_words(meta) == 1,
                "multi-word word past the census"
            );
            let index = meta_index(meta);
            let tail = !MULTI || index + 1 == meta_words(meta);
            let first = !MULTI || index == 0;
            // Lock transitions: a tail releases both sides, a non-tail
            // header locks both, anything else leaves them unchanged.
            let new_ilock = if tail {
                ST_NO_LOCK
            } else if first {
                out as u32
            } else {
                st_lock(ist)
            };
            let new_olock = if tail {
                ST_NO_LOCK
            } else if first {
                input as u32
            } else {
                lock_in
            };
            *at(recs, ic + C_IN_ST) = u64::from(st_pack(ihead2, ilen - 1, new_ilock));
            // Popping a full input queue makes space for whatever was
            // backpressured behind it: the upstream link (s > 0) or
            // the source injection FIFO (s == 0), both named by the
            // input's precomputed target. The clear is masked to
            // nothing when the queue was not full.
            let freed = u64::from(ilen == qw);
            let up = ld(recs, ic + C_UP) as usize;
            *at(recs, up >> 6) &= !(freed << (up & 63));
            // The lock id is only read while the lock is held, so the
            // store can be unconditional (a held lock's id already
            // equals `id` by the wormhole invariant).
            if MULTI {
                *at(recs, oc + C_LOCK_ID) = id;
            }
            // An input left unlocked with words buffered exposes its
            // next header for arbitration. The slot behind the head is
            // read either way (a stale slot still routes inside the
            // switch) and the candidate bit masked in only when it
            // applies.
            let expose = u64::from((new_ilock == ST_NO_LOCK) & (ilen > 1));
            let meta2 = ld(recs, ic + C_RING + RING_IN + (ihead2 << 2) + 1) as u32;
            debug_assert!(
                expose == 0 || meta_index(meta2) == 0,
                "continuation word on unlocked input"
            );
            let out2 = (meta_dest(meta2) >> dest_shift) as usize & rmask;
            let bit2 = base_bit + out2;
            let cand =
                m & !(u64::from(unlocked) << input) | (expose & u64::from(out2 == out)) << input;
            *at(recs, oc + C_CAND) = cand;
            *at(recs, cells + (out2 << cshift) + C_CAND) |= expose << input;
            // A header exposed for a non-full output later in the walk
            // is granted this cycle too, as in the generic switch. That
            // is rare, so it is a branch: predicted not taken, the walk
            // runs ahead of this grant's loads.
            let late = (expose << bit2) & !fl & (!1u64 << bit);
            if late != 0 {
                std::hint::cold_path();
                todo |= late;
            }
            let still = new_olock != ST_NO_LOCK || cand != 0;
            g = (g & !(1u64 << bit)) | u64::from(still) << bit | expose << bit2;
            let (ohead, olen) = (st_head(ost), st_len(ost));
            let oslot = oc + C_RING + (((ohead + olen) & qmask) << 2);
            *at(recs, oslot) = id;
            *at(recs, oslot + 1) = u64::from(meta);
            *at(recs, oc + C_OUT_ST) =
                u64::from(st_pack(ohead, olen + 1, new_olock) | rr_next << ST_RR_SHIFT);
            *at(recs, oc + C_SWITCHED) += 1;
            ne |= 1u64 << bit;
            fl |= u64::from(olen + 1 == qw) << bit;
            switched += 1;
        }
        if L {
            census[1] += switched;
        }
        Masks {
            grantable: g,
            nonempty: ne,
            full: fl,
        }
    }
}

/// One exit's progress tracker (the generic `ExitProgress`): the packet
/// whose words are leaving there, when it started and how many left.
#[derive(Debug, Clone, Copy, Default)]
struct Progress {
    live: bool,
    seen: u8,
    meta: u32,
    id: u64,
    head_exit: u64,
}

/// A generic [`OmegaNetwork`] compiled into flat lanes for the
/// duration of one specialized drive. The switch queues live in
/// `recs`, one record of port cells per switch (see `C_CAND` and the
/// constants after it): the queues of port `port` of switch `sw` at
/// stage `s` are the cell at word `(s * span + sw * radix + port) <<
/// cshift`, and ring slot `i` of either queue is entry `(head + i) &
/// qmask` of the cell's rings. The event masks follow the cells, one
/// bit per port in the same order (see `Dims`).
struct SpecNet {
    radix: usize,
    d: Dims,
    /// The exit FIFOs' word capacity (`exit_fifo_words`), which the
    /// backpressure check enforces.
    exit_cap: usize,
    /// Current exit-ring size `1 << eshift` (see `grow_exit_rings`).
    eshift: u32,
    emask: usize,
    clock: CeClock,
    /// The last stage's global position 0: exit `pos` drains the output
    /// at `last + pos`.
    last: usize,
    /// The port cells, the event masks and the injection backpressure
    /// mask: bit `src` of that is set while the stage-0 input source
    /// `src` feeds is full, and cleared by the pop that makes space.
    recs: Vec<u64>,
    /// Per source port: the global position of the stage-0 input its
    /// FIFO feeds.
    inj_down: Vec<u64>,
    // Injection FIFOs (cap INJECT_FIFO_WORDS per source port).
    inj_q: Vec<Slot>,
    inj_hl: Vec<u16>,
    inj_mask: Vec<u64>,
    inj_words: u64,
    /// Bit `src`: `injection` popped a word out of the FIFO at `src`
    /// since the issue loop last looked. The issue loop parks a source
    /// whose packet did not fit its injection FIFO and re-arms it from
    /// this mask.
    inj_popped: Vec<u64>,
    // Exit FIFOs per output position (caps can exceed 255, so head and
    // len stay unpacked). The rings start small and double on demand.
    exit_q: Vec<ExitSlot>,
    exit_head: Vec<u32>,
    exit_len: Vec<u32>,
    exit_mask: Vec<u64>,
    prog: Vec<Progress>,
    // Clocks and counters.
    now: u64,
    words_injected: u64,
    words_exited: u64,
    /// Total words anywhere in the network (inject + switch + exit).
    /// `buffered == 0` is exactly the generic `is_idle()`.
    buffered: u64,
    /// Buffered words belonging to multi-word packets. While zero, no
    /// wormhole lock can exist anywhere in the network and the
    /// monomorphic single-word transfer variant is exact.
    multiword_words: u64,
    /// Words lost to link faults (exported back verbatim).
    words_dropped: u64,
    /// The network's fault plan, compiled at import; `None` without one.
    faults: Option<NetFaults>,
    /// Phase-ledger counts (only the `L = true` loop writes them):
    /// switch outputs examined and words they moved, then injection
    /// FIFO heads examined and words injected.
    census: [u64; 4],
}

/// The smallest exit ring an import allocates.
const MIN_EXIT_RING: usize = 4;

/// A net-to-CE clock ratio with division-free boundary tests when the
/// ratio is a power of two (Cedar's is 2), and the plain division
/// otherwise.
#[derive(Clone, Copy)]
struct CeClock {
    ratio: u64,
    shift: Option<u32>,
}

impl CeClock {
    fn new(ratio: u64) -> CeClock {
        CeClock {
            ratio,
            shift: ratio.is_power_of_two().then(|| ratio.trailing_zeros()),
        }
    }

    /// Whether net cycle `now` ends a CE cycle.
    #[inline]
    fn boundary(self, now: u64) -> bool {
        match self.shift {
            Some(_) => now & (self.ratio - 1) == 0,
            None => now.is_multiple_of(self.ratio),
        }
    }

    /// The CE cycle net cycle `now` falls in.
    #[inline]
    fn ce_cycle(self, now: u64) -> u64 {
        match self.shift {
            Some(shift) => now >> shift,
            None => now / self.ratio,
        }
    }
}

/// A network's fault plan as the specialized stepper consults it: the
/// plan plus a mask, laid out like the event masks, of the outputs that
/// any stuck window or slowdown names, and each output's link key. Only
/// masked outputs pay for the plan's linear `output_blocked` scan; every
/// hop of a single-word packet asks `drops_on_link` with its link's key,
/// the same decision the generic `link_eats` gets from `drops_word`.
struct NetFaults {
    dir: NetDirection,
    plan: FaultPlan,
    outputs: Vec<u64>,
    /// `FaultPlan::link_key` of the link out of each global position.
    keys: Vec<u64>,
}

impl NetFaults {
    fn compile(net: &OmegaNetwork, plan: &FaultPlan, d: &Dims) -> NetFaults {
        let mut outputs = vec![0u64; d.mwords];
        let switches = d.ports >> d.rbits;
        let mut keys = vec![0u64; d.mwords << 6];
        for stage in 0..net.cfg.stages {
            for pos in 0..d.ports {
                keys[d.gpos(stage, pos)] =
                    plan.link_key(net.direction, stage, pos >> d.rbits, pos & d.rmask);
            }
        }
        // Outputs outside this network's shape never match a query.
        for (stage, switch, port) in plan.faulted_outputs(net.direction) {
            if stage < net.cfg.stages && switch < switches && port < net.cfg.radix {
                let gpos = d.gpos(stage, (switch << d.rbits) + port);
                outputs[gpos >> 6] |= 1u64 << (gpos & 63);
            }
        }
        NetFaults {
            dir: net.direction,
            plan: plan.clone(),
            outputs,
            keys,
        }
    }
}

impl SpecNet {
    /// Compiles a generic network into lanes. The caller (eligibility
    /// check) guarantees the dimension bounds; the network is copied,
    /// not drained.
    fn import(net: &OmegaNetwork) -> SpecNet {
        let cfg = net.cfg;
        let radix = cfg.radix;
        let stages_n = cfg.stages;
        let ports = cfg.ports();
        let d = Dims::new(radix, stages_n, cfg.queue_words);
        let rbits = d.rbits;
        let pwords = d.pwords;
        // The perfect shuffle left-rotates a position's base-`radix`
        // digits (`Topology::shuffle`); with a power-of-two radix that
        // is a bit rotation, no division.
        let pbits = ports.trailing_zeros();
        let shuffle = |pos: usize| (pos << rbits | pos >> (pbits - rbits)) & (ports - 1);
        let unshuffle = |pos: usize| (pos >> rbits | pos << (pbits - rbits)) & (ports - 1);
        // Exit rings start at the imported occupancy (at least
        // MIN_EXIT_RING) and double on demand up to the capacity, so an
        // import of the reverse network's 512-word FIFOs does not fill
        // 512 slots per port that a drained reply port never uses.
        let exit_cap = cfg.exit_fifo_words;
        let occupancy = net.exit_fifo.iter().map(VecDeque::len).max().unwrap_or(0);
        let ecap = occupancy
            .max(MIN_EXIT_RING)
            .next_power_of_two()
            .min(exit_cap.next_power_of_two());
        let mut spec = SpecNet {
            radix,
            d,
            exit_cap,
            eshift: ecap.trailing_zeros(),
            emask: ecap - 1,
            clock: CeClock::new(cfg.net_cycles_per_ce_cycle),
            last: d.gpos(stages_n - 1, 0),
            recs: vec![0; d.len()],
            inj_down: vec![0; ports],
            inj_q: vec![Slot::default(); ports * INJECT_FIFO_WORDS],
            inj_hl: vec![0; ports],
            inj_mask: vec![0; pwords],
            inj_words: 0,
            inj_popped: vec![0; pwords],
            exit_q: vec![ExitSlot::default(); ports * ecap],
            exit_head: vec![0; ports],
            exit_len: vec![0; ports],
            exit_mask: vec![0; pwords],
            prog: vec![Progress::default(); ports],
            now: net.now,
            words_injected: net.words_injected,
            words_exited: net.words_exited,
            buffered: 0,
            multiword_words: 0,
            words_dropped: net.words_dropped,
            faults: net.faults().map(|plan| NetFaults::compile(net, plan, &d)),
            census: [0; 4],
        };
        for src in 0..ports {
            debug_assert_eq!(shuffle(src), net.topo.shuffle(src));
            spec.inj_down[src] = shuffle(src) as u64;
        }
        let set = |recs: &mut Vec<u64>, kind: usize, gpos: usize| {
            recs[d.mask(kind, gpos)] |= 1u64 << (gpos & 63);
        };
        for (s, stage) in net.stages.iter().enumerate() {
            for (sw, cb) in stage.iter().enumerate() {
                let base = d.gpos(s, sw << rbits);
                spec.recs[d.cell(base) + C_SWITCHED] = cb.words_switched;
                for port in 0..radix {
                    let gpos = base + port;
                    let cell = d.cell(gpos);
                    let pos = (sw << rbits) + port;
                    // The upstream output (or, at stage 0, the source)
                    // feeding this input is the one shuffled onto it.
                    let up = unshuffle(pos);
                    let feeder = if s == 0 {
                        d.inj_blocked(up >> 6)
                    } else {
                        d.mask(M_BLOCKED, d.gpos(s - 1, up))
                    };
                    spec.recs[cell + C_UP] = (feeder << 6 | (up & 63)) as u64;
                    if s + 1 < stages_n {
                        spec.recs[cell + C_DOWN] = d.gpos(s + 1, shuffle(pos)) as u64;
                    }
                    let (inputs, outputs) = (&cb.inputs[port], &cb.outputs[port]);
                    for (k, w) in outputs.iter().enumerate() {
                        spec.put_slot(cell + C_RING + (k << 2), w);
                    }
                    for (k, w) in inputs.iter().enumerate() {
                        spec.put_slot(cell + C_RING + (k << 2) + RING_IN, w);
                    }
                    let in_lock = cb.input_lock[port].map_or(ST_NO_LOCK, |o| o as u32);
                    spec.recs[cell + C_IN_ST] = u64::from(st_pack(0, inputs.len(), in_lock));
                    if inputs.len() == cfg.queue_words {
                        let up = spec.recs[cell + C_UP] as usize;
                        spec.recs[up >> 6] |= 1u64 << (up & 63);
                    }
                    let out_lock = match cb.output_lock[port] {
                        Some((input, id)) => {
                            spec.recs[cell + C_LOCK_ID] = id.0;
                            input as u32
                        }
                        None => ST_NO_LOCK,
                    };
                    spec.recs[cell + C_OUT_ST] = u64::from(
                        st_pack(0, outputs.len(), out_lock)
                            | (cb.rr_next[port] as u32) << ST_RR_SHIFT,
                    );
                    spec.buffered += (inputs.len() + outputs.len()) as u64;
                    // Seed the event masks from this port's settled state.
                    if !outputs.is_empty() {
                        set(&mut spec.recs, M_NONEMPTY, gpos);
                    }
                    if outputs.len() == cfg.queue_words {
                        set(&mut spec.recs, M_FULL, gpos);
                    }
                    if out_lock != ST_NO_LOCK {
                        set(&mut spec.recs, M_GRANTABLE, gpos);
                    }
                    if let (Some(head), ST_NO_LOCK) = (inputs.front(), in_lock) {
                        // An unlocked input's head word is a header (the
                        // wormhole invariant): a candidate for its output.
                        let gout = base + d.route(s, pack_word_meta(head));
                        spec.recs[d.cell(gout) + C_CAND] |= 1u64 << port;
                        set(&mut spec.recs, M_GRANTABLE, gout);
                    }
                }
            }
        }
        for (src, fifo) in net.inject_fifo.iter().enumerate() {
            for (i, w) in fifo.iter().enumerate() {
                spec.inj_q[src * INJECT_FIFO_WORDS + i] = Slot {
                    id: w.packet.id.0,
                    meta: pack_word_meta(w),
                };
                spec.multiword_words += u64::from(w.packet.words > 1);
            }
            spec.inj_hl[src] = hl_pack(0, fifo.len());
            if !fifo.is_empty() {
                spec.inj_mask[src >> 6] |= 1u64 << (src & 63);
            }
            spec.inj_words += fifo.len() as u64;
            spec.buffered += fifo.len() as u64;
        }
        for (pos, fifo) in net.exit_fifo.iter().enumerate() {
            for (i, &(w, at)) in fifo.iter().enumerate() {
                spec.exit_q[pos * ecap + i] = ExitSlot {
                    id: w.packet.id.0,
                    at,
                    meta: pack_word_meta(&w),
                };
                spec.multiword_words += u64::from(w.packet.words > 1);
            }
            spec.exit_len[pos] = fifo.len() as u32;
            if fifo.len() >= exit_cap {
                set(&mut spec.recs, M_BLOCKED, spec.last + pos);
            }
            if !fifo.is_empty() {
                spec.exit_mask[pos >> 6] |= 1u64 << (pos & 63);
            }
            spec.buffered += fifo.len() as u64;
        }
        for (pos, progress) in net.exit_progress.iter().enumerate() {
            if let Some(p) = progress {
                spec.prog[pos] = Progress {
                    live: true,
                    seen: p.words_seen,
                    meta: pack_packet_meta(&p.packet),
                    id: p.packet.id.0,
                    head_exit: p.head_exit,
                };
            }
        }
        debug_assert!(net.delivered.is_empty(), "undrained delivery log");
        spec
    }

    /// Writes a switch-queue word into the ring slot at `slot` at import,
    /// counting it in the multi-word census.
    fn put_slot(&mut self, slot: usize, w: &Word) {
        self.recs[slot] = w.packet.id.0;
        self.recs[slot + 1] = u64::from(pack_word_meta(w));
        self.multiword_words += u64::from(w.packet.words > 1);
    }

    /// Writes the lanes back into the generic representation. After
    /// this, `net` is byte-identical (under `Snapshot`) to the network
    /// a generic run would have produced.
    fn export(&self, net: &mut OmegaNetwork) {
        let d = self.d;
        let word = |slot: usize| unpack_word(self.recs[slot], self.recs[slot + 1] as u32);
        for (s, stage) in net.stages.iter_mut().enumerate() {
            for (sw, cb) in stage.iter_mut().enumerate() {
                let base = d.gpos(s, sw << d.rbits);
                cb.words_switched = 0;
                for port in 0..self.radix {
                    let cell = d.cell(base + port);
                    cb.words_switched += self.recs[cell + C_SWITCHED];
                    let ist = self.recs[cell + C_IN_ST] as u32;
                    cb.inputs[port].clear();
                    for i in 0..st_len(ist) {
                        let slot = d.ring(cell, st_head(ist) + i) + RING_IN;
                        cb.inputs[port].push_back(word(slot));
                    }
                    let ost = self.recs[cell + C_OUT_ST] as u32;
                    cb.outputs[port].clear();
                    for i in 0..st_len(ost) {
                        cb.outputs[port].push_back(word(d.ring(cell, st_head(ost) + i)));
                    }
                    cb.input_lock[port] =
                        (st_lock(ist) != ST_NO_LOCK).then(|| st_lock(ist) as usize);
                    cb.output_lock[port] = (st_lock(ost) != ST_NO_LOCK)
                        .then(|| (st_lock(ost) as usize, PacketId(self.recs[cell + C_LOCK_ID])));
                    cb.rr_next[port] = (ost >> ST_RR_SHIFT) as usize;
                }
            }
        }
        for (src, fifo) in net.inject_fifo.iter_mut().enumerate() {
            fifo.clear();
            for i in 0..hl_len(self.inj_hl[src]) {
                let slot =
                    src * INJECT_FIFO_WORDS + ((hl_head(self.inj_hl[src]) + i) % INJECT_FIFO_WORDS);
                fifo.push_back(unpack_word(self.inj_q[slot].id, self.inj_q[slot].meta));
            }
        }
        for (pos, fifo) in net.exit_fifo.iter_mut().enumerate() {
            fifo.clear();
            for i in 0..self.exit_len[pos] as usize {
                let s = self.exit_q
                    [(pos << self.eshift) + ((self.exit_head[pos] as usize + i) & self.emask)];
                fifo.push_back((unpack_word(s.id, s.meta), s.at));
            }
        }
        for (progress, p) in net.exit_progress.iter_mut().zip(&self.prog) {
            *progress = p.live.then(|| crate::network::ExitProgress {
                packet: unpack_packet(p.id, p.meta),
                head_exit: p.head_exit,
                words_seen: p.seen,
            });
        }
        net.now = self.now;
        net.words_injected = self.words_injected;
        net.words_exited = self.words_exited;
        net.words_dropped = self.words_dropped;
        // `delivered` was empty at import (eligibility) and the
        // specialized engine never appends to it; nothing to write.
    }

    /// One network cycle, the monomorphized counterpart of
    /// `OmegaNetwork::step` with obs hooks compiled out. `S` is the
    /// stage count; `F` compiles in the fault hooks (blocked outputs
    /// and link drops), so a run without a fault plan steps exactly the
    /// hook-free loop.
    ///
    /// The generic phase order is exits → links (per stage) →
    /// transfers (per stage) → injection. Exits and links drain
    /// disjoint queues, the link stages are mutually disjoint, and a
    /// stage's transfer touches only its own switch state (plus
    /// already-stored upstream blocked masks) — so each stage may run
    /// its links (or exits) and then its transfers, provided every link
    /// into a stage-`s+1` input queue runs before that stage's pass.
    /// Each pass walks a whole mask word of ports, several switches at
    /// once, in one loop, with the word's event masks in registers.
    ///
    /// Injection, the last generic phase, is [`injection`](Self::injection):
    /// it touches only this network, so the caller may run it after the
    /// other network's switches.
    fn step_switches<const S: usize, const C: bool, const F: bool, const L: bool>(&mut self) {
        // One predictable branch per cycle: with no multi-word packet
        // buffered anywhere, wormhole locks cannot engage and the
        // lock-free monomorphic transfer is exact.
        if self.multiword_words == 0 {
            self.step_inner::<S, C, false, F, L>();
        } else {
            self.step_inner::<S, C, true, F, L>();
        }
    }

    fn step_inner<
        const S: usize,
        const C: bool,
        const MULTI: bool,
        const F: bool,
        const L: bool,
    >(
        &mut self,
    ) {
        self.now += 1;
        let d = self.d.pick::<C>();
        for s in 0..S {
            for w in s * d.pwords..(s + 1) * d.pwords {
                let nonempty = ld(&self.recs, d.mask_word(M_NONEMPTY, w));
                let movable = nonempty & !ld(&self.recs, d.mask_word(M_BLOCKED, w));
                if movable == 0 {
                    continue;
                }
                let mut v = Masks {
                    grantable: 0,
                    nonempty,
                    full: ld(&self.recs, d.mask_word(M_FULL, w)),
                };
                if s + 1 == S {
                    self.exits::<F, L>(d, s, w, movable, &mut v);
                } else {
                    self.links::<F, L>(d, s, w, movable, &mut v);
                }
                *at(&mut self.recs, d.mask_word(M_NONEMPTY, w)) = v.nonempty;
                *at(&mut self.recs, d.mask_word(M_FULL, w)) = v.full;
            }
            for w in s * d.pwords..(s + 1) * d.pwords {
                let grantable = ld(&self.recs, d.mask_word(M_GRANTABLE, w));
                let full = ld(&self.recs, d.mask_word(M_FULL, w));
                if grantable & !full == 0 {
                    continue;
                }
                let v = Masks {
                    grantable,
                    nonempty: ld(&self.recs, d.mask_word(M_NONEMPTY, w)),
                    full,
                };
                let v = d.transfer::<C, MULTI, L>(&mut self.recs, s, w, v, &mut self.census);
                *at(&mut self.recs, d.mask_word(M_GRANTABLE, w)) = v.grantable;
                *at(&mut self.recs, d.mask_word(M_NONEMPTY, w)) = v.nonempty;
                *at(&mut self.recs, d.mask_word(M_FULL, w)) = v.full;
            }
        }
    }

    /// Doubles every exit ring (up to the capacity rounded to a power
    /// of two), unrolling each ring to start at slot 0. Called before a
    /// push would overflow the current ring; the capacity check itself
    /// is unchanged, so backpressure engages at the same occupancy.
    #[cold]
    #[inline(never)]
    fn grow_exit_rings(&mut self) {
        let old = 1usize << self.eshift;
        debug_assert!(old < self.exit_cap, "grew a ring past the exit capacity");
        let shift = self.eshift + 1;
        let ports = self.d.ports;
        let mut grown = vec![ExitSlot::default(); ports << shift];
        for pos in 0..ports {
            let head = self.exit_head[pos] as usize;
            for i in 0..self.exit_len[pos] as usize {
                grown[(pos << shift) + i] =
                    self.exit_q[(pos << self.eshift) + ((head + i) & self.emask)];
            }
            self.exit_head[pos] = 0;
        }
        self.exit_q = grown;
        self.eshift = shift;
        self.emask = (1 << shift) - 1;
    }

    /// The movable outputs `m` of mask word `w` of the last stage → their
    /// exit FIFOs. Mirrors the generic order: a fault-blocked output
    /// holds its word, a lossy link eats the popped word, and at most one
    /// word exits per position per cycle. A full exit blocks its output
    /// (`M_BLOCKED`) until the pop that frees it.
    #[inline(always)]
    fn exits<const F: bool, const L: bool>(
        &mut self,
        d: Dims,
        s: usize,
        w: usize,
        mut m: u64,
        v: &mut Masks,
    ) {
        if L {
            self.census[0] += u64::from(m.count_ones());
        }
        while m != 0 {
            let bit = m.trailing_zeros() as usize;
            m &= m - 1;
            let gpos = (w << 6) + bit;
            let pos = gpos - self.last;
            if F && self.output_faulted(d, s, gpos, pos) {
                continue;
            }
            let elen = ld(&self.exit_len, pos) as usize;
            debug_assert!(elen < self.exit_cap, "a full exit left unblocked");
            let (id, meta) = d.pop_out(&mut self.recs, gpos, v);
            if L {
                self.census[1] += 1;
            }
            if F && self.link_drops(gpos, id, meta) {
                continue;
            }
            if elen > self.emask {
                self.grow_exit_rings();
            }
            let eslot =
                (pos << self.eshift) + ((ld(&self.exit_head, pos) as usize + elen) & self.emask);
            *at(&mut self.exit_q, eslot) = ExitSlot {
                id,
                at: self.now,
                meta,
            };
            *at(&mut self.exit_len, pos) += 1;
            *at(&mut self.exit_mask, pos >> 6) |= 1u64 << (pos & 63);
            *at(&mut self.recs, d.mask(M_BLOCKED, gpos)) |=
                u64::from(elen + 1 == self.exit_cap) << bit;
            self.words_exited += 1;
        }
    }

    /// The inter-stage shuffle links out of the movable outputs `m` of
    /// mask word `w` of stage `s`, into stage `s + 1`. The link stages
    /// drain mutually disjoint queues, so the processing order is free.
    /// Faults follow the generic order: a blocked output holds its word,
    /// and a lossy link eats a word only once the downstream queue could
    /// have taken it.
    #[inline(always)]
    fn links<const F: bool, const L: bool>(
        &mut self,
        d: Dims,
        s: usize,
        w: usize,
        mut m: u64,
        v: &mut Masks,
    ) {
        if L {
            self.census[0] += u64::from(m.count_ones());
        }
        while m != 0 {
            let bit = m.trailing_zeros() as usize;
            m &= m - 1;
            let gpos = (w << 6) + bit;
            let pos = gpos - d.gpos(s, 0);
            if F && self.output_faulted(d, s, gpos, pos) {
                continue;
            }
            let gin = ld(&self.recs, d.cell(gpos) + C_DOWN) as usize;
            let (id, meta) = d.pop_out(&mut self.recs, gpos, v);
            if L {
                self.census[1] += 1;
            }
            if F && self.link_drops(gpos, id, meta) {
                continue;
            }
            d.push_input(&mut self.recs, s + 1, gin, id, meta);
        }
    }

    /// Whether the fault plan blocks the output at stage position `pos`
    /// (global `gpos`) of stage `s` this cycle. Unmasked outputs never
    /// query the plan.
    #[inline]
    fn output_faulted(&self, d: Dims, s: usize, gpos: usize, pos: usize) -> bool {
        self.faults.as_ref().is_some_and(|f| {
            ld(&f.outputs, gpos >> 6) >> (gpos & 63) & 1 != 0
                && f.plan
                    .output_blocked(f.dir, s, pos >> d.rbits, pos & d.rmask, self.now)
        })
    }

    /// Whether the link out of the output at global position `gpos`
    /// loses the word just popped from it (single-word packets only, as
    /// in the generic `link_eats`); a lost word leaves the network.
    #[inline]
    fn link_drops(&mut self, gpos: usize, id: u64, meta: u32) -> bool {
        let lost = self.faults.as_ref().is_some_and(|f| {
            meta_words(meta) == 1 && f.plan.drops_on_link(ld(&f.keys, gpos), id, self.now)
        });
        if lost {
            self.words_dropped += 1;
            self.buffered -= 1;
        }
        lost
    }

    /// Injection FIFOs → stage 0, on CE-cycle boundaries only (the
    /// generic step's last phase). Each 64-source word's FIFO and
    /// popped masks stay in registers while its sources inject.
    fn injection<const C: bool, const L: bool>(&mut self) {
        if !self.clock.boundary(self.now) || self.inj_words == 0 {
            return;
        }
        let d = self.d.pick::<C>();
        for w in 0..self.inj_mask.len() {
            // A push sets only its own source's bit, so the word read
            // here stays exact for the sources still to inject.
            let mut live = ld(&self.inj_mask, w);
            let mut m = live & !ld(&self.recs, d.inj_blocked(w));
            if L {
                self.census[2] += u64::from(m.count_ones());
            }
            if m == 0 {
                continue;
            }
            let mut popped = 0u64;
            while m != 0 {
                let bit = m & m.wrapping_neg();
                let src = (w << 6) + m.trailing_zeros() as usize;
                m &= m - 1;
                let gin = ld(&self.inj_down, src) as usize;
                let hl = ld(&self.inj_hl, src);
                let Slot { id, meta } = ld(&self.inj_q, src * INJECT_FIFO_WORDS + hl_head(hl));
                *at(&mut self.inj_hl, src) =
                    hl_pack((hl_head(hl) + 1) % INJECT_FIFO_WORDS, hl_len(hl) - 1);
                if hl_len(hl) == 1 {
                    live &= !bit;
                }
                popped |= bit;
                d.push_input(&mut self.recs, 0, gin, id, meta);
            }
            let moved = u64::from(popped.count_ones());
            self.inj_words -= moved;
            self.words_injected += moved;
            if L {
                self.census[3] += moved;
            }
            *at(&mut self.inj_mask, w) = live;
            *at(&mut self.inj_popped, w) |= popped;
        }
    }

    /// Offers a packet (as a packed meta) to the source-port injection
    /// FIFO; all-or-nothing, exactly like `OmegaNetwork::try_inject`.
    fn try_inject_meta(&mut self, src: usize, id: u64, meta: u32) -> bool {
        let words = meta_words(meta) as usize;
        let hl = ld(&self.inj_hl, src);
        if hl_len(hl) + words > INJECT_FIFO_WORDS {
            return false;
        }
        let base = meta & !(7 << META_INDEX_SHIFT);
        for index in 0..words {
            *at(
                &mut self.inj_q,
                src * INJECT_FIFO_WORDS + ((hl_head(hl) + hl_len(hl) + index) % INJECT_FIFO_WORDS),
            ) = Slot {
                id,
                meta: base | (index as u32) << META_INDEX_SHIFT,
            };
        }
        *at(&mut self.inj_hl, src) = hl + (words << 8) as u16;
        *at(&mut self.inj_mask, src >> 6) |= 1u64 << (src & 63);
        self.inj_words += words as u64;
        self.buffered += words as u64;
        if words > 1 {
            self.multiword_words += words as u64;
        }
        true
    }

    /// Offers a packet's words to the source-port injection FIFO.
    fn try_inject(&mut self, packet: Packet) -> bool {
        debug_assert!(packet.src < self.d.ports && packet.dest < self.d.ports);
        self.try_inject_meta(packet.src, packet.id.0, pack_packet_meta(&packet))
    }

    /// Pops an exit FIFO head, maintaining the exit-progress tracker
    /// exactly like `OmegaNetwork::pop_output` (minus the delivery
    /// log, which the fabric discards every cycle anyway).
    #[inline(always)]
    fn pop_output(&mut self, pos: usize) -> Option<(u64, u32, u64)> {
        let len = ld(&self.exit_len, pos);
        if len == 0 {
            return None;
        }
        let head = ld(&self.exit_head, pos) as usize;
        let ExitSlot {
            id,
            at: exit_at,
            meta,
        } = ld(&self.exit_q, (pos << self.eshift) + head);
        *at(&mut self.exit_head, pos) = ((head + 1) & self.emask) as u32;
        *at(&mut self.exit_len, pos) = len - 1;
        if len == 1 {
            *at(&mut self.exit_mask, pos >> 6) &= !(1u64 << (pos & 63));
        }
        // Popping an exit FIFO makes space for the last-stage output
        // word backpressured behind it.
        if len as usize == self.exit_cap {
            let gpos = self.last + pos;
            *at(&mut self.recs, self.d.mask(M_BLOCKED, gpos)) &= !(1u64 << (gpos & 63));
        }
        self.buffered -= 1;
        // Progress tracking: a single-word packet at an idle exit
        // opens and closes its tracker in one pop, which is a no-op on
        // the lanes (the generic engine's set-then-clear leaves `None`
        // behind too), so the common case skips the tracker entirely.
        let words = meta_words(meta);
        self.multiword_words -= u64::from(words > 1);
        let prog = at(&mut self.prog, pos);
        if prog.live {
            debug_assert_eq!(prog.id, id, "interleaved packets at one exit");
            prog.seen += 1;
            if u32::from(prog.seen) == words {
                prog.live = false;
            }
        } else if words > 1 {
            *prog = Progress {
                live: true,
                seen: 1,
                meta: meta & !(7 << META_INDEX_SHIFT),
                id,
                head_exit: exit_at,
            };
        }
        Some((id, meta, exit_at))
    }
}

// ---------------------------------------------------------------------------
// SpecModules: the per-port memory servers flattened into SoA lanes.
// ---------------------------------------------------------------------------

/// The fabric's `MemModule` array and partial-packet reassembly slots
/// compiled into flat lanes for one specialized drive.
///
/// A module only does anything on a cycle where (a) a word is waiting
/// at its forward exit, (b) it holds a reply awaiting reverse-network
/// injection, (c) its service timer expires with requests pending, or
/// (d) the fault plan can stall or fail it.
/// (a) is the network's `exit_mask`; (b) is the `out_mask` bitset; (c)
/// is a timing wheel of wake masks indexed by cycle modulo the service
/// time — so a module busy for its whole service window costs nothing
/// until the cycle it can actually serve, instead of a visit per
/// cycle; (d) is the `fault_mask` bitset.
struct SpecModules {
    n: usize,
    words: usize,
    buf_cap: usize,
    service: u64,
    pshift: u32,
    pmask: usize,
    // Pending-request ring buffers.
    pend_q: Vec<Slot>,
    pend_head: Vec<u8>,
    pend_len: Vec<u8>,
    busy_until: Vec<u64>,
    /// The reply awaiting reverse-network injection, valid while the
    /// module's `out_mask` bit is set.
    out: Vec<Slot>,
    served: Vec<u64>,
    // Partial multi-word request being reassembled.
    part_live: Vec<bool>,
    part_id: Vec<u64>,
    part_meta: Vec<u32>,
    part_seen: Vec<u8>,
    /// Bit `m`: module `m` holds a reply awaiting injection.
    out_mask: Vec<u64>,
    /// Bit `m`: module `m`'s pending buffer is full, so an arriving
    /// word cannot be accepted. Set by `push_pending`, cleared by a
    /// serve or a fail-stop.
    pend_full: Vec<u64>,
    /// Wake masks, `wheel[(cycle & wheel_mask) * words + w]`, over a
    /// power-of-two wheel longer than the service time. A module
    /// with pending requests always has a wake scheduled at its next
    /// possible serve cycle; stale wakes are harmless no-op visits.
    wheel_mask: u64,
    wheel: Vec<u64>,
    /// Modules with pending requests or a live reply (fast-forward
    /// eligibility in O(1)).
    busy: usize,
    /// Count of live partials (fast-forward eligibility in O(1)).
    partials: usize,
    /// Bit `m`: the fault plan can stall or fail module `m`. Masked
    /// modules are visited every cycle, as the generic engine visits
    /// every module, so a stall or fail-stop takes effect on its exact
    /// cycle; no other module queries the plan.
    fault_mask: Vec<u64>,
    /// Words and requests destroyed at fail-stopped modules (the
    /// fabric's `module_discards`, exported back verbatim).
    discards: u64,
    /// Phase-ledger counts (`L = true` only): module visits, and the
    /// visits that changed module state.
    census: [u64; 2],
}

/// One 64-module word of the `out_mask` and `pend_full` masks, held in
/// registers while its modules are visited and stored once after.
struct ModMasks {
    out: u64,
    full: u64,
}

impl SpecModules {
    fn import(fabric: &RoundTripFabric) -> SpecModules {
        let (modules, partial) = (&fabric.modules, &fabric.partial);
        let buf_cap = fabric.cfg.module_buffer_requests;
        let service = fabric.cfg.mem_service_net_cycles;
        let now = fabric.now;
        let n = modules.len();
        let words = n.div_ceil(64).max(1);
        let pcap = buf_cap.next_power_of_two();
        let wheel_len = (service.max(1) as usize + 1).next_power_of_two();
        let mut spec = SpecModules {
            n,
            words,
            buf_cap,
            service,
            pshift: pcap.trailing_zeros(),
            pmask: pcap - 1,
            pend_q: vec![Slot::default(); n * pcap],
            pend_head: vec![0; n],
            pend_len: vec![0; n],
            busy_until: vec![0; n],
            out: vec![Slot::default(); n],
            served: vec![0; n],
            part_live: vec![false; n],
            part_id: vec![0; n],
            part_meta: vec![0; n],
            part_seen: vec![0; n],
            out_mask: vec![0; words],
            pend_full: vec![0; words],
            wheel_mask: wheel_len as u64 - 1,
            wheel: vec![0; wheel_len * words],
            busy: 0,
            partials: 0,
            fault_mask: vec![0; words],
            discards: fabric.module_discards,
            census: [0; 2],
        };
        // Modules outside this fabric never match a query.
        let faulted = fabric.faults.iter().flat_map(FaultPlan::faulted_modules);
        for i in faulted.filter(|&i| i < n) {
            spec.fault_mask[i >> 6] |= 1u64 << (i & 63);
        }
        for (i, m) in modules.iter().enumerate() {
            debug_assert!(m.pending.len() <= buf_cap);
            for (j, p) in m.pending.iter().enumerate() {
                spec.pend_q[i * pcap + j] = Slot {
                    id: p.id.0,
                    meta: pack_packet_meta(p),
                };
            }
            spec.pend_len[i] = m.pending.len() as u8;
            if m.pending.len() == buf_cap {
                spec.pend_full[i >> 6] |= 1u64 << (i & 63);
            }
            spec.busy_until[i] = m.busy_until;
            if let Some(p) = &m.outgoing {
                spec.out[i] = Slot {
                    id: p.id.0,
                    meta: pack_packet_meta(p),
                };
                spec.out_mask[i >> 6] |= 1u64 << (i & 63);
            }
            spec.served[i] = m.served;
            if !m.pending.is_empty() || m.outgoing.is_some() {
                spec.busy += 1;
            }
            if !m.pending.is_empty() {
                spec.schedule_wake(i, now);
            }
        }
        for (i, slot) in partial.iter().enumerate() {
            if let Some((p, seen)) = slot {
                spec.part_live[i] = true;
                spec.part_id[i] = p.id.0;
                spec.part_meta[i] = pack_packet_meta(p);
                spec.part_seen[i] = *seen;
                spec.partials += 1;
            }
        }
        spec
    }

    /// Schedules a wake visit for module `i` at the earliest future
    /// cycle it could start a service (`busy_until`, but no sooner
    /// than the next cycle). The distance is at most `max(service, 1)`
    /// which the wheel length covers.
    #[inline]
    fn schedule_wake(&mut self, i: usize, now: u64) {
        let wake = ld(&self.busy_until, i).max(now + 1);
        debug_assert!(wake - now <= self.wheel_mask);
        let slot = (wake & self.wheel_mask) as usize;
        *at(&mut self.wheel, slot * self.words + (i >> 6)) |= 1u64 << (i & 63);
    }

    /// Writes the lanes back into the fabric's canonical module and
    /// partial-slot representation.
    fn export(&self, fabric: &mut RoundTripFabric) {
        for i in 0..self.n {
            debug_assert_eq!(
                self.pend_full[i >> 6] >> (i & 63) & 1 != 0,
                self.pend_len[i] as usize == self.buf_cap,
                "pend_full out of step with the buffer of module {i}"
            );
        }
        fabric.module_discards = self.discards;
        let (modules, partial) = (&mut fabric.modules, &mut fabric.partial);
        for (i, m) in modules.iter_mut().enumerate() {
            m.pending.clear();
            for j in 0..self.pend_len[i] as usize {
                let s = self.pend_q
                    [(i << self.pshift) + ((self.pend_head[i] as usize + j) & self.pmask)];
                m.pending.push_back(unpack_packet(s.id, s.meta));
            }
            m.busy_until = self.busy_until[i];
            m.outgoing = (self.out_mask[i >> 6] >> (i & 63) & 1 != 0)
                .then(|| unpack_packet(self.out[i].id, self.out[i].meta));
            m.served = self.served[i];
        }
        for (i, slot) in partial.iter_mut().enumerate() {
            *slot = self.part_live[i].then(|| {
                (
                    unpack_packet(self.part_id[i], self.part_meta[i]),
                    self.part_seen[i],
                )
            });
        }
    }

    /// Whether any module holds pending, outgoing or partial work —
    /// the module-side half of the generic fast-forward precondition.
    #[inline]
    fn any_work(&self) -> bool {
        self.busy > 0 || self.partials > 0
    }

    #[inline]
    fn push_pending(&mut self, i: usize, id: u64, meta: u32, live: &mut ModMasks) {
        debug_assert!((self.pend_len[i] as usize) < self.buf_cap);
        let slot = (i << self.pshift)
            + ((ld(&self.pend_head, i) as usize + ld(&self.pend_len, i) as usize) & self.pmask);
        *at(&mut self.pend_q, slot) = Slot {
            id,
            meta: meta & !(7 << META_INDEX_SHIFT),
        };
        *at(&mut self.pend_len, i) += 1;
        live.full |= u64::from(ld(&self.pend_len, i) as usize == self.buf_cap) << (i & 63);
    }

    /// One cycle of `service_modules`: accept at most one forward
    /// word, retry a blocked reply, start one service. Only modules
    /// with a live reply, an expiring service timer, an arriving word
    /// and room to take it, or (`F`) a place in the fault mask are
    /// visited; every skipped visit is provably a no-op in the generic
    /// engine (a full buffer refuses the word, and with no reply live
    /// and no wake due, no service can start).
    fn service<const F: bool, const L: bool>(
        &mut self,
        fwd: &mut SpecNet,
        rev: &mut SpecNet,
        now: u64,
        plan: Option<&FaultPlan>,
    ) {
        let slot = (now & self.wheel_mask) as usize * self.words;
        for w in 0..self.words {
            let wake = std::mem::take(at(&mut self.wheel, slot + w));
            let arriving = fwd.exit_mask.get(w).copied().unwrap_or(0);
            let mut live = ModMasks {
                out: ld(&self.out_mask, w),
                full: ld(&self.pend_full, w),
            };
            let mut m = wake | live.out | (arriving & !live.full);
            if F {
                m |= ld(&self.fault_mask, w);
            }
            if m == 0 {
                continue;
            }
            while m != 0 {
                let i = (w << 6) + m.trailing_zeros() as usize;
                m &= m - 1;
                if i >= self.n {
                    break;
                }
                if L {
                    self.census[0] += 1;
                }
                if F && ld(&self.fault_mask, w) >> (i & 63) & 1 != 0 {
                    if let Some(plan) = plan {
                        let discards = self.discards;
                        if self.fault_visit(fwd, plan, i, now, &mut live) {
                            if L {
                                self.census[1] += u64::from(self.discards != discards);
                            }
                            continue;
                        }
                    }
                }
                let changed = self.service_one(fwd, rev, now, i, &mut live);
                if L {
                    self.census[1] += u64::from(changed);
                }
            }
            *at(&mut self.out_mask, w) = live.out;
            *at(&mut self.pend_full, w) = live.full;
        }
    }

    /// The fault half of a module visit, in the generic order: a
    /// fail-stopped module discards every arriving word and all its
    /// queued, outgoing and partial work; a stalled module neither
    /// receives nor serves. Returns whether the visit ends here.
    fn fault_visit(
        &mut self,
        fwd: &mut SpecNet,
        plan: &FaultPlan,
        i: usize,
        now: u64,
        live: &mut ModMasks,
    ) -> bool {
        if plan.module_failed(i, now) {
            while fwd.pop_output(i).is_some() {
                self.discards += 1;
            }
            let bit = 1u64 << (i & 63);
            let replying = live.out & bit != 0;
            let was_busy = ld(&self.pend_len, i) > 0 || replying;
            self.discards += u64::from(ld(&self.pend_len, i)) + u64::from(replying);
            *at(&mut self.pend_len, i) = 0;
            live.full &= !bit;
            live.out &= !bit;
            if ld(&self.part_live, i) {
                *at(&mut self.part_live, i) = false;
                self.partials -= 1;
            }
            if was_busy {
                self.busy -= 1;
            }
            return true;
        }
        plan.module_stalled(i, now)
    }

    /// One module visit. Returns whether it changed module state
    /// (accepted a word, injected a reply or started a service), which
    /// only the phase ledger reads.
    #[inline(always)]
    fn service_one(
        &mut self,
        fwd: &mut SpecNet,
        rev: &mut SpecNet,
        now: u64,
        i: usize,
        live: &mut ModMasks,
    ) -> bool {
        let bit = 1u64 << (i & 63);
        let was_busy = ld(&self.pend_len, i) > 0 || live.out & bit != 0;
        let mut changed = false;
        // Accept one word into the reassembly slot / pending queue
        // (pop directly — the generic peek-then-pop pair reads the
        // same head slot twice).
        if (ld(&self.pend_len, i) as usize) < self.buf_cap {
            if let Some((id, meta, _)) = fwd.pop_output(i) {
                changed = true;
                let tail = meta_is_tail(meta);
                if ld(&self.part_live, i) {
                    debug_assert_eq!(self.part_id[i], id, "interleaved request words");
                    *at(&mut self.part_seen, i) += 1;
                    if tail {
                        *at(&mut self.part_live, i) = false;
                        self.partials -= 1;
                        let (pid, pmeta) = (ld(&self.part_id, i), ld(&self.part_meta, i));
                        self.push_pending(i, pid, pmeta, live);
                    }
                } else {
                    debug_assert_eq!(meta_index(meta), 0, "packet must start with its header");
                    if tail {
                        self.push_pending(i, id, meta, live);
                    } else {
                        *at(&mut self.part_live, i) = true;
                        *at(&mut self.part_id, i) = id;
                        *at(&mut self.part_meta, i) = meta;
                        *at(&mut self.part_seen, i) = 1;
                        self.partials += 1;
                    }
                }
            }
        }
        // Retry a blocked reply; while blocked, no new service starts.
        let mut blocked = false;
        if live.out & bit != 0 {
            let Slot { id, meta } = ld(&self.out, i);
            if rev.try_inject_meta(meta_src(meta) as usize, id, meta) {
                live.out &= !bit;
                changed = true;
            } else {
                blocked = true;
            }
        }
        if !blocked && now >= ld(&self.busy_until, i) && ld(&self.pend_len, i) > 0 {
            changed = true;
            let head = ld(&self.pend_head, i) as usize;
            let Slot { id, meta } = ld(&self.pend_q, (i << self.pshift) + head);
            *at(&mut self.pend_head, i) = ((head + 1) & self.pmask) as u8;
            *at(&mut self.pend_len, i) -= 1;
            live.full &= !bit;
            *at(&mut self.busy_until, i) = now + self.service;
            *at(&mut self.served, i) += 1;
            if let Some(rmeta) = reply_meta(meta) {
                live.out |= bit;
                *at(&mut self.out, i) = Slot { id, meta: rmeta };
            }
        }
        let pending = ld(&self.pend_len, i) > 0;
        if pending {
            self.schedule_wake(i, now);
        }
        let is_busy = pending || live.out & bit != 0;
        self.busy = self.busy + usize::from(is_busy) - usize::from(was_busy);
        changed
    }
}

// ---------------------------------------------------------------------------
// Fabric-side driver.
// ---------------------------------------------------------------------------

impl RoundTripFabric {
    /// Why this fabric cannot run on the specialized engine, or `None`
    /// when it can.
    pub(crate) fn specialization_blocker(&self) -> Option<&'static str> {
        if self.obs.is_some() {
            return Some("telemetry attached");
        }
        let net = &self.cfg.net;
        if !(1..=4).contains(&net.stages) {
            return Some("stage count outside 1..=4");
        }
        if net.radix > 64 {
            return Some("radix above 64");
        }
        if net.ports() > 4096 {
            return Some("port count above 4096");
        }
        if net.queue_words > 64 {
            return Some("switch queues deeper than 64 words");
        }
        if self.forward.cfg.exit_fifo_words > 65_536 || self.reverse.cfg.exit_fifo_words > 65_536 {
            return Some("exit FIFOs deeper than 65536 words");
        }
        if self.cfg.module_buffer_requests > 64 {
            return Some("module buffers deeper than 64 requests");
        }
        if !self.forward.delivered.is_empty() || !self.reverse.delivered.is_empty() {
            return Some("undrained delivery log");
        }
        // A retry re-aimed past the network would index the unchecked
        // lanes out of bounds; the generic engine rejects it outright.
        if self
            .faults
            .as_ref()
            .is_some_and(|plan| plan.shape().modules > net.ports())
        {
            return Some("fault plan names modules beyond the network");
        }
        None
    }

    /// Runs the experiment on the specialized engine until it stops
    /// running or `stop_at` net cycles is reached. The networks and
    /// modules are compiled in on entry and written back on every exit
    /// path, so the fabric is always in canonical generic form
    /// afterwards.
    pub(crate) fn drive_specialized(
        &mut self,
        exp: &mut FabricExperiment,
        watchdog: Option<&mut Watchdog>,
        stop_at: Option<u64>,
    ) -> Result<(), CedarError> {
        self.drive_spec::<false>(exp, watchdog, stop_at, &mut PhaseLedger::default())
    }

    /// Like [`drive_experiment`](Self::drive_experiment) with no
    /// watchdog, but an eligible run steps the ledger instantiation of
    /// the specialized loop and adds its per-phase counts and sampled
    /// host time to `ledger`. The simulation is the same as without
    /// the ledger. An ineligible fabric (or one set to
    /// [`EngineKind::Generic`]) runs generic and leaves `ledger`
    /// untouched; [`last_run_engine`](Self::last_run_engine) says which
    /// ran.
    ///
    /// # Errors
    ///
    /// Never fails without a watchdog; the `Result` mirrors
    /// `drive_experiment`.
    pub fn drive_with_ledger(
        &mut self,
        exp: &mut FabricExperiment,
        stop_at: Option<u64>,
        ledger: &mut PhaseLedger,
    ) -> Result<(), CedarError> {
        if self.engine == EngineKind::Generic || self.specialization_blocker().is_some() {
            return self.drive_experiment(exp, None, stop_at);
        }
        self.last_run_engine = Some("specialized");
        self.last_fallback = None;
        self.drive_spec::<true>(exp, None, stop_at, ledger)
    }

    /// [`drive_specialized`](Self::drive_specialized), with the phase
    /// ledger compiled in when `L` is set.
    fn drive_spec<const L: bool>(
        &mut self,
        exp: &mut FabricExperiment,
        watchdog: Option<&mut Watchdog>,
        stop_at: Option<u64>,
        ledger: &mut PhaseLedger,
    ) -> Result<(), CedarError> {
        let lap_cost = if L { timer_cost_ns() } else { 0 };
        let started = L.then(Instant::now);
        let mut fwd = SpecNet::import(&self.forward);
        let mut rev = SpecNet::import(&self.reverse);
        let mut mods = SpecModules::import(self);
        // Pre-size the per-CE result vectors to their final lengths so
        // the hot loop never reallocates (capacity is not semantic).
        for src in exp.sources.iter_mut() {
            let total = src.traffic.blocks as usize * src.traffic.block_len as usize;
            src.records.reserve(total.saturating_sub(src.records.len()));
            src.issued_at
                .reserve(total.saturating_sub(src.issued_at.len()));
        }
        let sampled = ledger.sampled_cycles;
        let imported = L.then(Instant::now);
        let skipped = self.ff_cycles;
        let result = if self.faults.is_some() || exp.recovery.is_some() {
            self.spec_stages::<true, L>(
                &mut fwd, &mut rev, &mut mods, exp, watchdog, stop_at, ledger,
            )
        } else {
            self.spec_stages::<false, L>(
                &mut fwd, &mut rev, &mut mods, exp, watchdog, stop_at, ledger,
            )
        };
        let stepped = L.then(Instant::now);
        fwd.export(&mut self.forward);
        rev.export(&mut self.reverse);
        mods.export(self);
        if let (Some(started), Some(imported), Some(stepped)) = (started, imported, stepped) {
            let done = Instant::now();
            ledger.drives += 1;
            ledger.skipped_cycles += self.ff_cycles - skipped;
            ledger.timer_ns += lap_cost * (ledger.sampled_cycles - sampled);
            ledger.import_ns += nanos(imported - started) + nanos(done - stepped);
            ledger.drive_ns += nanos(done - started);
            for (phase, net) in [(Phase::Forward, &fwd), (Phase::Return, &rev)] {
                ledger.attempts[phase as usize] += net.census[0];
                ledger.useful[phase as usize] += net.census[1];
                ledger.attempts[Phase::Inject as usize] += net.census[2];
                ledger.useful[Phase::Inject as usize] += net.census[3];
            }
            ledger.attempts[Phase::Module as usize] += mods.census[0];
            ledger.useful[Phase::Module as usize] += mods.census[1];
        }
        result
    }

    /// Picks the stage-count instantiation of [`spec_loop`](Self::spec_loop).
    #[allow(clippy::too_many_arguments)]
    fn spec_stages<const F: bool, const L: bool>(
        &mut self,
        fwd: &mut SpecNet,
        rev: &mut SpecNet,
        mods: &mut SpecModules,
        exp: &mut FabricExperiment,
        watchdog: Option<&mut Watchdog>,
        stop_at: Option<u64>,
        ledger: &mut PhaseLedger,
    ) -> Result<(), CedarError> {
        // Both networks share the configured switch shape.
        let cedar = fwd.d == CEDAR_DIMS;
        match (self.cfg.net.stages, cedar) {
            (1, _) => {
                self.spec_loop::<1, false, F, L>(fwd, rev, mods, exp, watchdog, stop_at, ledger)
            }
            (2, true) => {
                self.spec_loop::<2, true, F, L>(fwd, rev, mods, exp, watchdog, stop_at, ledger)
            }
            (2, false) => {
                self.spec_loop::<2, false, F, L>(fwd, rev, mods, exp, watchdog, stop_at, ledger)
            }
            (3, _) => {
                self.spec_loop::<3, false, F, L>(fwd, rev, mods, exp, watchdog, stop_at, ledger)
            }
            (4, _) => {
                self.spec_loop::<4, false, F, L>(fwd, rev, mods, exp, watchdog, stop_at, ledger)
            }
            _ => unreachable!("specialization_blocker admits only 1..=4 stages"),
        }
    }

    /// The monomorphized experiment loop: `step_experiment` with the
    /// obs branches compiled out and the networks and modules in SoA
    /// form. `F` compiles in the fault hooks and the recovery path
    /// (retry timers, reply dedup, abandonment) in the generic order;
    /// without it the loop is the healthy one, hook for hook. `L`
    /// compiles in the phase ledger's counters and its sampled timers;
    /// without it every ledger statement is dead code.
    ///
    /// The two networks' injection phases run after both networks'
    /// switch phases. Each network's step touches only that network,
    /// so this is the generic `forward.step(); reverse.step()` order
    /// up to commuting independent work, and it lets the ledger time
    /// injection apart from switching.
    #[allow(clippy::too_many_arguments)]
    fn spec_loop<const S: usize, const C: bool, const F: bool, const L: bool>(
        &mut self,
        fwd: &mut SpecNet,
        rev: &mut SpecNet,
        mods: &mut SpecModules,
        exp: &mut FabricExperiment,
        mut watchdog: Option<&mut Watchdog>,
        stop_at: Option<u64>,
        ledger: &mut PhaseLedger,
    ) -> Result<(), CedarError> {
        // Sources that might issue this boundary: a bit is cleared when
        // only an ejected reply, an abandonment or a pop from the
        // source's injection FIFO can unblock the source (window full,
        // block flow-window closed, stream finished, no room in the
        // FIFO) and re-armed by the next one that reaches it.
        let mut issuable = vec![!0u64; exp.sources.len().div_ceil(64).max(1)];
        let n_mod = self.cfg.mem_modules;
        let mut cursors: Vec<IssueCursor> = exp
            .sources
            .iter()
            .map(|src| IssueCursor::at(src, n_mod))
            .collect();
        let clock = CeClock::new(exp.ratio);
        let mut sample_in = LEDGER_SAMPLE_PERIOD;
        while self.experiment_running(exp) && stop_at.is_none_or(|c| self.now < c) {
            if self.fast_forward {
                let horizon = watchdog
                    .as_deref()
                    .map(|dog| dog.progress_cycle() + dog.budget() + 1);
                self.spec_fast_forward(fwd, rev, mods, exp, horizon);
            }
            self.now += 1;
            let ce_boundary = clock.boundary(self.now);
            let mut timer: Option<Instant> = None;
            if L {
                ledger.live_cycles += 1;
                sample_in -= 1;
                if sample_in == 0 {
                    sample_in = LEDGER_SAMPLE_PERIOD;
                    ledger.sampled_cycles += 1;
                    timer = Some(Instant::now());
                }
            }
            let sample_start = timer;
            fwd.step_switches::<S, C, F, L>();
            lap(&mut timer, &mut ledger.sampled_ns[Phase::Forward as usize]);
            rev.step_switches::<S, C, F, L>();
            lap(&mut timer, &mut ledger.sampled_ns[Phase::Return as usize]);
            fwd.injection::<C, L>();
            rev.injection::<C, L>();
            lap(&mut timer, &mut ledger.sampled_ns[Phase::Inject as usize]);
            mods.service::<F, L>(fwd, rev, self.now, self.faults.as_ref());
            lap(&mut timer, &mut ledger.sampled_ns[Phase::Module as usize]);
            exp.completed_requests += Self::spec_eject_replies::<F, L>(
                rev,
                &mut exp.sources,
                exp.recovery.as_mut(),
                &mut issuable,
                ledger,
            );
            lap(&mut timer, &mut ledger.sampled_ns[Phase::Eject as usize]);
            if let (true, Some(rec)) = (F, exp.recovery.as_mut()) {
                rec.fire_due(
                    self.now,
                    &self.retry,
                    self.faults.as_ref(),
                    &mut exp.sources,
                    |packet| fwd.try_inject(packet),
                    |event| {
                        if let Fired::Abandoned { src, .. } = event {
                            issuable[src >> 6] |= 1u64 << (src & 63);
                        }
                    },
                );
            }
            if ce_boundary {
                // A pop out of a source's injection FIFO re-arms it, in
                // case it was parked for want of room there.
                for (armed, popped) in issuable.iter_mut().zip(fwd.inj_popped.iter_mut()) {
                    *armed |= std::mem::take(popped);
                }
                self.spec_issue_requests::<F, L>(
                    fwd,
                    &mut exp.sources,
                    &mut cursors,
                    exp.recovery.as_mut(),
                    clock.ce_cycle(self.now),
                    &mut issuable,
                    ledger,
                );
            }
            if let Some(dog) = watchdog.as_deref_mut() {
                if let Err(report) = dog.observe(self.now, exp.resolved_requests()) {
                    return Err(report.into());
                }
            }
            lap(&mut timer, &mut ledger.sampled_ns[Phase::Issue as usize]);
            if let (Some(start), Some(end)) = (sample_start, timer) {
                ledger.sampled_total_ns += nanos(end - start);
            }
        }
        Ok(())
    }

    /// `idle_fast_forward` for SoA networks: identical preconditions
    /// (`buffered == 0` is the generic `is_idle()`) and the same jump
    /// target, so timestamps match the generic engine exactly.
    fn spec_fast_forward(
        &mut self,
        fwd: &mut SpecNet,
        rev: &mut SpecNet,
        mods: &SpecModules,
        exp: &FabricExperiment,
        horizon: Option<u64>,
    ) {
        if fwd.buffered != 0 || rev.buffered != 0 || mods.any_work() {
            return;
        }
        let target = exp.idle_wake_cycle(self.now, horizon);
        if target <= self.now + 1 {
            return;
        }
        let skipped = target - 1 - self.now;
        self.now += skipped;
        fwd.now += skipped;
        rev.now += skipped;
        self.ff_cycles += skipped;
    }

    /// `eject_replies` against an SoA reverse network, visiting only
    /// the ports with buffered exit words. Under `F` the recovery
    /// state's in-flight table dedups replies, as in the generic engine.
    fn spec_eject_replies<const F: bool, const L: bool>(
        rev: &mut SpecNet,
        sources: &mut [CeSource],
        mut rec: Option<&mut RecoveryState>,
        issuable: &mut [u64],
        ledger: &mut PhaseLedger,
    ) -> u64 {
        let mut completed = 0;
        for w in 0..rev.exit_mask.len() {
            let mut m = rev.exit_mask[w];
            while m != 0 {
                let pos = (w << 6) + m.trailing_zeros() as usize;
                m &= m - 1;
                if pos >= sources.len() {
                    break;
                }
                if L {
                    ledger.attempts[Phase::Eject as usize] += 1;
                }
                // A reply frees issue capacity; re-arm the source.
                issuable[pos >> 6] |= 1u64 << (pos & 63);
                let src = &mut sources[pos];
                let block_len = u64::from(src.traffic.block_len);
                // Request streams issue block-length-many requests per
                // block, so the hot path splits `local` with a shift
                // and mask whenever the block length is a power of two
                // instead of two 64-bit divisions per reply.
                let bl_shift = block_len
                    .is_power_of_two()
                    .then(|| block_len.trailing_zeros());
                while let Some((id, meta, arrived)) = rev.pop_output(pos) {
                    debug_assert_eq!(meta_kind(meta), kind_tag(PacketKind::Reply));
                    if let (true, Some(rec)) = (F, rec.as_deref_mut()) {
                        if !rec.resolve(id) {
                            continue; // duplicate, or already abandoned
                        }
                    }
                    let local = Self::local_index(PacketId(id), src.port);
                    let (block, index_in_block) = match bl_shift {
                        Some(shift) => (local >> shift, local & (block_len - 1)),
                        None => (local / block_len, local % block_len),
                    };
                    let record = RequestRecord {
                        block: block as u32,
                        index_in_block: index_in_block as u32,
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
                }
            }
        }
        if L {
            ledger.useful[Phase::Eject as usize] += completed;
        }
        completed
    }

    /// `issue_requests` against an SoA forward network (no obs). RNG
    /// draws happen in the same order as the generic path, so
    /// addresses — and therefore everything downstream — are
    /// identical. Under `F` every issued read is registered with the
    /// recovery state and arms its first retry timer.
    #[allow(clippy::too_many_arguments)]
    fn spec_issue_requests<const F: bool, const L: bool>(
        &mut self,
        fwd: &mut SpecNet,
        sources: &mut [CeSource],
        cursors: &mut [IssueCursor],
        mut rec: Option<&mut RecoveryState>,
        ce_now: u64,
        issuable: &mut [u64],
        ledger: &mut PhaseLedger,
    ) {
        let n_mod = self.cfg.mem_modules;
        for (w, armed) in issuable.iter_mut().enumerate() {
            let mut m = *armed;
            while m != 0 {
                let idx = (w << 6) + m.trailing_zeros() as usize;
                m &= m - 1;
                if idx >= sources.len() {
                    break;
                }
                let src = &mut sources[idx];
                if src.done_issuing || src.outstanding >= src.traffic.window {
                    // Only an ejected reply can unblock this source;
                    // park it until one arrives.
                    *armed &= !(1u64 << (idx & 63));
                    continue;
                }
                if ce_now < src.blocked_until_ce {
                    continue; // time-based gap: stays armed
                }
                let cursor = &mut cursors[idx];
                let (issued, park) = self.spec_issue_one(fwd, src, cursor, ce_now, n_mod);
                if park {
                    *armed &= !(1u64 << (idx & 63));
                }
                if L {
                    ledger.attempts[Phase::Issue as usize] += 1;
                    ledger.useful[Phase::Issue as usize] += u64::from(issued != Issued::Nothing);
                }
                if let (true, Issued::Read(packet), Some(rec)) = (F, issued, rec.as_deref_mut()) {
                    rec.register(packet, self.now + self.retry.base_delay_cycles);
                }
            }
        }
    }

    /// One source's issue attempt at a CE boundary (the loop body of
    /// the generic `issue_requests`, minus recovery and obs). Returns
    /// what it injected, and whether the source can be parked: nothing
    /// can change for it before the next reply, abandonment or pop out
    /// of its injection FIFO, each of which re-arms it.
    ///
    /// A failed injection parks the source only when the attempt drew
    /// nothing from its RNG: a block start (`next_index == 0`) draws
    /// fresh stream bases and a hot-spot read draws its coin on every
    /// attempt, so those attempts must repeat each boundary to replay
    /// the generic draw sequence.
    ///
    /// The read's module comes from `cursor` instead of the generic
    /// `(base + next_index / streams) % n_mod`: no division per read.
    #[inline]
    fn spec_issue_one(
        &mut self,
        fwd: &mut SpecNet,
        src: &mut CeSource,
        cursor: &mut IssueCursor,
        ce_now: u64,
        n_mod: usize,
    ) -> (Issued, bool) {
        if src.next_index == 0 {
            if src.next_block >= src.completed_blocks + src.traffic.blocks_in_flight {
                if src.write_debt < 1.0 {
                    // Block flow-window closed with no write owed:
                    // nothing can happen before the next reply.
                    return (Issued::Nothing, true);
                }
                let module = (src.stream_bases[0] + n_mod / 2 + src.writes_issued as usize) % n_mod;
                let write = Packet::write(
                    src.port,
                    module,
                    ((src.port as u64) << 40) | (1 << 39) | src.writes_issued,
                    1,
                );
                if !fwd.try_inject(write) {
                    return (Issued::Nothing, true); // no room, no draw
                }
                src.write_debt -= 1.0;
                src.writes_issued += 1;
                return (Issued::Write, false);
            }
            for base in &mut src.stream_bases {
                *base = src.rng.next_below(n_mod as u64) as usize;
            }
        }
        let local = u64::from(src.next_block) * u64::from(src.traffic.block_len)
            + u64::from(src.next_index);
        let module = match src.traffic.pattern {
            AddressPattern::HotSpot { module, fraction } if src.rng.next_bool(fraction) => {
                module % n_mod
            }
            _ => cursor.module(&src.stream_bases, n_mod),
        };
        let packet = Packet::new(
            Self::packet_id(src.port, local),
            src.port,
            module,
            1,
            PacketKind::ReadRequest,
        );
        if !fwd.try_inject(packet) {
            let drew = src.next_index == 0
                || matches!(src.traffic.pattern, AddressPattern::HotSpot { .. });
            return (Issued::Nothing, !drew);
        }
        debug_assert_eq!(src.issued_at.len() as u64, local);
        src.issued_at.push(self.now);
        src.outstanding += 1;
        src.write_debt += src.traffic.writes_per_read;
        src.next_index += 1;
        cursor.advance(src.stream_bases.len(), n_mod);
        if src.next_index == src.traffic.block_len {
            src.next_index = 0;
            *cursor = IssueCursor::default();
            src.next_block += 1;
            src.blocked_until_ce = ce_now + src.traffic.gap_ce_cycles;
            if src.next_block == src.traffic.blocks {
                src.done_issuing = true;
            }
        }
        (Issued::Read(packet), false)
    }
}

/// Where a source's next read lands, kept so that issuing a read needs
/// no division: the read's stream (`next_index % streams`) and that
/// stream's module offset (`next_index / streams`, reduced modulo the
/// module count). A drive derives it from `next_index` when it starts,
/// so it is never snapshotted.
#[derive(Clone, Copy, Default)]
struct IssueCursor {
    stream: usize,
    offset: usize,
}

impl IssueCursor {
    fn at(src: &CeSource, n_mod: usize) -> IssueCursor {
        let (next, streams) = (src.next_index as usize, src.stream_bases.len());
        IssueCursor {
            stream: next % streams,
            offset: next / streams % n_mod,
        }
    }

    /// The generic `(stream_bases[stream] + next_index / streams) %
    /// n_mod`. Both terms are below `n_mod` when the base was drawn by
    /// the source, so one subtraction reduces the sum; the remainder
    /// covers a base restored from elsewhere.
    #[inline]
    fn module(self, bases: &[usize], n_mod: usize) -> usize {
        let sum = bases[self.stream] + self.offset;
        if sum < n_mod {
            sum
        } else if sum - n_mod < n_mod {
            sum - n_mod
        } else {
            sum % n_mod
        }
    }

    /// Steps to the next read of the block.
    #[inline]
    fn advance(&mut self, streams: usize, n_mod: usize) {
        self.stream += 1;
        if self.stream == streams {
            self.stream = 0;
            self.offset += 1;
            if self.offset == n_mod {
                self.offset = 0;
            }
        }
    }
}

/// What one issue attempt injected.
#[derive(Clone, Copy, PartialEq)]
enum Issued {
    Nothing,
    Write,
    Read(Packet),
}

// ---------------------------------------------------------------------------
// Phase ledger.
// ---------------------------------------------------------------------------

/// The phases of a live net cycle the [`PhaseLedger`] attributes, in
/// the order the specialized loop runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Forward-network switching: links, transfers and exits.
    /// Attempts are switch outputs examined, useful are words moved.
    Forward,
    /// Reverse-network switching, counted like `Forward`.
    Return,
    /// Both networks' injection FIFOs into stage 0. Attempts are FIFO
    /// heads examined, useful are words injected.
    Inject,
    /// Memory modules. Attempts are module visits, useful are visits
    /// that changed module state.
    Module,
    /// Reply ejection at the CE ports. Attempts are ports visited,
    /// useful are requests completed.
    Eject,
    /// Retry timers, request issue and the watchdog. Attempts are issue
    /// attempts, useful are packets injected.
    Issue,
}

impl Phase {
    /// Every phase, in loop order.
    pub const ALL: [Phase; 6] = [
        Phase::Forward,
        Phase::Return,
        Phase::Inject,
        Phase::Module,
        Phase::Eject,
        Phase::Issue,
    ];

    /// The phase's name in ledger tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Forward => "forward",
            Phase::Return => "return",
            Phase::Inject => "inject",
            Phase::Module => "module",
            Phase::Eject => "eject",
            Phase::Issue => "issue",
        }
    }
}

/// Host time is sampled on one live cycle in this many. The period is
/// odd so samples do not alias with the 2-cycle CE clock.
const LEDGER_SAMPLE_PERIOD: u32 = 31;

/// Where a specialized drive's live cycles go: per [`Phase`], a
/// deterministic census (attempts against useful outcomes) and host
/// time sampled on one live cycle in 31, plus the import/export cost
/// and the whole drive's wall time. Filled by
/// [`RoundTripFabric::drive_with_ledger`]; the census is a pure
/// function of the run, the times are host measurements.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseLedger {
    /// Drives recorded.
    pub drives: u64,
    /// Net cycles stepped one by one.
    pub live_cycles: u64,
    /// Net cycles the idle fast-forward skipped.
    pub skipped_cycles: u64,
    /// Per phase (indexed by `Phase as usize`): work items examined.
    pub attempts: [u64; 6],
    /// Per phase: examined items that did something.
    pub useful: [u64; 6],
    /// Live cycles whose host time was sampled.
    pub sampled_cycles: u64,
    /// Per phase: host nanoseconds spent over the sampled cycles.
    pub sampled_ns: [u64; 6],
    /// Host nanoseconds of the sampled cycles, first phase to last,
    /// timed apart from the phases: it equals the sum of `sampled_ns`
    /// exactly when every phase is on the books.
    pub sampled_total_ns: u64,
    /// The clock reads' own cost inside each phase's `sampled_ns`: one
    /// read per lap, calibrated at the start of each drive.
    pub timer_ns: u64,
    /// Host nanoseconds spent importing and exporting the lanes.
    pub import_ns: u64,
    /// Host nanoseconds of the whole drives, import and export
    /// included.
    pub drive_ns: u64,
}

impl PhaseLedger {
    /// The deterministic part of the ledger: a copy with every host
    /// time zeroed. Two runs of the same work have equal censuses.
    #[must_use]
    pub fn census(&self) -> PhaseLedger {
        PhaseLedger {
            sampled_ns: [0; 6],
            sampled_total_ns: 0,
            timer_ns: 0,
            import_ns: 0,
            drive_ns: 0,
            ..self.clone()
        }
    }

    /// Each phase's sampled time less its clock reads.
    fn phase_ns(&self) -> [u64; 6] {
        self.sampled_ns.map(|ns| ns.saturating_sub(self.timer_ns))
    }

    /// Each phase's share of the live-loop time: its sampled time less
    /// the clock reads, over the same for all phases. The shares add
    /// up to 1 (all zeros before any cycle was sampled).
    #[must_use]
    pub fn phase_shares(&self) -> [f64; 6] {
        let total: u64 = self.phase_ns().iter().sum();
        if total == 0 {
            return [0.0; 6];
        }
        self.phase_ns().map(|ns| ns as f64 / total as f64)
    }

    /// The import-and-export share of the drive time; the live loop
    /// takes the rest.
    #[must_use]
    pub fn import_share(&self) -> f64 {
        if self.drive_ns == 0 {
            0.0
        } else {
            self.import_ns as f64 / self.drive_ns as f64
        }
    }

    /// How much longer a sampled cycle ran, clock reads excluded, than
    /// the mean live cycle: the probe effect the phase shares carry,
    /// as a fraction (0 when nothing was sampled).
    #[must_use]
    pub fn probe_excess(&self) -> f64 {
        let live = self.drive_ns.saturating_sub(self.import_ns);
        if self.sampled_cycles == 0 || live == 0 {
            return 0.0;
        }
        let sampled: u64 = self.phase_ns().iter().sum();
        let per_sampled = sampled as f64 / self.sampled_cycles as f64;
        let per_live = live as f64 / self.live_cycles as f64;
        per_sampled / per_live - 1.0
    }
}

/// Adds the time since the last lap to `ns` on a sampled cycle; a
/// no-op (and, with the ledger compiled out, no code) otherwise.
#[inline(always)]
fn lap(timer: &mut Option<Instant>, ns: &mut u64) {
    if let Some(last) = timer {
        let now = Instant::now();
        *ns += nanos(now - *last);
        *last = now;
    }
}

/// The cost of one clock read: the least of 32 back-to-back pairs.
fn timer_cost_ns() -> u64 {
    (0..32)
        .map(|_| {
            let start = Instant::now();
            nanos(Instant::now() - start)
        })
        .min()
        .unwrap_or(0)
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The meta packing must round-trip every reachable packet shape.
    #[test]
    fn meta_round_trips() {
        for kind in [
            PacketKind::ReadRequest,
            PacketKind::Write,
            PacketKind::SyncOp,
            PacketKind::Reply,
        ] {
            for words in 1..=4u8 {
                for index in 0..words {
                    let packet = Packet {
                        id: PacketId(0xABCD_EF01_2345),
                        src: 4095,
                        dest: 63,
                        words,
                        kind,
                    };
                    let word = Word { packet, index };
                    let meta = pack_word_meta(&word);
                    assert_eq!(unpack_word(packet.id.0, meta), word);
                    assert_eq!(
                        unpack_packet(packet.id.0, pack_packet_meta(&packet)),
                        packet
                    );
                }
            }
        }
    }

    /// The reply meta must match `Packet::reply` for every kind.
    #[test]
    fn reply_meta_matches_generic_reply() {
        for kind in [
            PacketKind::ReadRequest,
            PacketKind::Write,
            PacketKind::SyncOp,
            PacketKind::Reply,
        ] {
            let request = Packet::new(PacketId(42), 7, 0o31, 2, kind);
            let expected = request.reply();
            let got = reply_meta(pack_packet_meta(&request))
                .map(|meta| unpack_packet(request.id.0, meta));
            assert_eq!(got, expected);
        }
    }

    /// Import → export with no stepping is the identity on the
    /// generic network, including mid-flight wormhole state.
    #[test]
    fn import_export_round_trips_mid_run() {
        use cedar_snap::Snapshot;
        let mut net = OmegaNetwork::new(NetworkConfig::cedar());
        // Multi-word writes put partial packets everywhere: inject
        // FIFOs, switch queues, exit progress.
        for srcp in 0..8 {
            assert!(net.try_inject(Packet::write(srcp, 0o27, srcp as u64, 2)));
        }
        for _ in 0..5 {
            net.step();
        }
        // Leave a packet mid-consumption so exit progress is live.
        let _ = net.pop_output(0o27);
        net.clear_delivered();
        let spec = SpecNet::import(&net);
        let mut restored = OmegaNetwork::new(NetworkConfig::cedar());
        spec.export(&mut restored);
        let snap = |n: &OmegaNetwork| {
            let mut w = cedar_snap::SnapWriter::new();
            n.snap(&mut w);
            w.into_bytes()
        };
        assert_eq!(
            snap(&restored),
            snap(&net),
            "import/export must be the identity"
        );
    }

    fn snap_bytes(net: &OmegaNetwork) -> Vec<u8> {
        use cedar_snap::Snapshot;
        let mut w = cedar_snap::SnapWriter::new();
        net.snap(&mut w);
        w.into_bytes()
    }

    /// A network like the fabric's reverse one: Cedar's shape with
    /// 512-word exit FIFOs.
    fn deep_exit_config() -> NetworkConfig {
        NetworkConfig {
            exit_fifo_words: 512,
            ..NetworkConfig::cedar()
        }
    }

    /// Offers the same packets to both networks for `cycles` cycles and
    /// steps both, never draining an exit: every source aims at one of
    /// two exits, single-word reads and two-word writes mixed.
    fn step_undrained(net: &mut OmegaNetwork, spec: &mut SpecNet, cycles: u64, id: &mut u64) {
        for _ in 0..cycles {
            for src in 0..net.cfg.ports() {
                *id += 1;
                let dest = [5, 42][(*id % 2) as usize];
                let packet = if id.is_multiple_of(3) {
                    Packet::write(src, dest, *id, 1)
                } else {
                    Packet::new(PacketId(*id), src, dest, 1, PacketKind::ReadRequest)
                };
                assert_eq!(net.try_inject(packet), spec.try_inject(packet));
            }
            net.step();
            spec.step_switches::<2, true, false, false>();
            spec.injection::<true, false>();
        }
    }

    /// Exit rings that are never drained double past their initial
    /// size up to the 512-word capacity, and the grown rings export the
    /// generic network's exact bytes, backpressure included.
    #[test]
    fn exit_rings_grow_to_capacity_and_export_exactly() {
        let mut net = OmegaNetwork::new(deep_exit_config());
        let mut spec = SpecNet::import(&net);
        assert_eq!(1usize << spec.eshift, MIN_EXIT_RING, "rings start small");
        let mut id = 0;
        step_undrained(&mut net, &mut spec, 700, &mut id);
        assert_eq!(net.exit_fifo[5].len(), 512, "the exit filled to capacity");
        assert_eq!(1usize << spec.eshift, 512, "seven doublings");
        let mut exported = OmegaNetwork::new(deep_exit_config());
        spec.export(&mut exported);
        assert_eq!(snap_bytes(&exported), snap_bytes(&net));
    }

    /// An import at an occupancy above the initial ring sizes the ring
    /// to fit, round-trips exactly, and keeps growing from there.
    #[test]
    fn import_above_the_initial_ring_round_trips() {
        let mut net = OmegaNetwork::new(deep_exit_config());
        let mut shadow = SpecNet::import(&net);
        let mut id = 0;
        step_undrained(&mut net, &mut shadow, 40, &mut id);
        let occupancy = net.exit_fifo.iter().map(VecDeque::len).max().unwrap();
        assert!(occupancy > MIN_EXIT_RING, "occupancy {occupancy}");
        let mut spec = SpecNet::import(&net);
        assert_eq!(1usize << spec.eshift, occupancy.next_power_of_two());
        let mut restored = OmegaNetwork::new(deep_exit_config());
        spec.export(&mut restored);
        assert_eq!(snap_bytes(&restored), snap_bytes(&net), "round trip");
        step_undrained(&mut net, &mut spec, 300, &mut id);
        assert!(1usize << spec.eshift > occupancy.next_power_of_two());
        spec.export(&mut restored);
        assert_eq!(snap_bytes(&restored), snap_bytes(&net), "after growth");
    }

    /// The issue cursor names the generic `(base + index / streams) %
    /// n_mod` module for every read of a block, from a cursor advanced
    /// read by read and from one derived mid-block, for stream counts
    /// up to 6 and module counts that are not powers of two.
    #[test]
    fn issue_cursor_matches_the_division() {
        let mut rng = cedar_sim::rng::SplitMix64::new(7);
        for streams in 1..=6 {
            for n_mod in [1, 2, 3, 5, 7, 8, 12, 31, 64] {
                let mut src = CeSource::new(0, PrefetchTraffic::rk_aggressive(1));
                src.stream_bases = (0..streams)
                    .map(|_| rng.next_below(n_mod as u64) as usize)
                    .collect();
                let mut cursor = IssueCursor::default();
                for index in 0..200u32 {
                    src.next_index = index;
                    let expected = (src.stream_bases[index as usize % streams]
                        + index as usize / streams)
                        % n_mod;
                    assert_eq!(cursor.module(&src.stream_bases, n_mod), expected);
                    let derived = IssueCursor::at(&src, n_mod);
                    assert_eq!(derived.module(&src.stream_bases, n_mod), expected);
                    cursor.advance(streams, n_mod);
                }
            }
        }
    }

    /// A stream base at or past the module count (as a restored
    /// checkpoint could carry) still reduces like the division.
    #[test]
    fn issue_cursor_reduces_any_base() {
        let cursor = IssueCursor {
            stream: 0,
            offset: 2,
        };
        for base in [0, 4, 5, 9, 40] {
            assert_eq!(cursor.module(&[base], 5), (base + 2) % 5);
        }
    }

    /// Cedar's network imports with exactly the constant dimensions the
    /// `C = true` instantiation folds in.
    #[test]
    fn cedar_network_takes_the_constant_shape() {
        let spec = SpecNet::import(&OmegaNetwork::new(NetworkConfig::cedar()));
        assert!(spec.d == CEDAR_DIMS);
        let deeper = SpecNet::import(&OmegaNetwork::new(NetworkConfig::cedar_with_queue_words(4)));
        assert!(deeper.d != CEDAR_DIMS);
    }

    /// A full-size specialized run produces the exact report of the
    /// generic engine.
    #[test]
    fn specialized_run_matches_generic_report() {
        let traffic = PrefetchTraffic::rk_aggressive(2);
        let mut generic = RoundTripFabric::new(FabricConfig::cedar());
        generic.set_engine(EngineKind::Generic);
        let expected = generic.run_prefetch_experiment(8, traffic, 64_000_000);

        let mut fast = RoundTripFabric::new(FabricConfig::cedar());
        let got = fast.run_prefetch_experiment(8, traffic, 64_000_000);
        assert_eq!(fast.last_run_engine(), Some("specialized"));
        assert_eq!(got, expected);
    }
}
