//! `cedar-snap` — deterministic checkpoint/restore for the simulator.
//!
//! The paper's measurement study re-runs the same Cedar configuration
//! dozens of times per table with one knob varied, so most simulated
//! cycles are identical warm-up prefixes. This crate supplies the two
//! mechanisms that let the rest of the workspace stop re-simulating
//! them:
//!
//! * [`Snapshot`] — a serde-style trait with a hand-rolled, versioned
//!   binary codec ([`SnapWriter`]/[`SnapReader`]). Every state-holding
//!   type in the simulator (event queues including their FIFO
//!   tie-break counters, crossbar queues, memory modules, PFU state,
//!   scheduler state, fault-plan cursors, monitor windows) implements
//!   it *beside its private fields*, so a restored system replays
//!   bit-identically to an uninterrupted run.
//! * [`CacheDir`] — a content-addressed on-disk store keyed by the
//!   FNV-1a hash of a value's canonical encoding. Sweep harnesses use
//!   it to skip already-simulated points across process invocations;
//!   entries are written atomically (temp file + rename) so a crashed
//!   or panicking producer never persists a poisoned entry.
//!
//! # Envelope format
//!
//! Serialized values travel inside a self-checking envelope:
//!
//! ```text
//! magic  b"CSNP"           4 bytes
//! version                  1 byte   (SNAP_VERSION)
//! payload length           8 bytes  little-endian u64
//! payload                  N bytes  (the Snapshot encoding)
//! checksum                 8 bytes  FNV-1a of the payload
//! ```
//!
//! Any mismatch — wrong magic, unknown version, truncation, checksum
//! failure, trailing bytes — is an explicit [`SnapError`], and
//! [`CacheDir::load`] treats every such error as a cache miss: stale
//! or corrupt entries invalidate themselves instead of poisoning a
//! run (a corrupt entry is additionally quarantined to a `*.corrupt`
//! sibling so operators can inspect what went bad).
//!
//! The same envelope doubles as the workspace's wire format, under a
//! per-protocol magic: the [`frame`] module owns the one header check
//! and streams sealed envelopes over pipes and sockets with typed
//! corruption detection. The cluster's coordinator↔worker protocol
//! (`b"CSNP"`) and the serving tier's binary protocol (`b"CSRV"`) both
//! ride on it.
//!
//! The codec is std-only and fully deterministic: no host pointers,
//! no hash-map iteration order, no timestamps ever reach the wire.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod codec;
pub mod frame;

pub use cache::{write_atomic, CacheDir};
pub use codec::{
    fnv1a, seal, seal_as, seal_as_with, unseal, unseal_as, SnapError, SnapReader, SnapWriter,
    Snapshot, ENVELOPE_CHECKSUM_LEN, ENVELOPE_HEADER_LEN, ENVELOPE_OVERHEAD, MAX_PREALLOC,
    SNAP_MAGIC, SNAP_VERSION,
};
pub use frame::{
    read_frame, read_frame_as, unseal_frame, write_frame, FrameError, FrameScanner,
    MAX_FRAME_PAYLOAD,
};
