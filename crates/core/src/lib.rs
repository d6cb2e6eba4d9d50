//! `cedar-core` — the assembled Cedar system.
//!
//! This crate couples the substrates into the machine of the paper's
//! Figure 1: four slightly-modified Alliant FX/8 clusters (eight
//! vector CEs sharing a 512 KB cache, a cluster memory, and a
//! concurrency control bus) attached through two unidirectional omega
//! networks to an interleaved global memory with per-module
//! synchronization processors, plus the Xylem virtual-memory system
//! and the external performance-monitoring hardware.
//!
//! * [`params::CedarParams`] — every published machine constant in one
//!   place, with a builder for what-if configurations;
//! * [`system::CedarSystem`] — the machine: functional state (memories,
//!   caches, sync cells, TLBs) plus the measurement engine that runs
//!   discrete-event windows on the network fabric and caches the
//!   resulting latency/interarrival/bandwidth profiles;
//! * [`costmodel`] — the access-mode cost model translating "where does
//!   the operand live" into effective cycles per word under a given
//!   machine load, the quantity behind Table 1 and the kernel studies;
//! * [`topology`] — structural renderings of the paper's Figures 1
//!   and 2.
//!
//! # Examples
//!
//! ```
//! use cedar_core::params::CedarParams;
//! use cedar_core::system::CedarSystem;
//!
//! let mut cedar = CedarSystem::new(CedarParams::paper());
//! assert_eq!(cedar.params().total_ces(), 32);
//! // Peak performance as published: 11.8 MFLOPS x 32 CEs ~ 376.
//! assert!((cedar.params().peak_mflops() - 376.0).abs() < 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costmodel;
pub mod params;
pub mod report;
pub mod system;
pub mod topology;

pub use costmodel::{AccessMode, CostModel, MemProfile};
pub use params::CedarParams;
pub use report::MachineReport;
pub use system::{CedarSystem, Cluster};
