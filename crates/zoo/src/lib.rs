//! `cedar-zoo` — a machine-model zoo judged by the paper's Practical
//! Parallelism Tests (ROADMAP item 4).
//!
//! §4.3 of the paper sketches how the PPTs would rank machines beyond
//! Cedar; this crate carries the sketch out. A unified roster
//! ([`machine::Machine`]) spans the simulated Cedar itself, the
//! paper's analytic baselines (Cray YMP/8, Cray-1, CM-5, the
//! workstation anchor), and three machines reconstructed from the
//! related work:
//!
//! * **ultra** — an NYU Ultracomputer-style machine: Cedar's own
//!   `cedar-net` stages with pairwise fetch-and-add combining enabled
//!   at the switches, simulated (not modeled) on the hotspot workload
//!   where combining is decisive;
//! * **t3d** — a Cray T3D-style MIMD NUMA message-passing machine,
//!   calibrated from its lattice-QCD communication/compute ratios;
//! * **t3** — a SPARC T3-style massively multithreaded NUMA machine.
//!
//! Every machine is measured on four workloads ([`cell::Workload`]):
//! the Perfect ensemble through the portable compiler path, the same
//! ensemble at best manual effort, a (processors × problem size)
//! scalability grid, and a synchronization hotspot sweep. Each
//! (machine, workload) pair is one pure [`cell::ZooCellSpec`] →
//! [`cell::ZooCell`] function, so the whole matrix runs as a
//! content-addressed-cached parallel `cedar-exec` sweep
//! ([`cell::run_cached_on`]): warm re-runs are byte-identical and served
//! from disk.
//!
//! [`judge`] turns the cells into per-machine [`judge::MachineVerdict`]s
//! scoring all five PPTs — including PPT5 (reimplementability), which
//! the earlier crates deferred and which [`machine::Machine::complexity`]
//! now grounds in model-complexity proxies. Cedar's PPT1–PPT4 inputs
//! are the very vectors `examples/judging_machines` and `cedar-bench`
//! compute, so its verdicts are bit-identical to the established
//! judgments.
//!
//! # Examples
//!
//! ```
//! use cedar_zoo::{cell, judge, machine::Machine};
//!
//! let cells = cell::run_cached_on(cedar_exec::threads(), None, true); // smoke-sized, uncached
//! let verdicts = judge::judge(&cells, true);
//! assert_eq!(verdicts.len(), 8);
//! assert!(judge::combining_gain(&verdicts) > 1.0);
//! let cedar = &verdicts[0];
//! assert_eq!(cedar.machine, Machine::Cedar);
//! assert!(cedar.summary.ppt1.passes);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod judge;
pub mod machine;

pub use cell::{hotspot_point, run_cached_on, HotspotPoint, ZooCell, ZooCellSpec, CACHE_NAMESPACE};
pub use judge::{combining_gain, judge, render_report, MachineVerdict};
pub use machine::{Machine, MACHINES};
