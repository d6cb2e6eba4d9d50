//! `cedar` — a full-system reproduction of *The Cedar System and an
//! Initial Performance Study* (Kuck et al.) in Rust.
//!
//! Cedar was a cluster-based shared-memory multiprocessor: four
//! modified Alliant FX/8 clusters (eight vector processors each)
//! joined through two unidirectional omega networks to an interleaved
//! global memory with per-module synchronization processors. This
//! workspace rebuilds the machine as a simulator, the CEDAR FORTRAN
//! programming model as a runtime, the paper's kernels and Perfect
//! Benchmark study as calibrated models, and its
//! judging-parallelism methodology as a library — and regenerates
//! every table and figure of the paper's evaluation (see
//! EXPERIMENTS.md).
//!
//! This crate is the façade: it re-exports each subsystem under a
//! short name and hosts the runnable examples and cross-crate
//! integration tests.
//!
//! # Quickstart
//!
//! ```
//! use cedar::core::{CedarParams, CedarSystem};
//! use cedar::kernels::rank_update::{self, RankUpdateVersion};
//!
//! // Build the machine the paper describes…
//! let mut machine = CedarSystem::new(CedarParams::paper());
//! // …and run Table 1's cached rank-64 update on all four clusters.
//! let report = rank_update::simulate(&mut machine, 1024, RankUpdateVersion::GmCache, 4);
//! assert!(report.mflops > 150.0);
//! ```
//!
//! # Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | `cedar-sim` | discrete-event engine, performance monitor |
//! | [`net`] | `cedar-net` | omega networks, crossbars, round-trip fabric |
//! | [`mem`] | `cedar-mem` | global/cluster memory, cache, sync processors, VM |
//! | [`cpu`] | `cedar-cpu` | CE vector unit, prefetch unit, concurrency bus |
//! | [`core`] | `cedar-core` | assembled machine, parameters, cost model |
//! | [`runtime`] | `cedar-runtime` | XDOALL/SDOALL/CDOALL, placement, barriers |
//! | [`kernels`] | `cedar-kernels` | RK/VL/TM/CG/banded kernels |
//! | [`perfect`] | `cedar-perfect` | Perfect Benchmarks study |
//! | [`metrics`] | `cedar-metrics` | PPTs, bands, stability |
//! | [`baselines`] | `cedar-baselines` | YMP/8, Cray-1, CM-5, workstations |
//! | [`faults`] | `cedar-faults` | fault plans, retry policy, degraded mode |
//! | [`obs`] | `cedar-obs` | metrics registry, span tracing, exporters |
//! | [`exec`] | `cedar-exec` | deterministic parallel sweep executor |
//! | [`snap`] | `cedar-snap` | snapshot codec, checkpoints, result cache |
//! | [`serve`] | `cedar-serve` | batching simulation service, job queue, loadgen |
//! | [`cluster`] | `cedar-cluster` | supervised worker fleet, exactly-once sweeps |
//! | [`track`] | `cedar-track` | benchmark history, regression gating, dashboard |
//! | [`zoo`] | `cedar-zoo` | machine-model zoo judged by the PPTs |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cedar_baselines as baselines;
pub use cedar_cluster as cluster;
pub use cedar_core as core;
pub use cedar_cpu as cpu;
pub use cedar_exec as exec;
pub use cedar_faults as faults;
pub use cedar_kernels as kernels;
pub use cedar_mem as mem;
pub use cedar_metrics as metrics;
pub use cedar_net as net;
pub use cedar_obs as obs;
pub use cedar_perfect as perfect;
pub use cedar_runtime as runtime;
pub use cedar_serve as serve;
pub use cedar_sim as sim;
pub use cedar_snap as snap;
pub use cedar_track as track;
pub use cedar_zoo as zoo;
