//! `cedar-runtime` — the Xylem / CEDAR FORTRAN programming model.
//!
//! CEDAR FORTRAN (§3 of the paper) exposes the machine's key features
//! through language extensions and a run-time library. This crate
//! reproduces that layer over [`cedar_core::CedarSystem`]:
//!
//! * [`loops`] — the three parallel-loop flavours and their measured
//!   overheads: **XDOALL** schedules iterations on every CE in the
//!   machine through global memory (≈90 µs startup, ≈30 µs per
//!   iteration fetch); **SDOALL** schedules iterations on whole
//!   clusters; **CDOALL** uses the concurrency control bus to start a
//!   cluster loop "in a few microseconds". Loops may be statically
//!   scheduled or self-scheduled.
//! * [`placement`] — the `GLOBAL` attribute and loop-local
//!   declarations: data lives in cluster memory by default, global
//!   memory on request, and loop-local data gets a private per-CE copy
//!   in cluster memory.
//! * [`sync`] — the run-time synchronization library built on the
//!   memory modules' Test-And-Operate processors: ticket
//!   self-schedulers, multicluster barriers, and the cheap
//!   intracluster barrier on the concurrency bus.
//! * [`movement`] — explicit block moves between global and cluster
//!   memory ("data can be moved between cluster and global shared
//!   memory only via explicit moves under software control").
//! * [`task`] — the Xylem cluster-task scheduler that SDOALL stands
//!   on: gang-scheduled tasks over the four clusters.
//! * [`io`] — Xylem file-system I/O through the interactive
//!   processors, with the formatted/unformatted cost split behind the
//!   BDNA optimization.
//!
//! # Examples
//!
//! ```
//! use cedar_core::{CedarParams, CedarSystem};
//! use cedar_runtime::loops::{xdoall, Schedule, Work};
//!
//! let mut cedar = CedarSystem::new(CedarParams::paper());
//! let mut sum = 0u64;
//! let report = xdoall(&mut cedar, 64, Schedule::SelfScheduled, |i| {
//!     sum += i; // real work runs on the host...
//!     Work::cycles(1_000.0) // ...while simulated time is accounted
//! });
//! assert_eq!(sum, (0..64).sum());
//! assert!(report.makespan_cycles > 1_000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod io;
pub mod loops;
pub mod movement;
pub mod placement;
pub mod program;
pub mod shared;
pub mod sync;
pub mod task;

pub use io::{IoSubsystem, RecordFormat};
pub use loops::{cdoall, sdoall, xdoall, LoopReport, Schedule, Work};
pub use placement::Placement;
pub use program::{execute, OperandHome, Program, ProgramReport};
pub use shared::SharedArray;
pub use sync::{cluster_barrier_cycles, multicluster_barrier_cycles, Ticket};
pub use task::{TaskId, XylemScheduler};
