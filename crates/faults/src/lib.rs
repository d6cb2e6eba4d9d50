//! `cedar-faults` — deterministic fault injection and degraded-mode
//! support for the Cedar multiprocessor reproduction.
//!
//! The paper studies a healthy machine, but the machine it measures was
//! engineered to *run degraded*: Cedar's omega network shipped as two
//! independent copies per direction, memory modules carried their own
//! synchronization processors, and the performance study's worst
//! behaviours (tree saturation \[Turn93\]) are exactly what a partial
//! failure amplifies. This crate supplies the workspace's fault model:
//!
//! * [`plan`] — seeded, fully deterministic fault schedules
//!   ([`FaultPlan`]) generated from a [`FaultConfig`]: stuck or slowed
//!   switch outputs, lossy links, stalling or fail-stopped memory
//!   modules, and lost synchronization updates. Same seed, same
//!   degraded run — bit for bit.
//! * [`error`] — the shared [`CedarError`] type used by every fallible
//!   constructor and recovery path in the workspace.
//! * [`RetryPolicy`] — bounded exponential backoff shared by the
//!   fabric's request timeouts and the runtime's sync-operation
//!   retries.
//!
//! The models in `cedar-net`, `cedar-mem` and `cedar-core` accept an
//! optional plan; with none attached (or a benign plan) their behaviour
//! is bit-identical to the healthy baseline.
//!
//! # Examples
//!
//! ```
//! use cedar_faults::{FaultConfig, FaultPlan, MachineShape, NetDirection};
//!
//! let plan = FaultPlan::generate(
//!     &FaultConfig::link_noise(0xFA11, 0.05),
//!     &MachineShape::cedar(),
//! )
//! .unwrap();
//! // Per-event decisions are pure functions of the event identity.
//! let d1 = plan.drops_word(NetDirection::Forward, 0, 3, 1, 42, 1000);
//! let d2 = plan.drops_word(NetDirection::Forward, 0, 3, 1, 42, 1000);
//! assert_eq!(d1, d2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod error;
pub mod plan;

pub use cluster::{
    parse_directive, WorkerFault, WorkerFaultConfig, WorkerFaultKind, WorkerFaultPlan,
};
pub use error::CedarError;
pub use plan::{FaultConfig, FaultPlan, MachineShape, NetDirection, RetryPolicy};
