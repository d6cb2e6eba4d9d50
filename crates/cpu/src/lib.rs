//! `cedar-cpu` — the Cedar computational element (CE).
//!
//! Each of Cedar's 32 CEs is a pipelined 68020-compatible processor
//! with vector extensions (§2, "Alliant clusters"):
//!
//! * a 170 ns instruction cycle;
//! * a vector unit with eight 32-word registers, 64-bit floating-point
//!   and integer operations, register-memory instructions with one
//!   memory operand, and an 11.8 MFLOPS peak on 64-bit vector
//!   operations ([`vector`]);
//! * a data prefetch unit (PFU) that masks global-memory latency: armed
//!   with length/stride/mask, fired with a physical address, issuing up
//!   to 512 requests into a 512-word full/empty-bit buffer, suspending
//!   at page crossings ([`prefetch`]);
//! * a concurrency control bus supporting single-instruction
//!   `concurrent start` (gang-scheduling a parallel loop across the
//!   cluster) and fast self-scheduling ([`ccbus`]).
//!
//! # Examples
//!
//! ```
//! use cedar_cpu::vector::{MemOperand, VectorTiming, VectorUnit};
//!
//! let vu = VectorUnit::cedar();
//! // One chained multiply-add over a 32-element register-memory
//! // vector from the cluster cache.
//! let cycles = vu.op_cycles(32, MemOperand::ClusterCache, &VectorTiming::cedar());
//! assert!(cycles >= 32 + 12, "startup plus per-element time");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ccbus;
pub mod ce;
pub mod prefetch;
pub mod vector;

pub use ccbus::ConcurrencyBus;
pub use ce::{CeConfig, ComputationalElement};
pub use prefetch::{PrefetchBuffer, PrefetchUnit};
pub use vector::{MemOperand, VectorTiming, VectorUnit};
