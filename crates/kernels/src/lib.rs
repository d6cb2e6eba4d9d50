//! `cedar-kernels` — the computational kernels of the paper's §4.1,
//! with real numerics and simulated Cedar timing.
//!
//! Every kernel computes genuine results on the host (validated
//! against naive references and algebraic identities in the tests)
//! while its Cedar execution time comes from the machine's cost model
//! — measured network/memory profiles plus the vector-unit timing —
//! exactly the two-level approach DESIGN.md describes.
//!
//! * [`rank_update`] — the rank-64 update in its three Table 1
//!   versions (GM/no-pref, GM/pref, GM/cache);
//! * [`vecload`] — the VL/VF vector-load kernel;
//! * [`tridiag`] — the TM tridiagonal matrix-vector multiply;
//! * [`cg`] — the 5-diagonal conjugate-gradient solver used for the
//!   PPT4 scalability study (§4.3);
//! * [`banded`] — banded matrix-vector products with bandwidths 3 and
//!   11, the computation quoted for the CM-5 comparison;
//! * [`prng`] — the leapfrog parallel random-number generator behind
//!   QCD's 1.8× → 20.8× hand optimization;
//! * [`reduction`] — hierarchical dot products and sums (per-CE strip,
//!   concurrency-bus combine, global sync-cell combine).
//!
//! # Examples
//!
//! ```
//! use cedar_core::{CedarParams, CedarSystem};
//! use cedar_kernels::rank_update::{self, RankUpdateVersion};
//!
//! let mut cedar = CedarSystem::new(CedarParams::paper());
//! let report = rank_update::simulate(&mut cedar, 1024, RankUpdateVersion::GmCache, 4);
//! assert!(report.mflops > 100.0, "four-cluster cached rank update is fast");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod banded;
pub mod cg;
pub mod prng;
pub mod rank_update;
pub mod reduction;
pub mod tridiag;
pub mod vecload;

pub use rank_update::RankUpdateVersion;

/// A kernel's simulated execution outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelReport {
    /// Floating-point operations performed.
    pub flops: f64,
    /// Simulated execution time in CE cycles (critical path).
    pub cycles: f64,
    /// Achieved MFLOPS at the 170 ns clock.
    pub mflops: f64,
}

impl KernelReport {
    /// Builds a report from work and time at the Cedar clock.
    #[must_use]
    pub fn new(flops: f64, cycles: f64) -> Self {
        let seconds = cycles * 170e-9;
        KernelReport {
            flops,
            cycles,
            mflops: if seconds > 0.0 {
                flops / seconds / 1e6
            } else {
                0.0
            },
        }
    }
}
