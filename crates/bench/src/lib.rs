//! `cedar-bench` — the experiment harness.
//!
//! One module per table or figure of the paper's evaluation, each with
//! a `run` function returning structured results (consumed by the
//! integration tests) and a `print` function producing the
//! paper-shaped table (used by the regeneration binaries in
//! `src/bin`). EXPERIMENTS.md records paper-vs-measured for every
//! row.
//!
//! | Module | Regenerates |
//! |---|---|
//! | [`table1`] | Table 1 — rank-64 update MFLOPS |
//! | [`table2`] | Table 2 — prefetch speedup, latency, interarrival |
//! | [`table3`] | Table 3 — Perfect codes times/improvements/MFLOPS |
//! | [`table4`] | Table 4 — manually optimized codes |
//! | [`table5`] | Table 5 — instability of Cedar / YMP-8 / Cray-1 |
//! | [`table6`] | Table 6 — restructuring-efficiency band census |
//! | [`fig3`] | Figure 3 — YMP vs Cedar efficiency scatter |
//! | [`ppt4`] | §4.3 PPT4 — CG scalability + CM-5 comparison |
//! | [`overheads`] | §3.2 — loop-construct overheads |
//! | [`ablation_network`] | \[Turn93\] — queue-depth network ablation |
//! | [`ablation_vm`] | \[MaEG92\] — TRFD page-fault ablation |
//! | [`ablation_barriers`] | §4.2 — FLO52 barrier restructuring |
//! | [`ablation_loops`] | §4.2 — DYFESM SDOALL/CDOALL nest |
//! | [`ablation_io`] | §4.2 — BDNA formatted vs unformatted I/O |
//! | [`figures`] | Figures 1 and 2 — machine/cluster organization |
//! | [`scaleup`] | PPT5 exploration — scaled-up Cedar-like systems |
//! | [`hotspot`] | §2 motivation — synchronization hot-spot collapse |
//! | [`whatif`] | design what-ifs over the Perfect workload |
//! | [`fidelity32`] | regular omega vs the production dual-link 32×32 network |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation_barriers;
pub mod ablation_io;
pub mod ablation_loops;
pub mod ablation_network;
pub mod ablation_vm;
pub mod degraded;
pub mod fidelity32;
pub mod fig3;
pub mod figures;
pub mod hotspot;
pub mod overheads;
pub mod ppt4;
pub mod scaleup;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod trace;
pub mod whatif;

use cedar_core::params::CedarParams;
use cedar_core::system::CedarSystem;

/// Builds the paper-configuration machine every experiment starts
/// from.
#[must_use]
pub fn paper_machine() -> CedarSystem {
    CedarSystem::new(CedarParams::paper())
}

/// Formats a float with one decimal, right-aligned to `w`.
#[must_use]
pub fn f1(x: f64, w: usize) -> String {
    format!("{x:>w$.1}")
}

/// Formats a float with two decimals, right-aligned to `w`.
#[must_use]
pub fn f2(x: f64, w: usize) -> String {
    format!("{x:>w$.2}")
}
