//! `cedar-baselines` — the comparison systems of §4.3.
//!
//! The paper judges Cedar against the Cray YMP/8 and Cray-1 (Perfect
//! ensembles) and the Thinking Machines CM-5 (banded matrix-vector
//! scalability), plus a workstation stability anchor (VAX 780 through
//! SPARC2/RS6000). None of those machines' raw per-code data sets are
//! fully printed in the paper, so this crate mixes:
//!
//! * **transcribed data** — the YMP:Cedar MFLOPS ratios of Table 3
//!   ([`ymp`]);
//! * **analytic models** — the CM-5 banded matvec (compute rate of a
//!   no-FPU SPARC node plus a fat-tree communication term,
//!   [`cm5`]);
//! * **documented reconstructions** — per-code efficiencies and the
//!   Cray-1 ensemble, synthesized to satisfy exactly the qualitative
//!   facts the paper states (band censuses, exception counts), and
//!   flagged as reconstructions in EXPERIMENTS.md ([`ymp`],
//!   [`cray1`], [`workstation`]).
//!
//! The machine zoo (ROADMAP item 4) extends the roster with two
//! post-paper designs reconstructed from the related work in
//! PAPERS.md: the Cray T3D MIMD NUMA message-passing machine,
//! calibrated from its lattice-QCD performance study ([`t3d`]), and a
//! SPARC T3-style massively multithreaded NUMA machine ([`t3`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cm5;
pub mod cray1;
pub mod t3;
pub mod t3d;
pub mod workstation;
pub mod ymp;

pub use cm5::Cm5Model;
pub use t3::T3Model;
pub use t3d::T3dModel;
pub use ymp::YmpModel;
