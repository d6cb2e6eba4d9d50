//! `cedar-perfect` — the Perfect Benchmarks® study (§3.3, §4.2).
//!
//! The Perfect codes themselves (ADM, ARC2D, BDNA, DYFESM, FLO52, MDG,
//! MG3D, OCEAN, QCD, SPEC77, SPICE, TRACK, TRFD) are proprietary
//! Fortran applications we cannot ship; per the substitution policy in
//! DESIGN.md each code is represented by a **mechanistic profile**
//! whose parameters — serial time, parallel coverage per restructuring
//! level, scheduling-event count (granularity), prefetched
//! global-fetch volume — are *calibrated from the paper's published
//! measurements* ([`published`]) and then pushed **forward** through
//! an execution-time model built on the machine's measured costs
//! ([`model`]). The calibration is honest: the profile stores exactly
//! the quantities the paper attributes its observations to (DYFESM's
//! small granularity, TRACK's scalar-access domination, …), and the
//! forward model must *reproduce* Table 3 — which the tests assert —
//! while remaining sensitive to machine parameters for the ablation
//! studies.
//!
//! * [`published`] — the raw rows of Tables 3 and 4;
//! * [`versions`] — the restructuring levels (serial, KAP-compiled,
//!   automatable, w/o Cedar synchronization, w/o prefetch, manual);
//! * [`profile`] — [`profile::CodeProfile`] and its calibration;
//! * [`model`] — the forward execution-time model;
//! * [`manual`] — the hand-optimized versions of §4.2 and the Figure 3
//!   efficiency data;
//! * [`transformations`] — the catalogue of §3.3's automatable
//!   restructuring transformations and the machine features each
//!   leans on.
//!
//! # Examples
//!
//! ```
//! use cedar_core::{CedarParams, CedarSystem};
//! use cedar_perfect::{model::ExecutionModel, versions::Version};
//!
//! let mut cedar = CedarSystem::new(CedarParams::paper());
//! let model = ExecutionModel::calibrate(&mut cedar);
//! let adm = model.code("ADM").expect("ADM is a Perfect code");
//! let t = model.time(adm, Version::Automatable);
//! assert!((t - 73.0).abs() / 73.0 < 0.05, "ADM automatable ~73 s, got {t}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manual;
pub mod model;
pub mod profile;
pub mod published;
pub mod transformations;
pub mod versions;

pub use model::ExecutionModel;
pub use profile::CodeProfile;
pub use published::{PublishedRow, TABLE3};
pub use transformations::Transformation;
pub use versions::Version;
