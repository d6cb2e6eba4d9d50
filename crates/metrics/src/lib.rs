//! `cedar-metrics` — the paper's methodology for judging parallel
//! systems (§4.3).
//!
//! The paper proposes five Practical Parallelism Tests (PPTs) built on
//! a small set of measures:
//!
//! * speedup and efficiency, with **performance levels**: *high* means
//!   speedup ≥ P/2 (efficiency ≥ 1/2), *acceptable/intermediate* means
//!   speedup ≥ P/(2·log₂P), anything lower is *unacceptable*
//!   ([`bands`]);
//! * **stability** St(P, Nᵢ, K, e) = min performance / max performance
//!   over an ensemble of K codes with e outliers excluded, and its
//!   inverse **instability**; a system is *stable* if St > 1/5, the
//!   level workstations have historically delivered on the Perfect
//!   codes ([`mod@stability`]);
//! * the PPT evaluators themselves ([`ppt`]).
//!
//! This crate is deliberately free of simulator dependencies: it
//! consumes plain performance numbers, so the same methodology applies
//! to the Cedar model, the analytic baselines, or anything else.
//!
//! # Examples
//!
//! ```
//! use cedar_metrics::bands::{classify, PerfBand};
//!
//! // 20x speedup on 32 processors: 20 >= 16 = P/2 -> high.
//! assert_eq!(classify(20.0, 32), PerfBand::High);
//! // 5x speedup on 32 processors: 3.2 <= 5 < 16 -> intermediate.
//! assert_eq!(classify(5.0, 32), PerfBand::Intermediate);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bands;
pub mod fppp;
pub mod ppt;
pub mod stability;

pub use bands::{classify, efficiency, speedup, BandCount, PerfBand};
pub use fppp::{fppp_check, FpppVerdict, MachineEnsemble};
pub use ppt::{
    ModelComplexity, Ppt1Verdict, Ppt2Verdict, Ppt3Verdict, Ppt4Verdict, Ppt5Verdict, PptSummary,
    ScalabilityPoint,
};
pub use stability::{instability, stability, StabilityReport};
