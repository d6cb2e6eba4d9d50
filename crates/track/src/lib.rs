//! cedar-track: per-commit benchmark history, regression gating and a
//! static perf dashboard.
//!
//! The Cedar paper's whole argument is a set of measured numbers —
//! Table 2 simulation rates, sweep speedups, serve latencies. This
//! crate makes those numbers *first-class, per-commit artifacts*:
//!
//! - [`history`] — the versioned, append-only `bench/history.jsonl`
//!   format: one JSON line per measured commit (schema, commit id,
//!   ISO-8601 timestamp, host fingerprint, run mode, flat metric map),
//!   with corrupt lines quarantined as warnings rather than crashes.
//! - [`ingest`] — turns the benchmark bins' reports
//!   (`cedar-bench-perf/4`, `cedar-bench-serve/4`,
//!   `cedar-bench-cluster/1`, `cedar-bench-zoo/1`,
//!   `cedar-bench-compare/1`) into one stamped history entry.
//! - [`gate`] — compares the newest entry against a trailing median of
//!   same-mode, same-host predecessors with direction-aware
//!   thresholds; exactly-at-threshold passes, strictly-beyond fails.
//! - [`render`] — emits a dependency-free static HTML dashboard
//!   embedding the full history as a `window.BENCHMARK_DATA` blob,
//!   validated by the cedar-obs structural JSON validator.
//! - [`meta`] — best-effort git commit / timestamp / host stamping
//!   with `CEDAR_TRACK_COMMIT` / `CEDAR_TRACK_TIMESTAMP` overrides for
//!   hermetic tests and CI.
//!
//! The `track` binary wires these together as `append` / `check` /
//! `render` subcommands; see `track --help`.
//!
//! Everything is `std`-only, like the rest of the workspace.

#![forbid(unsafe_code)]

pub mod gate;
pub mod history;
pub mod ingest;
pub mod meta;
pub mod render;

pub use gate::{check, default_gates, Direction, GateOptions, GateOutcome, GateReport, GateSpec};
pub use history::{append, load, parse_history, HistoryEntry, HostFingerprint, SCHEMA};
pub use ingest::{
    build_entry, cluster_report, compare_report, perf_report, serve_report, Ingested,
};
pub use render::{render_dashboard, render_data_blob};
