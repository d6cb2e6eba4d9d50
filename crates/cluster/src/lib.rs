//! `cedar-cluster` — a supervised multi-process worker fleet for the
//! sweep harness.
//!
//! ROADMAP item 2: the paper's tables are big parameter sweeps, and
//! the related cluster-computing literature argues the hard part of
//! distributing them is not the fan-out but *surviving member
//! failure*. This crate supplies that supervision layer:
//!
//! * [`run_cluster_sweep`] — the coordinator. Spawns N worker
//!   **processes** (re-execs of the current binary, detected via
//!   [`maybe_worker`]), places each sweep point — a [`JobSpec`]
//!   experiment the `cedar-serve` server runs — on the least-loaded
//!   alive worker, and merges outcomes in input order,
//!   **bit-identical to executing each spec serially**.
//! * Crash recovery — spontaneous exits, hangs (reaped by seeded
//!   heartbeats over the `cedar-sim` [`Watchdog`]) and garbage frames
//!   (caught by the `cedar-snap` frame checksums) all lead to the same
//!   place: the worker's jobs return to the pool, survivors pick them
//!   up, and the dead slot restarts under a jittered
//!   [`RetryPolicy`](cedar_faults::RetryPolicy) backoff until its
//!   budget is exhausted.
//! * Exactly-once commits — the coordinator-side [`JobJournal`] keeps
//!   every point in exactly one of three states (unstarted / owned /
//!   committed) and refuses results from any incarnation that is not
//!   the current owner, so a re-issued job can never commit twice; the
//!   atomic [`CacheDir`](cedar_snap::CacheDir) makes the committed
//!   bytes the only ones ever visible on disk. Those bytes are the
//!   sealed [`JobOutcome`](cedar_serve::job::JobOutcome) a caching
//!   server stores under the same key, so either tier's results are
//!   the other's cache hits.
//! * Deterministic chaos — a seeded
//!   [`WorkerFaultPlan`](cedar_faults::WorkerFaultPlan) kills, stalls
//!   or corrupts chosen workers at chosen points, so the whole
//!   recovery story runs under test, repeatably.
//! * [`obs`] — per-worker health, restart counts and commit latency in
//!   one `cedar_obs::SharedObs`, scraped over HTTP by [`MetricsServer`].
//!
//! # Quick start
//!
//! A cluster-capable binary calls [`maybe_worker`] first, then may
//! coordinate:
//!
//! ```no_run
//! use cedar_cluster::{run_cluster_sweep, ClusterConfig};
//! use cedar_serve::job::JobSpec;
//!
//! cedar_cluster::maybe_worker(); // exits if spawned as a worker
//!
//! let specs: Vec<JobSpec> = (0..4)
//!     .map(|kernel| JobSpec::Table2 { kernel, ces: 16, blocks: 2 })
//!     .collect();
//! let report = run_cluster_sweep(&ClusterConfig::new(4), &specs, None).unwrap();
//! assert_eq!(report.results.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod journal;
pub mod obs;
pub mod proto;
pub mod worker;

pub use coordinator::{
    run_cluster_sweep, ClusterConfig, ClusterError, ClusterReport, ClusterStats,
};
pub use journal::{CommitOrigin, JobJournal, JobRecord, JobState};
pub use obs::{MetricsServer, METRICS};
pub use proto::{FromWorker, ToWorker};
pub use worker::{maybe_worker, CHAOS_ENV, ID_ENV, INCARNATION_ENV, WORKER_ENV};

use cedar_serve::job::{JobSpec, MAX_BLOCKS};

/// The fixed sweep the `cluster_chaos` harness and the end-to-end
/// tests run: Table-2 kernel cells, degraded-mode points and hot-spot
/// fractions in rotation. The first 1,536 points have distinct keys.
/// A worker answers heartbeats only between jobs, so every point is
/// kept to milliseconds even in a debug build, well inside the default
/// 50-tick (500 ms) watchdog budget.
#[must_use]
pub fn reference_sweep(points: usize) -> Vec<JobSpec> {
    (0..points as u32)
        .map(|i| {
            let k = i / 3;
            match i % 3 {
                0 => JobSpec::Table2 {
                    kernel: (k % 4) as u8,
                    ces: 16 << ((k / 4) % 2),
                    blocks: 1 + (k / 8) % MAX_BLOCKS,
                },
                1 => JobSpec::Degraded {
                    rate_ppm: 2_000 + 1_000 * (k % 4),
                    ces: 16,
                    blocks: 1,
                    seed: 0xCEDA + u64::from(k),
                },
                _ => JobSpec::Hotspot {
                    hot_ppm: 100_000 * (k % 10 + 1),
                    ces: 16,
                    blocks: 1 + (k / 10) % MAX_BLOCKS,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_sweep_covers_three_experiment_types_with_distinct_keys() {
        let specs = reference_sweep(1_536);
        let keys: std::collections::BTreeSet<String> = specs.iter().map(JobSpec::key).collect();
        assert_eq!(keys.len(), specs.len(), "every point has its own key");
        assert!(specs.iter().all(|s| s.validate().is_ok()));
        for ty in ["table2", "degraded", "hotspot"] {
            assert!(
                specs[..3].iter().any(|s| s.describe().starts_with(ty)),
                "{ty} is in every sweep of three or more points"
            );
        }
        assert_eq!(
            reference_sweep(24),
            specs[..24],
            "a prefix of the same list"
        );
    }
}
