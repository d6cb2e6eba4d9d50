//! Degraded-mode study: Table 2's latency/bandwidth columns regenerated
//! across deterministic fault rates.
//!
//! The paper measures the healthy machine. This experiment asks how the
//! global-memory system holds up when the fabric is injected with the
//! deterministic fault plan of `cedar-faults`: lossy links, stuck and
//! slowed switch outputs, stalling memory modules. Requests lost to
//! drops are recovered by the fabric's timeout-and-retry machinery, so
//! every row reports both the delivered performance and what the
//! recovery cost (retries, dropped words, abandoned requests).
//!
//! Rate 0 attaches a benign plan, which the fabric discards — that row
//! is the healthy baseline, bit-identical to a run with no plan at all.
//!
//! Each point is a `degraded` job of the serving tier, run and cached
//! exactly as the server and the worker fleet run it.

use cedar_serve::job::{JobOutcome, JobSpec, Recipe, DEFAULT_SEED, MAX_NET_CYCLES};

/// The link-drop / sync-loss rates swept, in parts per million
/// (0 = healthy baseline).
pub const RATES_PPM: [u32; 4] = [0, 10_000, 20_000, 50_000];

/// The CE counts of the study (Table 2's columns).
pub const CES: [u32; 3] = [8, 16, 32];

/// The study's grid in report order, every rate at every CE count:
/// the rank-update prefetch stream (the heaviest global-memory
/// customer in Table 2), 8 blocks per CE, under the fault plan of
/// [`DEFAULT_SEED`].
#[must_use]
pub fn specs() -> Vec<JobSpec> {
    RATES_PPM
        .iter()
        .flat_map(|&rate_ppm| {
            CES.iter().map(move |&ces| JobSpec::Degraded {
                rate_ppm,
                ces,
                blocks: 8,
                seed: DEFAULT_SEED,
            })
        })
        .collect()
}

/// How often the resumable runner checkpoints, in network cycles.
/// Grid points complete in a few thousand to a few tens of thousands
/// of net cycles (the healthy 8-CE point drains in ~4k), so 2k yields
/// several checkpoints per point — a killed run loses only a sliver
/// of one point — while serialization stays invisible in the profile.
pub const CHECKPOINT_EVERY_NET_CYCLES: u64 = 2_000;

/// A degraded spec's [`Recipe`] with crash resilience: the experiment
/// auto-checkpoints to `checkpoint` every
/// [`CHECKPOINT_EVERY_NET_CYCLES`] and, if a matching checkpoint
/// already exists there (a previous invocation was killed mid-run),
/// resumes from it instead of restarting. The outcome is
/// bit-identical to [`JobSpec::execute`]'s either way; the checkpoint
/// file is removed on completion.
///
/// # Panics
///
/// Panics if `spec` is not a degraded spec or the watchdog trips.
#[must_use]
pub fn run_resumable(spec: &JobSpec, checkpoint: &std::path::Path) -> JobOutcome {
    let Recipe {
        mut fabric,
        ces,
        traffic,
        watchdog,
    } = spec.recipe().expect("degraded specs have a recipe");
    let mut dog = watchdog.expect("a degraded spec's run is watched");
    let report = fabric
        .run_watched_checkpointed(
            ces,
            traffic,
            MAX_NET_CYCLES,
            &mut dog,
            CHECKPOINT_EVERY_NET_CYCLES,
            checkpoint,
        )
        .expect("degraded run made progress");
    JobOutcome::from_report(&report)
}

/// Runs the full sweep. Points are independent freshly built fabrics,
/// so they fan out over the sweep pool with results committed in grid
/// order.
#[must_use]
pub fn run() -> Vec<JobOutcome> {
    run_cached(None)
}

/// [`run`] over an optional result cache shared with the serving tier
/// (see [`crate::run_specs_on`]).
#[must_use]
pub fn run_cached(cache: Option<&cedar_snap::CacheDir>) -> Vec<JobOutcome> {
    crate::run_specs_on(cedar_exec::threads(), cache, specs())
}

/// Renders the sweep as a Table-2-style text table. Deterministic:
/// the same seed yields this exact string, byte for byte.
#[must_use]
pub fn report() -> String {
    report_cached(None)
}

/// [`report`] backed by an optional sweep-point cache.
#[must_use]
pub fn report_cached(cache: Option<&cedar_snap::CacheDir>) -> String {
    render(&run_cached(cache))
}

/// Formats sweep points (in [`specs`]' grid order) as the report table.
#[must_use]
pub fn render(points: &[JobOutcome]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Degraded-mode global memory performance (seed {DEFAULT_SEED:#x}, RK prefetch stream)"
    );
    let _ = writeln!(
        out,
        "{:>6} | {:^23} | {:^23} | {:^23}",
        "", "Latency (cycles)", "Interarrival (cycles)", "BW (words/CE-cycle)"
    );
    let _ = writeln!(
        out,
        "{:>6} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7}",
        "rate", 8, 16, 32, 8, 16, 32, 8, 16, 32
    );
    for (chunk, rate_ppm) in points.chunks(CES.len()).zip(RATES_PPM) {
        let _ = writeln!(
            out,
            "{:>6.2} | {:>7.1} {:>7.1} {:>7.1} | {:>7.2} {:>7.2} {:>7.2} | {:>7.3} {:>7.3} {:>7.3}",
            f64::from(rate_ppm) / 1e6,
            chunk[0].latency,
            chunk[1].latency,
            chunk[2].latency,
            chunk[0].interarrival,
            chunk[1].interarrival,
            chunk[2].interarrival,
            chunk[0].bandwidth,
            chunk[1].bandwidth,
            chunk[2].bandwidth,
        );
        let _ = writeln!(
            out,
            "{:>6} | dropped {:>5} {:>5} {:>5}   retried {:>5} {:>5} {:>5}   failed {:>3} {:>3} {:>3}",
            "",
            chunk[0].words_dropped,
            chunk[1].words_dropped,
            chunk[2].words_dropped,
            chunk[0].retries,
            chunk[1].retries,
            chunk[2].retries,
            chunk[0].failed,
            chunk[1].failed,
            chunk[2].failed,
        );
    }
    let _ = writeln!(
        out,
        "\nrate 0.00 attaches a benign plan and matches the healthy machine exactly"
    );
    out
}

/// Prints the sweep.
pub fn print() {
    print!("{}", report());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study_point;
    use cedar_snap::{CacheDir, Snapshot};

    fn point(rate_ppm: u32, ces: u32) -> JobSpec {
        JobSpec::Degraded {
            rate_ppm,
            ces,
            blocks: 8,
            seed: DEFAULT_SEED,
        }
    }

    #[test]
    fn rate_zero_matches_an_unfaulted_fabric() {
        // The degraded stream is Table 2's RK stream: at rate 0 the
        // benign plan is discarded and the two runs are one.
        let healthy = study_point(&JobSpec::Table2 {
            kernel: 3,
            ces: 8,
            blocks: 8,
        });
        let p = study_point(&point(0, 8));
        assert_eq!(p, healthy);
        assert!(!p.degraded);
        assert_eq!((p.words_dropped, p.retries, p.failed), (0, 0, 0));
    }

    #[test]
    fn faults_cost_bandwidth_and_recovery_work() {
        let healthy = study_point(&point(0, 16));
        let degraded = study_point(&point(50_000, 16));
        assert!(degraded.words_dropped > 0, "5% drops should eat words");
        assert!(degraded.retries > 0, "drops should force reissues");
        assert!(
            degraded.bandwidth < healthy.bandwidth,
            "degraded bandwidth {} should fall below healthy {}",
            degraded.bandwidth,
            healthy.bandwidth
        );
    }

    #[test]
    fn sweep_point_is_deterministic() {
        assert_eq!(
            study_point(&point(20_000, 8)),
            study_point(&point(20_000, 8))
        );
    }

    #[test]
    fn resumable_measure_matches_plain_measure() {
        let path =
            std::env::temp_dir().join(format!("cedar-degraded-resume-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let spec = point(20_000, 8);
        assert_eq!(run_resumable(&spec, &path), study_point(&spec));
        assert!(!path.exists(), "completed run must remove its checkpoint");
    }

    /// Cold, warm and uncached runs of the degraded, Table-2 and
    /// hot-spot studies are byte-identical (reports, or for the
    /// hot-spot study the outcomes' encodings), and the cold
    /// runs leave every degraded and hot-spot point where a caching
    /// server or cluster sweep on the same directory looks for it: a
    /// `JobOutcome` under `spec.key()`, equal to `spec.execute`'s.
    #[test]
    fn cached_sweep_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("cedar-degraded-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CacheDir::new(&dir).unwrap();
        let threads = cedar_exec::threads();

        let cold = report_cached(Some(&cache));
        let hot_cold = crate::hotspot::run_cached_on(threads, Some(&cache));
        let table2_cold = crate::table2::report_cached(Some(&cache));

        let specs: Vec<JobSpec> = specs().into_iter().chain(crate::hotspot::specs()).collect();
        let fresh: Vec<JobOutcome> = specs
            .iter()
            .map(|s| s.execute(MAX_NET_CYCLES).unwrap())
            .collect();
        for (spec, outcome) in specs.iter().zip(&fresh) {
            let stored: Option<JobOutcome> = cache.load(&spec.key());
            assert_eq!(stored.as_ref(), Some(outcome), "{}", spec.describe());
        }

        let (uncached, hot_uncached) = fresh.split_at(RATES_PPM.len() * CES.len());
        assert_eq!(cold, render(uncached), "degraded: cold != uncached");
        assert_eq!(cold, report_cached(Some(&cache)), "degraded: cold != warm");
        let bytes = |points: &[JobOutcome]| -> Vec<Vec<u8>> {
            points.iter().map(Snapshot::to_snapshot_bytes).collect()
        };
        let hot_warm = crate::hotspot::run_cached_on(threads, Some(&cache));
        assert_eq!(
            bytes(&hot_cold),
            bytes(hot_uncached),
            "hotspot: cold != uncached"
        );
        assert_eq!(bytes(&hot_cold), bytes(&hot_warm), "hotspot: cold != warm");
        assert_eq!(
            table2_cold,
            crate::table2::report(),
            "table2: cold != uncached"
        );
        assert_eq!(
            table2_cold,
            crate::table2::report_cached(Some(&cache)),
            "table2: cold != warm"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
