//! Synchronization hot-spot study.
//!
//! §2 motivates the memory-based synchronization hardware: "given
//! multistage interconnection networks it is impossible to provide
//! standard lock cycles and very inefficient to perform multiple
//! memory accesses for synchronization." A shared counter or lock cell
//! concentrates traffic on one memory module; as the hot fraction
//! grows, the module serializes, its queue tree-saturates back through
//! the omega network, and *all* traffic suffers — the classic hot-spot
//! collapse. Cedar's Test-And-Operate processors attack exactly this:
//! one network transaction per synchronization instead of a
//! read-modify-write sequence (two or more round trips holding the hot
//! module even longer).

use cedar_net::fabric::{FabricConfig, PrefetchTraffic, RoundTripFabric};

/// One hot-spot operating point at 32 CEs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotPoint {
    /// Fraction of requests aimed at module 0.
    pub hot_fraction: f64,
    /// Mean first-word latency (CE cycles).
    pub latency: f64,
    /// Mean interarrival (CE cycles).
    pub interarrival: f64,
    /// Delivered bandwidth (words per CE cycle).
    pub bandwidth: f64,
}

/// The hot fractions swept.
pub const FRACTIONS: [f64; 5] = [0.0, 0.02, 0.05, 0.10, 0.25];

/// Runs the sweep on 32 CEs, one fresh fabric per hot fraction,
/// fanned out over [`cedar_exec::run_sweep`].
#[must_use]
pub fn run() -> Vec<HotspotPoint> {
    run_cached(None)
}

/// Cache namespace for the sweep's points. Bump the suffix when the
/// traffic shape or fabric configuration changes so stale entries
/// self-invalidate.
pub const CACHE_NAMESPACE: &str = "bench.hotspot/1";

cedar_snap::snapshot_struct!(HotspotPoint {
    hot_fraction,
    latency,
    interarrival,
    bandwidth,
});

/// [`run`] with an optional content-addressed result cache keyed per
/// hot fraction under [`CACHE_NAMESPACE`].
#[must_use]
pub fn run_cached(cache: Option<&cedar_snap::CacheDir>) -> Vec<HotspotPoint> {
    run_cached_on(cedar_exec::threads(), cache)
}

/// [`run_cached`] on exactly `threads` threads, whatever
/// `CEDAR_THREADS` says.
#[must_use]
pub fn run_cached_on(threads: usize, cache: Option<&cedar_snap::CacheDir>) -> Vec<HotspotPoint> {
    let fractions = FRACTIONS.to_vec();
    cedar_exec::run_sweep_cached_on(threads, cache, CACHE_NAMESPACE, fractions, point)
}

/// One hot fraction's point: a fresh fabric on 32 CEs.
fn point(fraction: f64) -> HotspotPoint {
    let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
    let report =
        fabric.run_prefetch_experiment(32, PrefetchTraffic::sync_hotspot(8, fraction), 32_000_000);
    HotspotPoint {
        hot_fraction: fraction,
        latency: report.mean_first_word_latency_ce(),
        interarrival: report.mean_interarrival_ce(),
        bandwidth: report.words_per_ce_cycle(),
    }
}

/// Prints the study.
pub fn print() {
    println!("Synchronization hot-spot study (32 CEs, one hot module)");
    println!(
        "{:>12} {:>10} {:>13} {:>12}",
        "hot fraction", "latency", "interarrival", "words/cycle"
    );
    for p in run() {
        println!(
            "{:>11.0}% {:>10.1} {:>13.2} {:>12.2}",
            p.hot_fraction * 100.0,
            p.latency,
            p.interarrival,
            p.bandwidth
        );
    }
    println!("\nA few percent of traffic to one cell is enough to serialize the");
    println!("module and saturate the tree behind it. This is why Cedar executes");
    println!("Test-And-Operate *at* the module — one transaction per sync — and");
    println!("why the runtime spreads its scheduling cells across modules.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_spot_degrades_monotonically() {
        let points = run();
        for pair in points.windows(2) {
            assert!(
                pair[1].bandwidth <= pair[0].bandwidth * 1.02,
                "bandwidth must not improve as the hot spot grows: {} -> {}",
                pair[0].bandwidth,
                pair[1].bandwidth
            );
        }
        let cold = &points[0];
        let hot = points.last().unwrap();
        assert!(
            hot.bandwidth < 0.5 * cold.bandwidth,
            "a 25% hot spot should at least halve throughput: {} -> {}",
            cold.bandwidth,
            hot.bandwidth
        );
        assert!(hot.latency > cold.latency, "and raise latency");
    }

    #[test]
    fn mild_hot_spots_already_hurt() {
        let points = run();
        let cold = &points[0];
        let mild = &points[2]; // 5%
        assert!(
            mild.bandwidth < 0.95 * cold.bandwidth,
            "5% hot traffic must be visible: {} vs {}",
            mild.bandwidth,
            cold.bandwidth
        );
    }
}
