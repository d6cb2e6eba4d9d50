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

use cedar_serve::job::{JobOutcome, JobSpec};

/// The hot fractions swept, in parts per million.
pub const FRACTIONS_PPM: [u32; 5] = [0, 20_000, 50_000, 100_000, 250_000];

/// The study's points: each hot fraction on 32 CEs, 8 blocks per CE,
/// as the serving tier's `hotspot` jobs.
#[must_use]
pub fn specs() -> Vec<JobSpec> {
    FRACTIONS_PPM
        .iter()
        .map(|&hot_ppm| JobSpec::Hotspot {
            hot_ppm,
            ces: 32,
            blocks: 8,
        })
        .collect()
}

/// Runs the sweep, one fresh fabric per hot fraction, fanned out over
/// the sweep pool.
#[must_use]
pub fn run() -> Vec<JobOutcome> {
    run_cached_on(cedar_exec::threads(), None)
}

/// [`run`] on exactly `threads` threads, whatever `CEDAR_THREADS`
/// says, over an optional result cache shared with the serving tier
/// (see [`crate::run_specs_on`]).
#[must_use]
pub fn run_cached_on(threads: usize, cache: Option<&cedar_snap::CacheDir>) -> Vec<JobOutcome> {
    crate::run_specs_on(threads, cache, specs())
}

/// Prints the study.
pub fn print() {
    println!("Synchronization hot-spot study (32 CEs, one hot module)");
    println!(
        "{:>12} {:>10} {:>13} {:>12}",
        "hot fraction", "latency", "interarrival", "words/cycle"
    );
    for (p, hot_ppm) in run().iter().zip(FRACTIONS_PPM) {
        println!(
            "{:>11.0}% {:>10.1} {:>13.2} {:>12.2}",
            f64::from(hot_ppm) / 1e4,
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
