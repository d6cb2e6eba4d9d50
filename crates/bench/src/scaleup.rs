//! Scaled-up Cedar-like systems — the study the paper announces but
//! defers ("We are in the process of collecting detailed simulation
//! data for various computations on scaled-up Cedar-like systems.
//! This takes us into the realm of PPT 5…").
//!
//! PPT5 asks whether the architecture can be reimplemented with much
//! larger processor counts. We scale the machine the way the design
//! scales naturally: more clusters of eight CEs, a three-stage radix-8
//! omega pair (512 positions), and memory modules growing with the
//! machine so per-processor bandwidth is preserved. The rank-64 update
//! and the prefetch fabric are then measured at 4, 8, and 16 clusters.

use cedar_core::params::CedarParams;
use cedar_core::system::CedarSystem;
use cedar_kernels::rank_update::{self, RankUpdateVersion};
use cedar_net::config::NetworkConfig;
use cedar_net::fabric::{FabricConfig, PrefetchTraffic};

/// One scaled machine's measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePoint {
    /// Clusters in the machine.
    pub clusters: usize,
    /// Total CEs.
    pub ces: usize,
    /// Unloaded-vs-loaded prefetch latency (CE cycles) at full machine.
    pub latency: f64,
    /// Interarrival at full machine.
    pub interarrival: f64,
    /// Cached rank-64 update MFLOPS at full machine.
    pub cache_mflops: f64,
    /// Prefetched rank-64 update MFLOPS at full machine.
    pub pref_mflops: f64,
}

/// Builds a Cedar-like machine of `clusters` clusters with the network
/// and memory scaled to preserve the per-processor ratios.
///
/// # Panics
///
/// Panics if `clusters` exceeds what a three-stage network carries.
#[must_use]
pub fn scaled_params(clusters: usize) -> CedarParams {
    let ces = clusters * 8;
    let stages = if ces <= 32 { 2 } else { 3 };
    let net = NetworkConfig {
        stages,
        ..NetworkConfig::cedar()
    };
    assert!(ces <= net.ports(), "machine larger than the network");
    // Modules scale with the machine: one per CE, at the Cedar service
    // rate, preserving the 0.5 words/CE-cycle per-processor bandwidth.
    let fabric = FabricConfig {
        net,
        mem_modules: ces.max(32),
        ..FabricConfig::cedar()
    };
    CedarParams::paper()
        .with_fabric(fabric)
        .with_clusters(clusters)
        .expect("scaled machine fits its network")
}

/// The cluster counts studied.
pub const SCALES: [usize; 3] = [4, 8, 16];

/// Runs the scale-up study, one fresh scaled machine per cluster
/// count, fanned out over [`cedar_exec::run_sweep_on`].
#[must_use]
pub fn run() -> Vec<ScalePoint> {
    cedar_exec::run_sweep_on(cedar_exec::threads(), SCALES.to_vec(), |clusters| {
        let mut sys = CedarSystem::new(scaled_params(clusters));
        let ces = clusters * 8;
        let profile = sys.measure_memory(PrefetchTraffic::rk_aggressive(4), ces);
        let cache = rank_update::simulate(&mut sys, 1024, RankUpdateVersion::GmCache, clusters);
        let pref = rank_update::simulate(&mut sys, 1024, RankUpdateVersion::GmPref, clusters);
        ScalePoint {
            clusters,
            ces,
            latency: profile.latency,
            interarrival: profile.interarrival,
            cache_mflops: cache.mflops,
            pref_mflops: pref.mflops,
        }
    })
}

/// Prints the study.
pub fn print() {
    println!("Scaled-up Cedar-like systems (PPT5 exploration)");
    println!("(clusters of 8 CEs; 3-stage omega beyond 32 CEs; modules scale with CEs)");
    println!(
        "{:>9} {:>6} {:>9} {:>13} {:>12} {:>11}",
        "clusters", "CEs", "latency", "interarrival", "cache MF", "pref MF"
    );
    for p in run() {
        println!(
            "{:>9} {:>6} {:>9.1} {:>13.2} {:>12.1} {:>11.1}",
            p.clusters, p.ces, p.latency, p.interarrival, p.cache_mflops, p.pref_mflops
        );
    }
    println!("\nThe cached (cluster-local) version keeps scaling linearly — the");
    println!("cluster design decouples it from the global system. The prefetched");
    println!("version scales while per-processor memory bandwidth is held, at the");
    println!("cost of one more network stage of latency past 32 CEs: the");
    println!("architecture passes a first PPT5 smoke test, with global bandwidth");
    println!("as the resource that must be reimplemented along with the CEs.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_machines_validate() {
        for &c in &SCALES {
            scaled_params(c).validate().unwrap();
        }
        assert_eq!(scaled_params(16).total_ces(), 128);
        assert_eq!(scaled_params(16).fabric.net.ports(), 512);
    }

    /// One expensive sweep shared by all the behavioural assertions
    /// (the 128-CE fabric run dominates the cost).
    #[test]
    fn scaling_behaviour() {
        let points = run();

        // The cached version scales linearly with clusters.
        let per_cluster: Vec<f64> = points
            .iter()
            .map(|p| p.cache_mflops / p.clusters as f64)
            .collect();
        for w in per_cluster.windows(2) {
            assert!(
                (w[1] / w[0] - 1.0).abs() < 0.05,
                "cached MFLOPS per cluster must stay flat: {per_cluster:?}"
            );
        }

        // With per-processor bandwidth preserved, the prefetched
        // version's per-CE rate must not collapse when the machine
        // quadruples (within 40%).
        let first = points[0].pref_mflops / points[0].ces as f64;
        let last = points.last().unwrap().pref_mflops / points.last().unwrap().ces as f64;
        assert!(
            last > 0.6 * first,
            "per-CE prefetched rate collapsed: {first} -> {last}"
        );

        // The extra network stage past 32 CEs costs latency.
        assert!(
            points[2].latency > points[0].latency * 0.9,
            "128-CE machine should not have lower latency than 32-CE"
        );
    }
}
