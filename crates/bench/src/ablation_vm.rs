//! The \[MaEG92\] virtual-memory ablation: TRFD's page-fault storm.
//!
//! "The improved version was shown to have almost four times the
//! number of page faults relative to the one-cluster version and was
//! spending close to 50% of the time in virtual memory activity. The
//! extra faults are TLB miss faults as each additional cluster …
//! first accesses pages for which a valid PTE exists in global
//! memory. … a distributed memory version of the code was developed
//! to mitigate this problem."

use cedar_mem::address::{VAddr, PAGE_SIZE_BYTES};
use cedar_mem::vm::VirtualMemory;

/// One VM experiment outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmOutcome {
    /// Configuration label.
    pub label: &'static str,
    /// Total page faults (hard + TLB-miss).
    pub faults: u64,
    /// VM service time as a fraction of a fixed compute budget.
    pub vm_fraction: f64,
}

/// TRFD's touched working set, in pages (the Perfect data set's
/// integral tables: a few thousand 4 KB pages).
pub const PAGES: u64 = 3_000;

/// Compute cycles of the (kernel-optimized) TRFD per sweep — sized so
/// the multicluster fault storm costs about half the run, as measured.
pub const COMPUTE_CYCLES: u64 = 45_000_000;

fn touch_all(vm: &mut VirtualMemory, cluster: usize) {
    for p in 0..PAGES {
        vm.translate(cluster, VAddr(p * PAGE_SIZE_BYTES));
    }
}

/// Runs the three configurations: one cluster, four clusters sharing
/// global pages, four clusters with distributed placement. Each arm
/// builds its own [`VirtualMemory`], so the three fan out over
/// [`cedar_exec::run_sweep_on`].
#[must_use]
pub fn run() -> Vec<VmOutcome> {
    let outcome = |label, vm: &VirtualMemory| {
        let service = vm.service_cycles() as f64;
        VmOutcome {
            label,
            faults: vm.faults_per_cluster().iter().sum(),
            vm_fraction: service / (service + COMPUTE_CYCLES as f64),
        }
    };

    cedar_exec::run_sweep_on(cedar_exec::threads(), (0..3).collect(), |arm| match arm {
        0 => {
            // One cluster: first-touch faults only.
            let mut one = VirtualMemory::new(4, 256);
            touch_all(&mut one, 0);
            outcome("1 cluster, global pages", &one)
        }
        1 => {
            // Four clusters, shared global pages: every other cluster
            // TLB-miss faults on every page cluster 0 mapped.
            let mut shared = VirtualMemory::new(4, 256);
            for c in 0..4 {
                touch_all(&mut shared, c);
            }
            outcome("4 clusters, global pages", &shared)
        }
        _ => {
            // Distributed version: each cluster's partition pre-mapped
            // into its own memory; clusters touch only their own quarter.
            let mut dist = VirtualMemory::new(4, 256);
            let quarter = PAGES / 4;
            for c in 0..4 {
                dist.map_into_cluster(c, c as u64 * quarter, quarter);
            }
            for c in 0..4 {
                for p in 0..quarter {
                    dist.translate(c, VAddr((c as u64 * quarter + p) * PAGE_SIZE_BYTES));
                }
            }
            outcome("4 clusters, distributed", &dist)
        }
    })
}

/// Prints the ablation.
pub fn print() {
    println!("[MaEG92] ablation: TRFD page-fault behaviour");
    println!(
        "{:28} {:>10} {:>14}",
        "configuration", "faults", "VM time share"
    );
    let outcomes = run();
    for o in &outcomes {
        println!(
            "{:28} {:>10} {:>13.0}%",
            o.label,
            o.faults,
            o.vm_fraction * 100.0
        );
    }
    let ratio = outcomes[1].faults as f64 / outcomes[0].faults as f64;
    println!(
        "\nmulticluster/single fault ratio: {ratio:.1} (paper: almost 4x);\n\
         multicluster VM share: {:.0}% (paper: close to 50%);\n\
         the distributed version returns to first-touch faults only.",
        outcomes[1].vm_fraction * 100.0
    );
}
