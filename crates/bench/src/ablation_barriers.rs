//! The FLO52 barrier-restructuring ablation (§4.2, \[GJWY93\]).
//!
//! "Four of the five major routines in FLO52 require a series of
//! multicluster barriers. Unfortunately, the associated
//! synchronization overhead degrades performance for problems that are
//! not sufficiently large, e.g., the Perfect data set. … by
//! introducing a small amount of redundancy, we can transform the
//! sequence of multicluster barriers into a single multicluster
//! barrier and four independent sequences of barriers that can exploit
//! the concurrency control hardware in each cluster."
//!
//! The ablation builds a synthetic FLO52-like sweep — `phases` phases
//! of parallel work separated by barriers — and compares the original
//! all-multicluster pattern against the restructured pattern at
//! several problem sizes, showing (a) the restructured pattern's
//! barrier overhead is an order of magnitude lower and (b) the
//! original's overhead *fraction* shrinks as the problem grows, which
//! is why only small problems suffered.

use cedar_runtime::sync::{cluster_barrier_cycles, multicluster_barrier_cycles};

/// One synthetic sweep configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepOutcome {
    /// Grid points in the problem.
    pub n: usize,
    /// Total cycles with the original all-multicluster barriers.
    pub original_cycles: f64,
    /// Total cycles with the restructured barrier pattern.
    pub restructured_cycles: f64,
    /// Barrier overhead as a fraction of the original sweep.
    pub original_overhead_fraction: f64,
    /// Speedup of the restructuring.
    pub improvement: f64,
}

/// Barrier points per sweep in the synthetic FLO52 (multigrid stages ×
/// Runge-Kutta steps across the four barrier-heavy routines).
pub const PHASES: usize = 120;

/// Work cycles per grid point per phase on 32 CEs (vectorized stencil
/// updates at global-memory rates).
pub const WORK_CYCLES_PER_POINT: f64 = 0.12;

/// Straggler window added to every barrier: the last CE arrives this
/// many cycles after the first (load imbalance the barrier exposes).
pub const IMBALANCE_CYCLES: f64 = 260.0;

/// Simulates one relaxation sweep at problem size `n` under both
/// barrier patterns.
#[must_use]
pub fn sweep(n: usize) -> SweepOutcome {
    let work = PHASES as f64 * n as f64 * WORK_CYCLES_PER_POINT / 32.0;
    let multicluster = multicluster_barrier_cycles(4) + IMBALANCE_CYCLES;
    let intracluster = cluster_barrier_cycles() + IMBALANCE_CYCLES / 4.0;
    // Original: every phase ends in a multicluster barrier.
    let original_overhead = PHASES as f64 * multicluster;
    // Restructured: one multicluster barrier per sweep; each phase
    // syncs only within its cluster (the redundancy the paper adds
    // makes the clusters independent between the end barriers).
    let restructured_overhead = multicluster + PHASES as f64 * intracluster;
    let original_cycles = work + original_overhead;
    let restructured_cycles = work + restructured_overhead;
    SweepOutcome {
        n,
        original_cycles,
        restructured_cycles,
        original_overhead_fraction: original_overhead / original_cycles,
        improvement: original_cycles / restructured_cycles,
    }
}

/// The swept problem sizes (the Perfect data set is the small end).
pub const SIZES: [usize; 4] = [16_384, 65_536, 262_144, 1_048_576];

/// Runs the ablation across problem sizes, fanned out over
/// [`cedar_exec::run_sweep_on`].
#[must_use]
pub fn run() -> Vec<SweepOutcome> {
    cedar_exec::run_sweep_on(cedar_exec::threads(), SIZES.to_vec(), sweep)
}

/// Prints the ablation.
pub fn print() {
    println!("FLO52 barrier-restructuring ablation (synthetic sweep, 32 CEs)");
    println!(
        "{:>10} {:>14} {:>14} {:>12} {:>12}",
        "N", "original cyc", "restruct cyc", "orig ovhd", "improvement"
    );
    for o in run() {
        println!(
            "{:>10} {:>14.0} {:>14.0} {:>11.0}% {:>12.2}",
            o.n,
            o.original_cycles,
            o.restructured_cycles,
            o.original_overhead_fraction * 100.0,
            o.improvement
        );
    }
    println!("\nThe barrier overhead fraction shrinks with problem size — the");
    println!("paper's observation that the multicluster barriers hurt 'problems");
    println!("that are not sufficiently large, e.g., the Perfect data set'. The");
    println!("restructured pattern (one multicluster barrier + per-cluster");
    println!("sequences on the concurrency bus) removes most of the overhead at");
    println!("the Perfect size, part of FLO52's 64 s -> 33 s hand optimization.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restructuring_always_helps() {
        for o in run() {
            assert!(o.improvement > 1.0, "N={}: {}", o.n, o.improvement);
            assert!(o.restructured_cycles < o.original_cycles);
        }
    }

    #[test]
    fn overhead_fraction_shrinks_with_problem_size() {
        let outcomes = run();
        for pair in outcomes.windows(2) {
            assert!(
                pair[1].original_overhead_fraction < pair[0].original_overhead_fraction,
                "overhead fraction must fall: {} -> {}",
                pair[0].original_overhead_fraction,
                pair[1].original_overhead_fraction
            );
        }
    }

    #[test]
    fn small_problems_suffer_materially() {
        let small = sweep(SIZES[0]);
        assert!(
            small.original_overhead_fraction > 0.25,
            "at the Perfect size barriers must cost a large fraction, got {}",
            small.original_overhead_fraction
        );
        let large = sweep(SIZES[3]);
        assert!(
            large.original_overhead_fraction < 0.10,
            "large problems amortize the barriers, got {}",
            large.original_overhead_fraction
        );
    }

    #[test]
    fn improvement_is_largest_at_the_small_end() {
        let outcomes = run();
        assert!(outcomes[0].improvement > outcomes[3].improvement);
        assert!(
            (1.2..3.5).contains(&outcomes[0].improvement),
            "Perfect-size improvement {} should be material (FLO52's total \
             hand gain was ~1.9x including recurrence elimination)",
            outcomes[0].improvement
        );
    }
}
