//! The DYFESM hierarchical-loop ablation (§4.2, \[YaGa93\]).
//!
//! DYFESM's problem is granularity: many small parallel loops whose
//! 30 µs global-memory iteration fetches dominate. The hand
//! optimization "exploit\[s\] the hierarchical SDOALL/CDOALL control
//! structure": schedule whole substructures onto clusters through
//! global memory once, then self-schedule the fine iterations on the
//! concurrency control bus at microsecond cost. This ablation runs the
//! same synthetic fine-grained workload both ways on the real runtime
//! and measures the makespans.

use cedar_runtime::loops::{cdoall, xdoall, Schedule, Work};

use crate::paper_machine;

/// The synthetic DYFESM-like workload: `outer` substructures, each
/// with `inner` fine iterations of `body_cycles` cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Substructures (superelements).
    pub outer: u64,
    /// Fine iterations per substructure.
    pub inner: u64,
    /// Cycles per fine iteration (DYFESM's granularity is small).
    pub body_cycles: f64,
}

impl Workload {
    /// A DYFESM-scale workload: hundreds of small elements.
    #[must_use]
    pub fn dyfesm_like() -> Self {
        Workload {
            outer: 64,
            inner: 128,
            body_cycles: 250.0,
        }
    }
}

/// Both makespans, in CE cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopAblation {
    /// Flat XDOALL over all outer×inner iterations.
    pub flat_cycles: f64,
    /// SDOALL over substructures, CDOALL within each.
    pub nested_cycles: f64,
    /// Improvement factor.
    pub improvement: f64,
}

/// Runs the workload both ways on the simulated runtime. The two
/// scheduling disciplines are independent arms on fresh machines, so
/// they fan out over [`cedar_exec::run_sweep_on`].
#[must_use]
pub fn run() -> LoopAblation {
    let w = Workload::dyfesm_like();
    let arms = cedar_exec::run_sweep_on(cedar_exec::threads(), vec![false, true], |nested_arm| {
        let mut sys = paper_machine();
        if !nested_arm {
            // Flat: one XDOALL over every fine iteration, each fetch
            // through global memory.
            let flat = xdoall(&mut sys, w.outer * w.inner, Schedule::SelfScheduled, |_| {
                Work::cycles(w.body_cycles)
            });
            return flat.makespan_cycles;
        }

        // Nested: substructures spread over the four clusters (one global
        // scheduling event each); the fine iterations self-schedule on the
        // concurrency bus. The clusters run their shares concurrently.
        let mut cluster_busy = [0.0f64; 4];
        for s in 0..w.outer {
            let cluster = (s % 4) as usize;
            let inner_report = cdoall(&mut sys, cluster, w.inner, Schedule::SelfScheduled, |_| {
                Work::cycles(w.body_cycles)
            });
            cluster_busy[cluster] += inner_report.makespan_cycles;
        }
        let startup = sys.params().xdoall_startup_cycles() as f64;
        let per_substructure_fetch = sys.params().xdoall_fetch_cycles() as f64;
        startup
            + cluster_busy.iter().cloned().fold(0.0, f64::max)
            + (w.outer as f64 / 4.0) * per_substructure_fetch
    });

    LoopAblation {
        flat_cycles: arms[0],
        nested_cycles: arms[1],
        improvement: arms[0] / arms[1],
    }
}

/// Prints the ablation.
pub fn print() {
    let w = Workload::dyfesm_like();
    let a = run();
    println!("DYFESM hierarchical-loop ablation");
    println!(
        "workload: {} substructures x {} iterations of {:.0} cycles",
        w.outer, w.inner, w.body_cycles
    );
    println!(
        "flat XDOALL (30 us fetches):      {:>12.0} cycles ({:.1} ms)",
        a.flat_cycles,
        a.flat_cycles * 170e-9 * 1e3
    );
    println!(
        "SDOALL/CDOALL nest (bus fetches): {:>12.0} cycles ({:.1} ms)",
        a.nested_cycles,
        a.nested_cycles * 170e-9 * 1e3
    );
    println!("improvement: {:.1}x", a.improvement);
    println!("\nThe fine iterations cost a few hundred cycles each; fetching them");
    println!("through global memory costs 177 cycles apiece, while the concurrency");
    println!("bus dispenses them for 4. This is the control-structure half of");
    println!("DYFESM's 40 s -> 31 s hand optimization.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nest_beats_flat_substantially() {
        let a = run();
        assert!(
            a.improvement > 1.3,
            "hierarchical control must win clearly, got {:.2}",
            a.improvement
        );
    }

    #[test]
    fn flat_overhead_dominates_at_this_granularity() {
        let w = Workload::dyfesm_like();
        let pure_work = w.outer as f64 * w.inner as f64 * w.body_cycles / 32.0;
        let a = run();
        assert!(
            a.flat_cycles > 1.5 * pure_work,
            "flat scheduling should add >50% overhead: work {pure_work}, flat {}",
            a.flat_cycles
        );
        assert!(
            a.nested_cycles < 1.5 * pure_work,
            "the nest should stay close to the work: {}",
            a.nested_cycles
        );
    }
}
