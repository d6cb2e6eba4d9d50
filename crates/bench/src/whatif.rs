//! Machine what-ifs over the Perfect workload.
//!
//! The calibrated Perfect model is mechanistic in the machine costs,
//! so it can answer the design questions the paper's discussion
//! raises: how much of the automatable-version time is Cedar's
//! synchronization hardware buying, and what would faster global
//! scheduling or a better prefetch story be worth? Each scenario
//! re-runs the forward model with one machine cost changed.

use cedar_perfect::model::ExecutionModel;
use cedar_perfect::versions::Version;

use crate::paper_machine;

/// One scenario's aggregate outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario label.
    pub label: &'static str,
    /// Sum of automatable times over the 12 modelled codes, seconds.
    pub total_seconds: f64,
    /// Geometric-mean improvement over serial.
    pub geomean_improvement: f64,
}

fn summarize(label: &'static str, model: &ExecutionModel) -> Scenario {
    let mut total = 0.0;
    let mut log_sum = 0.0;
    for code in model.codes() {
        let t = model.time(code, Version::Automatable);
        total += t;
        log_sum += model.improvement(code, Version::Automatable).ln();
    }
    Scenario {
        label,
        total_seconds: total,
        geomean_improvement: (log_sum / model.codes().len() as f64).exp(),
    }
}

/// Runs the scenarios: one shared calibration (the expensive fabric
/// measurements), then the four what-if re-evaluations fan out over
/// [`cedar_exec::run_sweep_on`] reading the calibrated model.
#[must_use]
pub fn run() -> Vec<Scenario> {
    let mut sys = paper_machine();
    let base = ExecutionModel::calibrate(&mut sys);
    let base_costs = *base.costs();

    cedar_exec::run_sweep_on(
        cedar_exec::threads(),
        (0..4).collect(),
        |scenario| match scenario {
            0 => summarize("Cedar as built", &base),
            1 => {
                // Faster global scheduling: the 30 us fetch halves (e.g.
                // dedicated scheduling hardware beyond the sync processors).
                let mut fast_sched = base_costs;
                fast_sched.sched_cedar_s /= 2.0;
                fast_sched.sched_tas_s /= 2.0;
                summarize(
                    "2x faster loop scheduling",
                    &base.with_swapped_costs(fast_sched),
                )
            }
            2 => {
                // No synchronization hardware at all: every code runs at its
                // Test-And-Set scheduling cost (the NoSync column machine-wide).
                let mut no_sync_hw = base_costs;
                no_sync_hw.sched_cedar_s = base_costs.sched_tas_s;
                summarize("no sync hardware", &base.with_swapped_costs(no_sync_hw))
            }
            _ => {
                // The prefetch unit removed (Cedar synchronization kept): every
                // code's prefetched fetch volume is re-priced at the unmasked
                // global rate on top of its automatable time — what the PFU buys
                // across the workload.
                let mut total = 0.0;
                let mut log_sum = 0.0;
                for code in base.codes() {
                    let k = base_costs.nopref_factor(code.width_ces);
                    let t =
                        base.time(code, Version::Automatable) + code.prefetched_seconds * (k - 1.0);
                    total += t;
                    log_sum += (code.serial_seconds / t).ln();
                }
                Scenario {
                    label: "prefetch unit removed",
                    total_seconds: total,
                    geomean_improvement: (log_sum / base.codes().len() as f64).exp(),
                }
            }
        },
    )
}

/// Prints the scenarios.
pub fn print() {
    println!("Perfect-workload what-ifs (12 modelled codes, automatable versions)");
    println!(
        "{:44} {:>12} {:>18}",
        "scenario", "total (s)", "geomean improv."
    );
    for s in run() {
        println!(
            "{:44} {:>12.0} {:>18.1}",
            s.label, s.total_seconds, s.geomean_improvement
        );
    }
    println!("\nThe gap between 'Cedar as built' and 'no sync hardware' is what the");
    println!("memory-module synchronization processors buy across the workload;");
    println!("the scheduling and memory rows bound how much further runtime and");
    println!("memory-system engineering could have gone.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_hardware_pays_for_itself() {
        let scenarios = run();
        let built = &scenarios[0];
        let no_sync = &scenarios[2];
        assert!(
            no_sync.total_seconds > built.total_seconds + 10.0,
            "removing the sync hardware must cost tens of seconds: {} vs {}",
            no_sync.total_seconds,
            built.total_seconds
        );
    }

    #[test]
    fn faster_scheduling_helps_but_less_than_sync_removal_hurts() {
        let scenarios = run();
        let built = &scenarios[0];
        let fast = &scenarios[1];
        let no_sync = &scenarios[2];
        assert!(fast.total_seconds < built.total_seconds);
        let gain = built.total_seconds - fast.total_seconds;
        let loss = no_sync.total_seconds - built.total_seconds;
        assert!(
            loss > gain,
            "diminishing returns past the existing hardware"
        );
    }

    #[test]
    fn prefetch_unit_pays_for_itself() {
        let scenarios = run();
        let built = &scenarios[0];
        let no_pfu = &scenarios[3];
        assert!(
            no_pfu.total_seconds > built.total_seconds + 30.0,
            "losing the PFU must cost tens of seconds across the workload: {} vs {}",
            no_pfu.total_seconds,
            built.total_seconds
        );
        assert!(no_pfu.geomean_improvement < built.geomean_improvement);
    }
}
