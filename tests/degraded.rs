//! Cross-crate degraded-mode acceptance tests: deterministic fault
//! schedules, byte-identical degraded reports, and watchdog diagnosis
//! of an injected multicluster-barrier deadlock.

use cedar::core::{CedarParams, CedarSystem};
use cedar::faults::{CedarError, FaultConfig, FaultPlan, MachineShape, RetryPolicy};
use cedar::net::fabric::{FabricConfig, PrefetchTraffic, RoundTripFabric};
use cedar::runtime::sync::{run_multicluster_round, GlobalBarrier};
use cedar::serve::job::{JobOutcome, JobSpec, DEFAULT_SEED, MAX_NET_CYCLES};
use cedar::sim::watchdog::Watchdog;

/// Same fault seed, same machine: the degraded-run report is
/// byte-identical across builds of the whole stack.
#[test]
fn same_seed_gives_byte_identical_degraded_report() {
    let run = || {
        let plan = FaultPlan::generate(
            &FaultConfig::degraded(0xD15EA5E, 0.02),
            &MachineShape::cedar(),
        )
        .unwrap();
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        fabric.attach_faults(plan, RetryPolicy::fabric());
        let report =
            fabric.run_prefetch_experiment(8, PrefetchTraffic::rk_aggressive(4), 64_000_000);
        format!(
            "lat={:.9} inter={:.9} bw={:.9} drops={} retries={} failed={}",
            report.mean_first_word_latency_ce(),
            report.mean_interarrival_ce(),
            report.words_per_ce_cycle(),
            report.words_dropped(),
            report.retries(),
            report.failed_requests(),
        )
    };
    let a = run();
    assert_eq!(a, run(), "degraded runs must replay exactly");
    assert!(a.contains("drops="), "sanity: report rendered");
}

/// Distinct seeds genuinely reshuffle the fault schedule.
#[test]
fn different_seeds_differ() {
    let measure = |seed: u64| {
        let plan = FaultPlan::generate(&FaultConfig::degraded(seed, 0.05), &MachineShape::cedar())
            .unwrap();
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        fabric.attach_faults(plan, RetryPolicy::fabric());
        fabric
            .run_prefetch_experiment(8, PrefetchTraffic::rk_aggressive(4), 64_000_000)
            .words_dropped()
    };
    assert_ne!(measure(1), measure(2), "seeds must steer the schedule");
}

/// The degraded sweep's rate-0 column is the healthy machine: the
/// same recipe's traffic on a fabric with no plan attached.
#[test]
fn degraded_sweep_rate_zero_is_healthy() {
    let spec = &JobSpec::Degraded {
        rate_ppm: 0,
        ces: 8,
        blocks: 8,
        seed: DEFAULT_SEED,
    };
    assert!(cedar_bench::degraded::specs().contains(spec));
    let p = cedar_bench::study_point(spec);
    let recipe = spec.recipe().unwrap();
    let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
    let healthy = fabric.run_prefetch_experiment(recipe.ces, recipe.traffic, MAX_NET_CYCLES);
    assert_eq!(p, JobOutcome::from_report(&healthy));
}

/// A dead synchronization processor deadlocks the multicluster
/// barrier; the watchdog detects it within its budget and names the
/// stalled context in the diagnostic.
#[test]
fn watchdog_diagnoses_injected_barrier_deadlock() {
    let mut sys = CedarSystem::new(CedarParams::paper());
    let plan = FaultPlan::generate(
        &FaultConfig::dead_sync_processor(42, 3),
        &MachineShape::cedar(),
    )
    .unwrap();
    sys.attach_faults(&plan, RetryPolicy::sync());
    let barrier = GlobalBarrier::new(3, 32); // word 3 -> dead module 3
    let budget = 50_000;
    let mut dog = Watchdog::new(budget, "multicluster barrier");
    match run_multicluster_round(&mut sys, &barrier, &mut dog) {
        Err(CedarError::Stalled(report)) => {
            let text = report.to_string();
            assert!(text.contains("multicluster barrier"), "diagnostic: {text}");
            assert!(
                report.now - report.progress <= budget + 26,
                "detected within one spin past the budget"
            );
        }
        other => panic!("expected a stalled diagnosis, got {other:?}"),
    }
    // The same round on the healthy machine completes under the same
    // watchdog budget.
    let mut healthy = CedarSystem::new(CedarParams::paper());
    let mut dog = Watchdog::new(budget, "multicluster barrier");
    run_multicluster_round(&mut healthy, &barrier, &mut dog).unwrap();
}
