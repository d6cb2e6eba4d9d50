//! Differential tests between the generic and specialized execution
//! engines: across fixed reference shapes and randomized
//! topology/traffic/fault cases, both engines must produce bit-identical
//! reports, bit-identical mid-run checkpoints (mid-recovery too, under
//! every fault class), and (for ineligible configurations) an
//! explicit, obs-visible fallback. Randomness comes
//! from the simulator's deterministic SplitMix64, so every failure
//! reproduces from the seed.

use cedar_faults::{FaultConfig, FaultPlan, MachineShape, NetDirection, RetryPolicy};
use cedar_net::fabric::{FabricConfig, FabricReport, PrefetchTraffic, RoundTripFabric};
use cedar_net::{AddressPattern, EngineKind};
use cedar_obs::{Obs, ObsConfig};
use cedar_sim::rng::SplitMix64;
use cedar_sim::watchdog::Watchdog;

const MAX_NET_CYCLES: u64 = 4_000_000;

/// A random specialization-eligible fabric: power-of-two omega
/// topologies from a single 2×2 switch to 64-port crossbars, with
/// randomized clock ratios, queue depths, module counts (powers of two
/// or not) and module timing, all within the specialized engine's
/// dimension bounds.
fn random_config(rng: &mut SplitMix64) -> FabricConfig {
    let mut cfg = FabricConfig::cedar();
    let topologies = [
        (8, 2),
        (4, 2),
        (4, 3),
        (2, 4),
        (16, 2),
        (32, 2),
        (64, 1),
        (2, 1),
    ];
    let (radix, stages) = topologies[rng.next_below(topologies.len() as u64) as usize];
    cfg.net.radix = radix;
    cfg.net.stages = stages;
    cfg.net.net_cycles_per_ce_cycle = 1 + rng.next_below(3);
    cfg.net.queue_words = 2 + rng.next_below(3) as usize;
    cfg.net.exit_fifo_words = 2 + rng.next_below(3) as usize;
    cfg.mem_modules = 1 + rng.next_below(cfg.net.ports() as u64) as usize;
    cfg.mem_service_net_cycles = 1 + rng.next_below(3);
    cfg.module_buffer_requests = 1 + rng.next_below(3) as usize;
    cfg
}

/// A random CE count for `cfg`: at most half its ports, and at most
/// `cap` so the generic oracle stays quick in debug builds.
fn random_ces(rng: &mut SplitMix64, cfg: &FabricConfig, cap: usize) -> usize {
    1 + rng.next_below((cfg.net.ports() / 2).clamp(1, cap) as u64) as usize
}

/// A random prefetch traffic shape, including hot-spot patterns (which
/// exercise the per-issue RNG draw both engines must replay in the
/// same order).
fn random_traffic(rng: &mut SplitMix64) -> PrefetchTraffic {
    let mut t = PrefetchTraffic::rk_aggressive(1 + rng.next_below(3) as u32);
    t.block_len = 5 + rng.next_below(28) as u32;
    t.window = 2 + rng.next_below(31) as u32;
    t.gap_ce_cycles = rng.next_below(5);
    t.streams = 1 + rng.next_below(6) as u32;
    t.writes_per_read = [0.0, 0.5, 1.0][rng.next_below(3) as usize];
    if rng.next_below(3) == 0 {
        t.pattern = AddressPattern::HotSpot {
            module: rng.next_below(4) as usize,
            fraction: 0.25,
        };
    }
    t
}

/// Runs the full experiment on the requested engine, checkpointing at
/// `cut` driven net cycles. Returns the mid-run checkpoint bytes, the
/// final report, and which engine actually drove the run.
fn run_with_engine(
    cfg: FabricConfig,
    engine: EngineKind,
    n_ces: usize,
    traffic: PrefetchTraffic,
    cut: u64,
) -> (Vec<u8>, FabricReport, Option<&'static str>) {
    let mut fabric = RoundTripFabric::new(cfg);
    fabric.set_engine(engine);
    let mut exp = fabric.begin_experiment(n_ces, traffic, MAX_NET_CYCLES);
    fabric
        .drive_experiment(&mut exp, None, Some(cut))
        .expect("no watchdog attached");
    let bytes = fabric.checkpoint_experiment(&exp);
    fabric
        .drive_experiment(&mut exp, None, None)
        .expect("no watchdog attached");
    let engine_ran = fabric.last_run_engine();
    (bytes, fabric.finish_experiment(exp), engine_ran)
}

#[test]
fn reference_shapes_match_across_engines() {
    // The paper's reference shape plus traffic variants: the configs
    // the perf suite actually measures must agree engine-to-engine,
    // including the checkpoint taken mid-flight.
    let mut aggressive = PrefetchTraffic::rk_aggressive(2);
    aggressive.block_len = 64;
    let mut hot = PrefetchTraffic::rk_aggressive(1);
    hot.block_len = 32;
    hot.pattern = AddressPattern::HotSpot {
        module: 3,
        fraction: 0.3,
    };
    let mut gappy = PrefetchTraffic::rk_aggressive(2);
    gappy.block_len = 16;
    gappy.gap_ce_cycles = 40;
    for (case, traffic) in [aggressive, hot, gappy].into_iter().enumerate() {
        let cfg = FabricConfig::cedar();
        let (gen_bytes, gen_report, gen_engine) =
            run_with_engine(cfg.clone(), EngineKind::Generic, 32, traffic, 5_000);
        let (spec_bytes, spec_report, spec_engine) =
            run_with_engine(cfg, EngineKind::Auto, 32, traffic, 5_000);
        assert_eq!(gen_engine, Some("generic"), "case {case}");
        assert_eq!(spec_engine, Some("specialized"), "case {case}");
        assert!(gen_report.completed(), "case {case} must drain");
        assert_eq!(
            gen_bytes, spec_bytes,
            "case {case}: mid-run checkpoints diverged"
        );
        assert_eq!(gen_report, spec_report, "case {case}: reports diverged");
    }
}

#[test]
fn random_machines_match_across_engines() {
    let mut rng = SplitMix64::new(0xD1FF_CEDA);
    for case in 0..24 {
        let cfg = random_config(&mut rng);
        let traffic = random_traffic(&mut rng);
        let n_ces = random_ces(&mut rng, &cfg, 64);
        let cut = rng.next_below(50_000);
        let (gen_bytes, gen_report, _) =
            run_with_engine(cfg.clone(), EngineKind::Generic, n_ces, traffic, cut);
        let (spec_bytes, spec_report, spec_engine) =
            run_with_engine(cfg, EngineKind::Auto, n_ces, traffic, cut);
        assert_eq!(
            spec_engine,
            Some("specialized"),
            "case {case}: eligible config must not fall back"
        );
        assert!(gen_report.completed(), "case {case} must drain");
        assert_eq!(
            gen_bytes, spec_bytes,
            "case {case}: mid-run checkpoints diverged (cut {cut}, {n_ces} CEs)"
        );
        assert_eq!(
            gen_report, spec_report,
            "case {case}: reports diverged ({n_ces} CEs)"
        );
    }
}

/// The fault plan of a random machine: its geometry, so every faulted
/// output and module exists in the fabric.
fn shape_of(cfg: &FabricConfig) -> MachineShape {
    MachineShape {
        radix: cfg.net.radix,
        stages: cfg.net.stages,
        ports: cfg.net.ports(),
        modules: cfg.mem_modules,
    }
}

/// The fault classes the specialized engine must replay, by name.
const FAULT_CLASSES: [&str; 6] = [
    "stuck outputs",
    "slow outputs",
    "link drops",
    "total link loss",
    "module stalls",
    "fail-stop",
];

/// A plan of fault class `class` for `shape`. Stuck and stall windows
/// land anywhere in a 65536-cycle horizon, so those classes draw seeds
/// until a window covers cycle 200, early in the run. Counts scale
/// down to small machines: a single 2×2 switch has only 4 outputs
/// across both networks.
fn class_plan(class: usize, shape: &MachineShape, rng: &mut SplitMix64) -> FaultPlan {
    let outputs = (2 * shape.stages * shape.ports) as u32;
    loop {
        let seed = rng.next_u64();
        let none = FaultConfig::none(seed);
        let cfg = match class {
            0 => FaultConfig {
                stuck_outputs: outputs.min(6),
                stuck_window_cycles: 3_000,
                ..none
            },
            1 => FaultConfig {
                slow_outputs: outputs.min(6),
                slow_period: 3,
                ..none
            },
            2 => FaultConfig::link_noise(seed, 0.03),
            3 => FaultConfig::link_noise(seed, 1.0),
            4 => FaultConfig {
                module_stalls: 4,
                stall_window_cycles: 3_000,
                ..none
            },
            _ => FaultConfig {
                failed_modules: (shape.modules / 2) as u32,
                fail_by_cycle: 300,
                ..none
            },
        };
        let plan = FaultPlan::generate(&cfg, shape).expect("class configs are valid");
        let engaged = match class {
            0 => [NetDirection::Forward, NetDirection::Reverse]
                .into_iter()
                .any(|dir| {
                    plan.faulted_outputs(dir)
                        .any(|(st, sw, port)| plan.output_blocked(dir, st, sw, port, 200))
                }),
            4 => plan.faulted_modules().any(|m| plan.module_stalled(m, 200)),
            _ => true,
        };
        if engaged {
            return plan;
        }
    }
}

/// A retry schedule short enough that every class retries, some
/// requests several times, and total loss abandons each read within
/// 1792 cycles of its issue.
const RETRY: RetryPolicy = RetryPolicy {
    base_delay_cycles: 256,
    max_retries: 3,
    max_delay_cycles: 1_024,
};

#[test]
fn faulted_runs_specialize_and_match() {
    // Every fault class on seeded random machines: the specialized
    // engine must take the run (no fallback), produce the generic
    // report exactly, write byte-identical checkpoints mid-recovery,
    // and resume the other engine's checkpoint in both directions.
    let mut rng = SplitMix64::new(0xFA11_CEDA);
    let mut fired = [false; FAULT_CLASSES.len()];
    for case in 0..2 * FAULT_CLASSES.len() {
        let class = case % FAULT_CLASSES.len();
        let name = FAULT_CLASSES[class];
        let cfg = random_config(&mut rng);
        let traffic = random_traffic(&mut rng);
        let n_ces = random_ces(&mut rng, &cfg, 16);
        let plan = class_plan(class, &shape_of(&cfg), &mut rng);
        let build = |engine: EngineKind| {
            let mut fabric = RoundTripFabric::new(cfg.clone());
            fabric.attach_faults(plan.clone(), RETRY);
            fabric.set_engine(engine);
            fabric
        };

        // The generic run checkpoints at its first step with a request
        // awaiting recovery at or after cycle `aim` (or, in a run too
        // short for that, at its first such step at all).
        let aim = rng.next_below(1_024);
        let mut generic = build(EngineKind::Generic);
        let mut exp = generic.begin_experiment(n_ces, traffic, MAX_NET_CYCLES);
        let mut cut: Option<(u64, Vec<u8>)> = None;
        while generic.experiment_running(&exp) {
            generic.step_experiment(&mut exp, None).unwrap();
            let now = generic.now();
            let take = cut.as_ref().is_none_or(|(at, _)| *at < aim && now >= aim);
            if take && exp.retry_in_flight() {
                cut = Some((now, generic.checkpoint_experiment(&exp)));
            }
        }
        let expected = generic.finish_experiment(exp);
        let (cut, gen_bytes) =
            cut.unwrap_or_else(|| panic!("case {case} ({name}): nothing in flight"));

        let mut fabric = build(EngineKind::Auto);
        let mut exp = fabric.begin_experiment(n_ces, traffic, MAX_NET_CYCLES);
        fabric.drive_experiment(&mut exp, None, Some(cut)).unwrap();
        assert!(exp.retry_in_flight(), "case {case} ({name}): cut {cut}");
        let spec_bytes = fabric.checkpoint_experiment(&exp);
        fabric.drive_experiment(&mut exp, None, None).unwrap();
        assert_eq!(
            fabric.last_run_engine(),
            Some("specialized"),
            "case {case} ({name}): faulted run fell back"
        );
        assert!(expected.resolved(), "case {case} ({name}) must resolve");
        assert!(
            gen_bytes == spec_bytes,
            "case {case} ({name}): mid-recovery checkpoints diverged (cut {cut})"
        );
        assert_eq!(
            fabric.finish_experiment(exp),
            expected,
            "case {case} ({name}): reports diverged"
        );

        for (first, second) in [
            (&gen_bytes, EngineKind::Auto),
            (&spec_bytes, EngineKind::Generic),
        ] {
            let (mut resumed, mut exp) =
                RoundTripFabric::restore_experiment(first).expect("checkpoint decodes");
            resumed.set_engine(second);
            resumed.drive_experiment(&mut exp, None, None).unwrap();
            if second == EngineKind::Auto {
                assert_eq!(resumed.last_run_engine(), Some("specialized"));
            }
            assert_eq!(
                resumed.finish_experiment(exp),
                expected,
                "case {case} ({name}): resume on {second:?} diverged (cut {cut})"
            );
        }

        // The class's own observable: what the fault did to the run.
        let mut healthy = RoundTripFabric::new(cfg.clone());
        let clean = healthy.run_prefetch_experiment(n_ces, traffic, MAX_NET_CYCLES);
        fired[class] |= match class {
            2 => expected.words_dropped() > 0 && expected.retries() > 0,
            3 => expected.request_count() == 0 && expected.failed_requests() > 0,
            5 => expected.module_discards() > 0 || expected.retries() > 0,
            _ => expected != clean,
        };
        if class == 3 {
            assert_eq!(
                expected.failed_requests(),
                clean.request_count(),
                "case {case}: total loss abandons every read"
            );
        }
    }
    for (class, name) in FAULT_CLASSES.iter().enumerate() {
        assert!(fired[class], "no {name} case changed its run: vacuous");
    }
}

#[test]
fn fallback_is_obs_visible() {
    // Telemetry itself blocks specialization (the hooks are compiled
    // out of the fast path), so an obs-attached fabric on the default
    // engine falls back — and says so on the `engine.fallback` counter.
    let obs = Obs::new(ObsConfig::metrics_only());
    let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
    fabric.set_obs(&obs);
    let mut traffic = PrefetchTraffic::rk_aggressive(1);
    traffic.block_len = 16;
    let with_obs = fabric.run_prefetch_experiment(8, traffic, MAX_NET_CYCLES);
    assert_eq!(fabric.last_run_engine(), Some("generic"));
    assert_eq!(fabric.last_fallback(), Some("telemetry attached"));
    assert_eq!(
        obs.counter_value("engine.fallback"),
        1,
        "one drive, one fallback tick"
    );
    // Attaching telemetry must not change the simulation itself, and
    // the bare fabric runs specialized.
    let mut bare = RoundTripFabric::new(FabricConfig::cedar());
    let without_obs = bare.run_prefetch_experiment(8, traffic, MAX_NET_CYCLES);
    assert_eq!(bare.last_run_engine(), Some("specialized"));
    assert_eq!(with_obs, without_obs, "telemetry perturbed the simulation");
}

#[test]
fn structural_fallback_names_the_blocker() {
    let mut cfg = FabricConfig::cedar();
    cfg.module_buffer_requests = 65; // past the specialized bound
    let mut fabric = RoundTripFabric::new(cfg);
    let mut traffic = PrefetchTraffic::rk_aggressive(1);
    traffic.block_len = 16;
    fabric.run_prefetch_experiment(8, traffic, MAX_NET_CYCLES);
    assert_eq!(fabric.last_run_engine(), Some("generic"));
    assert_eq!(
        fabric.last_fallback(),
        Some("module buffers deeper than 64 requests")
    );
}

#[test]
fn watchdog_stalls_identically_across_engines() {
    // A gap so long the watchdog's budget expires between blocks: both
    // engines must trip at the same simulated cycle with the same
    // diagnostic (the specialized fast-forward honors the same
    // watchdog horizon as the generic one).
    let mut traffic = PrefetchTraffic::rk_aggressive(2);
    traffic.block_len = 16;
    traffic.gap_ce_cycles = 50_000;
    let stall = |engine: EngineKind| {
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        fabric.set_engine(engine);
        let mut dog = Watchdog::new(2_000, "engine differential");
        let err = fabric
            .run_watched_experiment(8, traffic, MAX_NET_CYCLES, &mut dog)
            .expect_err("the gap must out-wait the watchdog");
        format!("{err:?}")
    };
    assert_eq!(stall(EngineKind::Generic), stall(EngineKind::Auto));
}

#[test]
fn checkpoints_resume_across_engines() {
    // A checkpoint written by one engine must be resumable by the
    // other with a bit-identical final report — in both directions.
    let mut rng = SplitMix64::new(0xC055_CEDA);
    for case in 0..6 {
        let cfg = random_config(&mut rng);
        let traffic = random_traffic(&mut rng);
        let n_ces = random_ces(&mut rng, &cfg, 64);
        let cut = rng.next_below(30_000);
        let mut reference = RoundTripFabric::new(cfg.clone());
        reference.set_engine(EngineKind::Generic);
        let expected = reference.run_prefetch_experiment(n_ces, traffic, MAX_NET_CYCLES);
        for (first, second) in [
            (EngineKind::Generic, EngineKind::Auto),
            (EngineKind::Auto, EngineKind::Generic),
        ] {
            let mut fabric = RoundTripFabric::new(cfg.clone());
            fabric.set_engine(first);
            let mut exp = fabric.begin_experiment(n_ces, traffic, MAX_NET_CYCLES);
            fabric
                .drive_experiment(&mut exp, None, Some(cut))
                .expect("no watchdog attached");
            assert_eq!(fabric.last_run_engine(), Some(engine_name(first)));
            let bytes = fabric.checkpoint_experiment(&exp);
            let (mut resumed, mut exp2) =
                RoundTripFabric::restore_experiment(&bytes).expect("checkpoint decodes");
            resumed.set_engine(second);
            resumed
                .drive_experiment(&mut exp2, None, None)
                .expect("no watchdog attached");
            assert_eq!(resumed.last_run_engine(), Some(engine_name(second)));
            let report = resumed.finish_experiment(exp2);
            assert_eq!(
                expected, report,
                "case {case}: {first:?}→{second:?} resume diverged (cut {cut}, {n_ces} CEs)"
            );
        }
    }
}

/// Runs one experiment on both engines and holds them to each other:
/// byte-equal checkpoints at every cut (`cuts` ascending), equal final
/// reports, and a resume from each engine's checkpoint at every cut on
/// the other engine, reaching the same report.
fn assert_engines_agree(
    case: &str,
    build: impl Fn(EngineKind) -> RoundTripFabric,
    n_ces: usize,
    traffic: PrefetchTraffic,
    cuts: &[u64],
) -> FabricReport {
    let run = |engine: EngineKind| {
        let mut fabric = build(engine);
        let mut exp = fabric.begin_experiment(n_ces, traffic, MAX_NET_CYCLES);
        let mut bytes = Vec::new();
        for &cut in cuts {
            fabric.drive_experiment(&mut exp, None, Some(cut)).unwrap();
            bytes.push(fabric.checkpoint_experiment(&exp));
        }
        fabric.drive_experiment(&mut exp, None, None).unwrap();
        assert_eq!(
            fabric.last_run_engine(),
            Some(engine_name(engine)),
            "{case}"
        );
        (bytes, fabric.finish_experiment(exp))
    };
    let (gen_bytes, expected) = run(EngineKind::Generic);
    let (spec_bytes, report) = run(EngineKind::Auto);
    assert!(expected.resolved(), "{case} must resolve");
    for (i, cut) in cuts.iter().enumerate() {
        assert!(
            gen_bytes[i] == spec_bytes[i],
            "{case}: checkpoints diverged at cut {cut}"
        );
    }
    assert_eq!(report, expected, "{case}: reports diverged");
    for (i, cut) in cuts.iter().enumerate() {
        for (bytes, second) in [
            (&gen_bytes[i], EngineKind::Auto),
            (&spec_bytes[i], EngineKind::Generic),
        ] {
            let (mut resumed, mut exp) =
                RoundTripFabric::restore_experiment(bytes).expect("checkpoint decodes");
            resumed.set_engine(second);
            resumed.drive_experiment(&mut exp, None, None).unwrap();
            assert_eq!(
                resumed.finish_experiment(exp),
                expected,
                "{case}: resume on {second:?} from cut {cut} diverged"
            );
        }
    }
    expected
}

fn engine_name(engine: EngineKind) -> &'static str {
    match engine {
        EngineKind::Generic => "generic",
        EngineKind::Auto => "specialized",
    }
}

/// `n` ascending random cuts below `limit`.
fn random_cuts(rng: &mut SplitMix64, n: usize, limit: u64) -> Vec<u64> {
    let mut cuts: Vec<u64> = (0..n).map(|_| 1 + rng.next_below(limit)).collect();
    cuts.sort_unstable();
    cuts
}

/// A Cedar fabric with slowed memory modules, so 32 CEs keep every
/// injection FIFO full: the issue loop parks sources whose packet does
/// not fit, and modules fill their pending buffers.
fn saturated_cedar(service: u64) -> FabricConfig {
    let mut cfg = FabricConfig::cedar();
    cfg.mem_service_net_cycles = service;
    cfg
}

#[test]
fn saturated_sources_park_and_match() {
    // Saturated RK at 32 CEs: injection FIFOs are full mid-block (the
    // source parks until its FIFO pops) and at block starts, where each
    // attempt draws fresh stream bases and must repeat every boundary.
    let mut rng = SplitMix64::new(0x5A7_CEDA);
    for service in [4, 9] {
        let cfg = saturated_cedar(service);
        let cuts = random_cuts(&mut rng, 3, 6_000);
        let build = |engine: EngineKind| {
            let mut fabric = RoundTripFabric::new(cfg.clone());
            fabric.set_engine(engine);
            fabric
        };
        let mut traffic = PrefetchTraffic::rk_aggressive(2);
        traffic.block_len = 64;
        assert_engines_agree(&format!("RK service {service}"), build, 32, traffic, &cuts);
    }
}

#[test]
fn hot_spot_draws_are_never_parked() {
    // Every hot-spot read attempt draws its coin, failed or not, so a
    // source with a full FIFO must keep attempting.
    let mut rng = SplitMix64::new(0x407_CEDA);
    for fraction in [0.3, 0.9] {
        let cfg = saturated_cedar(6);
        let cuts = random_cuts(&mut rng, 3, 4_000);
        let build = |engine: EngineKind| {
            let mut fabric = RoundTripFabric::new(cfg.clone());
            fabric.set_engine(engine);
            fabric
        };
        let mut traffic = PrefetchTraffic::sync_hotspot(2, fraction);
        traffic.window = 64;
        assert_engines_agree(&format!("hot spot {fraction}"), build, 32, traffic, &cuts);
    }
}

#[test]
fn write_debt_into_full_fifos_matches() {
    // One write owed per read: at each closed block window the source
    // pays its debt with 2-word writes, which bounce off FIFOs that
    // have no room for both words and park the source until a pop.
    let mut rng = SplitMix64::new(0x3817_CEDA);
    let cfg = saturated_cedar(6);
    let cuts = random_cuts(&mut rng, 3, 5_000);
    let build = |engine: EngineKind| {
        let mut fabric = RoundTripFabric::new(cfg.clone());
        fabric.set_engine(engine);
        fabric
    };
    let mut traffic = PrefetchTraffic::tridiagonal_matvec(3);
    traffic.writes_per_read = 1.0;
    traffic.gap_ce_cycles = 0;
    assert_engines_agree("write debt", build, 32, traffic, &cuts);
}

#[test]
fn fail_stop_on_full_module_matches() {
    // Modules that take one request at a time fill their pending
    // buffers under 32 CEs; half of them fail-stop early, most while
    // full, and discard their queue.
    let mut rng = SplitMix64::new(0xF5_CEDA);
    let mut cfg = saturated_cedar(5);
    cfg.module_buffer_requests = 1;
    for case in 0..3 {
        let fault_cfg = FaultConfig {
            failed_modules: 16,
            fail_by_cycle: 2_000,
            ..FaultConfig::none(rng.next_u64())
        };
        let plan = FaultPlan::generate(&fault_cfg, &shape_of(&cfg)).expect("valid plan");
        let cuts = random_cuts(&mut rng, 3, 4_000);
        let build = |engine: EngineKind| {
            let mut fabric = RoundTripFabric::new(cfg.clone());
            fabric.attach_faults(plan.clone(), RETRY);
            fabric.set_engine(engine);
            fabric
        };
        let mut traffic = PrefetchTraffic::rk_aggressive(1);
        traffic.block_len = 128;
        let report = assert_engines_agree(&format!("fail-stop {case}"), build, 32, traffic, &cuts);
        assert!(
            report.module_discards() > 0,
            "case {case}: no fail-stop discarded work"
        );
    }
}
