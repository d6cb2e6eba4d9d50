//! The specialized engine builds its lanes once per thread and resets
//! them for each fresh fabric. One thread runs a seeded shuffle of
//! Table-2 cells, degraded points and hot-spot points of mixed CE and
//! block counts, with a watchdog trip, a point that panics mid-run
//! inside `job::caught`, a telemetry-attached (generic) run and a
//! checkpoint/restore among them. Every outcome must be, byte for byte,
//! what the same case gives on a fresh thread, whose lanes are new.

use cedar_net::fabric::RoundTripFabric;
use cedar_obs::{Obs, ObsConfig};
use cedar_serve::job::{caught, JobError, JobOutcome, JobSpec, DEFAULT_SEED, MAX_NET_CYCLES};
use cedar_sim::rng::SplitMix64;
use cedar_sim::watchdog::Watchdog;
use cedar_snap::{SnapWriter, Snapshot};

/// How a case drives its spec.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// `JobSpec::execute`.
    Execute,
    /// The recipe under a watchdog far shorter than a retry timeout.
    Trip,
    /// Part of the run, then a panic, inside `job::caught`.
    Panic,
    /// The recipe with telemetry attached, which runs generic.
    Traced,
    /// A checkpoint part-way, restored into a new fabric and finished.
    Resumed,
}

#[derive(Debug, Clone)]
struct Case {
    spec: JobSpec,
    drive: Drive,
}

/// The net cycle the partial drives stop at, mid-run for every case.
const PART_WAY: u64 = 300;

impl Case {
    /// The case's outcome as the cache stores it (its snapshot bytes),
    /// or its error. A resumed case appends both checkpoints, the one
    /// part-way and one of the finished run, which hold every counter
    /// and queue of the fabric.
    fn run(&self) -> Result<Vec<u8>, JobError> {
        let recipe = || self.spec.recipe();
        let outcome = match self.drive {
            Drive::Execute => caught(|| self.spec.execute(MAX_NET_CYCLES)),
            Drive::Trip => {
                let mut recipe = recipe()?;
                recipe.watchdog = Some(Watchdog::new(200, "lane reuse"));
                let report = recipe.run(MAX_NET_CYCLES)?;
                Ok(JobOutcome::from_report(&report))
            }
            Drive::Panic => caught(|| {
                let mut recipe = recipe()?;
                let fabric = &mut recipe.fabric;
                let mut exp = fabric.begin_experiment(recipe.ces, recipe.traffic, MAX_NET_CYCLES);
                fabric
                    .drive_experiment(&mut exp, None, Some(PART_WAY))
                    .expect("no watchdog");
                assert!(fabric.experiment_running(&exp), "the run ended early");
                panic!("point abandoned at cycle {}", fabric.now());
            }),
            Drive::Traced => {
                let mut recipe = recipe()?;
                recipe.fabric.set_obs(&Obs::new(ObsConfig::enabled()));
                let report = recipe.run(MAX_NET_CYCLES)?;
                assert_eq!(recipe.fabric.last_run_engine(), Some("generic"));
                Ok(JobOutcome::from_report(&report))
            }
            Drive::Resumed => {
                let part_way = {
                    let mut recipe = recipe()?;
                    let fabric = &mut recipe.fabric;
                    let mut exp =
                        fabric.begin_experiment(recipe.ces, recipe.traffic, MAX_NET_CYCLES);
                    fabric
                        .drive_experiment(&mut exp, None, Some(PART_WAY))
                        .expect("no watchdog");
                    fabric.checkpoint_experiment(&exp)
                };
                // The dropped fabric's mid-run lanes are the thread's
                // spare now: the restored run resets them and imports.
                let (mut fabric, mut exp) =
                    RoundTripFabric::restore_experiment(&part_way).expect("its own checkpoint");
                fabric
                    .drive_experiment(&mut exp, None, None)
                    .expect("no watchdog");
                assert_eq!(fabric.last_run_engine(), Some("specialized"));
                let finished = fabric.checkpoint_experiment(&exp);
                let outcome = JobOutcome::from_report(&fabric.finish_experiment(exp));
                return Ok([snap(&outcome), part_way, finished].concat());
            }
        };
        outcome.map(|outcome| snap(&outcome))
    }
}

fn snap(outcome: &JobOutcome) -> Vec<u8> {
    let mut w = SnapWriter::new();
    outcome.snap(&mut w);
    w.into_bytes()
}

fn cases() -> Vec<Case> {
    let execute = |spec| Case {
        spec,
        drive: Drive::Execute,
    };
    let mut cases = Vec::new();
    for kernel in 0..4 {
        for ces in [4, 16, 32] {
            for blocks in [1, 2] {
                cases.push(execute(JobSpec::Table2 {
                    kernel,
                    ces,
                    blocks,
                }));
            }
        }
    }
    for (i, rate_ppm) in [0, 20_000, 50_000].into_iter().enumerate() {
        for ces in [8, 32] {
            for blocks in [1, 2] {
                cases.push(execute(JobSpec::Degraded {
                    rate_ppm,
                    ces,
                    blocks,
                    seed: DEFAULT_SEED + i as u64,
                }));
            }
        }
    }
    for hot_ppm in [0, 100_000, 250_000] {
        for (ces, blocks) in [(8, 4), (32, 1)] {
            cases.push(execute(JobSpec::Hotspot {
                hot_ppm,
                ces,
                blocks,
            }));
        }
    }
    let degraded = |rate_ppm, ces, blocks| JobSpec::Degraded {
        rate_ppm,
        ces,
        blocks,
        seed: DEFAULT_SEED,
    };
    cases.extend([
        Case {
            spec: degraded(50_000, 8, 1),
            drive: Drive::Trip,
        },
        Case {
            spec: JobSpec::Table2 {
                kernel: 3,
                ces: 32,
                blocks: 2,
            },
            drive: Drive::Panic,
        },
        Case {
            spec: JobSpec::Hotspot {
                hot_ppm: 50_000,
                ces: 8,
                blocks: 1,
            },
            drive: Drive::Traced,
        },
        Case {
            spec: degraded(20_000, 16, 2),
            drive: Drive::Resumed,
        },
        Case {
            spec: JobSpec::Table2 {
                kernel: 0,
                ces: 32,
                blocks: 1,
            },
            drive: Drive::Resumed,
        },
        Case {
            spec: JobSpec::Hotspot {
                hot_ppm: 100_000,
                ces: 16,
                blocks: 2,
            },
            drive: Drive::Resumed,
        },
    ]);
    cases
}

#[test]
fn reused_lanes_reproduce_fresh_threads() {
    let mut cases = cases();
    let mut rng = SplitMix64::new(0x1a5e);
    for i in (1..cases.len()).rev() {
        cases.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let outcomes: Vec<_> = cases.iter().map(Case::run).collect();
    for (case, outcome) in cases.iter().zip(outcomes) {
        let fresh = std::thread::spawn({
            let case = case.clone();
            move || case.run()
        })
        .join()
        .expect("the case's own panics are caught");
        let fails = matches!(case.drive, Drive::Trip | Drive::Panic);
        assert_eq!(outcome.is_err(), fails, "{case:?}: {outcome:?}");
        assert_eq!(outcome, fresh, "{case:?}");
    }
}
