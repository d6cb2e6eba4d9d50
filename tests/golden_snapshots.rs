//! Golden-snapshot regression layer: the deterministic experiment
//! reports are compared byte-for-byte against committed snapshots in
//! `tests/golden/`. Any change to simulator behaviour — intentional or
//! not — shows up as a readable text diff instead of a silently
//! shifted number.
//!
//! When a change is intentional, regenerate the snapshots with
//!
//! ```text
//! CEDAR_BLESS=1 cargo test --release --test golden_snapshots
//! ```
//!
//! and commit the updated `.snap` files. On mismatch the actual output
//! is written next to the golden file as `<name>.rej` so CI can upload
//! it as a diff artifact.
//!
//! The goldens run on the default engine. The `*_agree_across_engines`
//! tests re-run every fabric experiment behind `table2.snap` and
//! `degraded.snap` on both engines: the default run must specialize,
//! must reproduce the harness's own numbers, and must equal the
//! generic engine's report.

use std::fs;
use std::path::PathBuf;

use cedar::core::costmodel::{AccessMode, CostModel, CE_SIDE_PATH_CYCLES};
use cedar::core::CedarParams;
use cedar::exec::run_sweep;
use cedar::faults::{FaultPlan, MachineShape, RetryPolicy};
use cedar::net::fabric::{AddressPattern, FabricReport, PrefetchTraffic, RoundTripFabric};
use cedar::net::EngineKind;
use cedar::sim::watchdog::Watchdog;
use cedar_bench::{degraded, table2};

/// The cycle cap every harness run passes.
const MAX_NET_CYCLES: u64 = 64_000_000;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` to the committed golden snapshot `name`, or
/// rewrites the snapshot when `CEDAR_BLESS` is set.
fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("CEDAR_BLESS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        fs::write(&path, actual).expect("write blessed snapshot");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with CEDAR_BLESS=1",
            path.display()
        )
    });
    if expected != actual {
        let rej = path.with_extension("rej");
        fs::write(&rej, actual).expect("write rejected output");
        panic!(
            "golden mismatch for {name}: actual output written to {}.\n\
             Diff it against {} — if the behaviour change is intentional,\n\
             re-bless with CEDAR_BLESS=1 and commit the new snapshot.",
            rej.display(),
            path.display()
        );
    }
}

#[test]
fn table2_report_matches_golden() {
    check("table2.snap", &cedar_bench::table2::report());
}

#[test]
fn degraded_report_matches_golden() {
    check("degraded.snap", &cedar_bench::degraded::report());
}

#[test]
fn fig3_report_matches_golden() {
    check("fig3.snap", &cedar_bench::fig3::report());
}

/// Runs one experiment on a fresh default-engine fabric from `build`,
/// which must take the specialized engine, then on a fresh generic one;
/// the two reports must be equal. Returns the report.
fn on_both_engines(
    case: &str,
    build: impl Fn() -> RoundTripFabric,
    run: impl Fn(&mut RoundTripFabric) -> FabricReport,
) -> FabricReport {
    let mut fabric = build();
    let report = run(&mut fabric);
    assert_eq!(
        fabric.last_run_engine(),
        Some("specialized"),
        "{case}: the default engine fell back ({:?})",
        fabric.last_fallback()
    );
    let mut generic = build();
    generic.set_engine(EngineKind::Generic);
    assert_eq!(run(&mut generic), report, "{case}: engines disagree");
    report
}

/// Every fabric run behind `table2.snap`: in each kernel × CE cell the
/// prefetch run `CostModel::measure` makes (8 blocks per CE), and per
/// CE count the window-2 run behind `AccessMode::GlobalNoPrefetch`,
/// which is the same run in every kernel's cell.
#[test]
fn table2_runs_agree_across_engines() {
    let cfg = CedarParams::paper().fabric;
    let build = || RoundTripFabric::new(cfg.clone());
    let kernels = [
        ("TM", PrefetchTraffic::tridiagonal_matvec(8)),
        ("CG", PrefetchTraffic::conjugate_gradient(8)),
        ("VF", PrefetchTraffic::vector_load(8)),
        ("RK", PrefetchTraffic::rk_aggressive(4)),
    ];
    let rows = table2::run();
    assert_eq!(rows.len(), kernels.len());
    for (row, (kernel, traffic)) in rows.iter().zip(kernels) {
        assert_eq!(row.kernel, kernel);
        let prefetch = PrefetchTraffic {
            blocks: 8,
            ..traffic
        };
        for (i, &ces) in table2::CES.iter().enumerate() {
            let report = on_both_engines(&format!("{kernel} {ces} CEs"), build, |f| {
                f.run_prefetch_experiment(ces, prefetch, MAX_NET_CYCLES)
            });
            assert_eq!(
                (
                    report.mean_first_word_latency_ce(),
                    report.mean_interarrival_ce()
                ),
                (row.latency[i], row.interarrival[i]),
                "{kernel} {ces} CEs: the recipe left table2's"
            );
        }
    }

    let window2 = PrefetchTraffic {
        block_len: 32,
        blocks: 8,
        window: 2,
        gap_ce_cycles: 0,
        blocks_in_flight: 1,
        writes_per_read: 0.0,
        streams: 1,
        pattern: AddressPattern::Strided,
    };
    let mut model = CostModel::new(cfg.clone());
    for ces in table2::CES {
        let report = on_both_engines(&format!("window 2, {ces} CEs"), build, |f| {
            f.run_prefetch_experiment(ces, window2, MAX_NET_CYCLES)
        });
        assert_eq!(
            (report.mean_first_word_latency_ce() + CE_SIDE_PATH_CYCLES) / 2.0,
            model.cycles_per_word(AccessMode::GlobalNoPrefetch, ces),
            "{ces} CEs: the window-2 recipe left the cost model's"
        );
    }
}

/// Every fabric run behind `degraded.snap`: each rate × CE point under
/// the sweep seed's fault plan, fanned out like the sweep itself (the
/// generic runs dominate this file's time).
#[test]
fn degraded_runs_agree_across_engines() {
    let mut grid = Vec::new();
    for rate in degraded::RATES {
        for ces in degraded::CES {
            grid.push((rate, ces));
        }
    }
    let points = run_sweep(grid, |(rate, ces)| {
        let plan = FaultPlan::generate(&degraded::config_at(rate), &MachineShape::cedar())
            .expect("sweep configs are valid");
        let build = || {
            let mut fabric = RoundTripFabric::new(CedarParams::paper().fabric);
            fabric.attach_faults(plan.clone(), RetryPolicy::fabric());
            fabric
        };
        let report = on_both_engines(&format!("rate {rate} {ces} CEs"), build, |f| {
            let mut dog = Watchdog::new(degraded::WATCHDOG_BUDGET, "degraded engine check");
            f.run_watched_experiment(ces, degraded::traffic(), MAX_NET_CYCLES, &mut dog)
                .expect("degraded run made progress")
        });
        degraded::DegradedPoint {
            rate,
            ces,
            latency: report.mean_first_word_latency_ce(),
            interarrival: report.mean_interarrival_ce(),
            words_per_cycle: report.words_per_ce_cycle(),
            words_dropped: report.words_dropped(),
            retries: report.retries(),
            failed: report.failed_requests(),
        }
    });
    assert_eq!(points, degraded::run(), "the recipe left degraded's");
}
