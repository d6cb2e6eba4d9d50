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
//! `degraded.snap`, and every hot-spot study point, on both engines,
//! each on a fabric built by its point's `JobSpec::recipe`: the default
//! run must specialize, must reproduce the harness's own numbers, and
//! must equal the generic engine's report.

use std::fs;
use std::path::PathBuf;

use cedar::core::costmodel::{AccessMode, CostModel, CE_SIDE_PATH_CYCLES};
use cedar::core::CedarParams;
use cedar::exec::{run_sweep_on, threads};
use cedar::net::fabric::{AddressPattern, FabricReport, PrefetchTraffic};
use cedar::net::EngineKind;
use cedar::serve::job::{JobOutcome, JobSpec, Recipe, MAX_NET_CYCLES};
use cedar_bench::{degraded, hotspot, table2};

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

/// Runs `run` on `spec`'s recipe, whose fabric must take the
/// specialized engine, then on a fresh recipe forced onto the generic
/// engine; the two reports must be equal. Returns the report.
fn on_both_engines(spec: &JobSpec, run: impl Fn(&mut Recipe) -> FabricReport) -> FabricReport {
    let case = spec.describe();
    let mut recipe = spec.recipe().expect("study specs have a recipe");
    let report = run(&mut recipe);
    assert_eq!(
        recipe.fabric.last_run_engine(),
        Some("specialized"),
        "{case}: the default engine fell back ({:?})",
        recipe.fabric.last_fallback()
    );
    let mut generic = spec.recipe().expect("study specs have a recipe");
    generic.fabric.set_engine(EngineKind::Generic);
    assert_eq!(run(&mut generic), report, "{case}: engines disagree");
    report
}

fn run_recipe(recipe: &mut Recipe) -> FabricReport {
    recipe
        .run(MAX_NET_CYCLES)
        .expect("study points make progress")
}

/// Every fabric run behind `table2.snap`: in each kernel × CE cell the
/// `table2` job's prefetch run (8 blocks per CE), and per CE count the
/// window-2 run behind `AccessMode::GlobalNoPrefetch`, which is the
/// same run in every kernel's cell, made on that CE count's fabric.
#[test]
fn table2_runs_agree_across_engines() {
    let rows = table2::run();
    let cell = |kernel: usize, ces: usize| JobSpec::Table2 {
        kernel: kernel as u8,
        ces: ces as u32,
        blocks: 8,
    };
    for (k, row) in rows.iter().enumerate() {
        for (i, &ces) in table2::CES.iter().enumerate() {
            let spec = cell(k, ces);
            let report = on_both_engines(&spec, run_recipe);
            assert_eq!(
                (
                    report.mean_first_word_latency_ce(),
                    report.mean_interarrival_ce()
                ),
                (row.latency[i], row.interarrival[i]),
                "{}: the recipe left table2's",
                spec.describe()
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
    let mut model = CostModel::new(CedarParams::paper().fabric);
    for ces in table2::CES {
        let report = on_both_engines(&cell(0, ces), |r| {
            r.fabric
                .run_prefetch_experiment(r.ces, window2, MAX_NET_CYCLES)
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
    let points = run_sweep_on(threads(), degraded::specs(), |spec| {
        JobOutcome::from_report(&on_both_engines(&spec, run_recipe))
    });
    assert_eq!(points, degraded::run(), "the recipe left degraded's");
}

/// Every hot-spot study point on both engines: the job family the
/// `serve` workload's execute phase runs.
#[test]
fn hotspot_runs_agree_across_engines() {
    let points = run_sweep_on(threads(), hotspot::specs(), |spec| {
        JobOutcome::from_report(&on_both_engines(&spec, run_recipe))
    });
    assert_eq!(points, hotspot::run(), "the recipe left hotspot's");
}
