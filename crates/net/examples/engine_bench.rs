//! Engine measurements on the repository benchmark's suites: by
//! default the Table-2 suite, the 24 healthy cells (TM/CG/VF/RK ×
//! 8/16/32 CEs × 1/2 blocks) that the `table2` workload runs; with
//! `--faulted`, the 16 points the `degraded` workload runs (RK, 1 block,
//! 8/16 CEs × 2,000/5,000 ppm faults × 4 fault seeds).
//!
//! ```text
//! cargo run --release -p cedar-net --example engine_bench            # full report
//! cargo run --release -p cedar-net --example engine_bench -- --smoke # CI check
//! cargo run --release -p cedar-net --example engine_bench -- --floor # A/B probe
//! cargo run --release -p cedar-net --example engine_bench -- --faulted [--smoke|--floor]
//! ```
//!
//! The full report prints, in order (the generic-vs-specialized ratio
//! on the RK 32-CE × 16-block reference is `perf`'s `engine_speedup`):
//! - the suite's production-loop time, best of 40 runs per cell, summed;
//! - a specialized drive in 1-cycle chunks, which re-imports the lanes
//!   every cycle;
//! - the phase ledger over the suite, repeated, each share as median
//!   and min–max over the repeats, and each phase's host time per
//!   useful move.
//!
//! `--smoke` runs the ledger twice and exits nonzero if the two
//! censuses differ, if the census's live cycles or per-phase useful
//! totals differ from the suite's pinned ones (a host-side change may
//! cut attempts, never the simulated work), if the sampled phase times
//! do not add up to the sampled cycles' total (timed apart), if the
//! phase shares do not add up to the live loop, or if a ledger-on run
//! reports differently from a ledger-off run.
//!
//! `--floor` prints one line: the suite's production-loop floor (best
//! of 40 runs per cell, summed) and an FNV-1a digest of the reports'
//! snapshot bytes. Two builds compare fairly when their runs alternate
//! on one core, e.g. for builds `a` and `b`:
//!
//! ```text
//! for i in $(seq 30); do for b in a b; do
//!   echo "$b $(taskset -c 1 $b/engine_bench --floor)"; done; done
//! ```

use cedar_faults::{FaultConfig, FaultPlan, MachineShape, RetryPolicy};
use cedar_net::fabric::{FabricConfig, FabricReport, RoundTripFabric};
use cedar_net::{Phase, PhaseLedger, PrefetchTraffic};
use cedar_snap::Snapshot;
use std::time::Instant;

const MAX_NET_CYCLES: u64 = 64_000_000;

/// A suite of cells and the simulated work one ledger pass over it
/// does: the net cycles it steps one by one, and the useful moves per
/// phase in [`Phase::ALL`] order (words moved forward and back, words
/// injected, module visits that changed state, requests completed,
/// packets issued).
struct Suite {
    cells: Vec<Cell>,
    live_cycles: u64,
    useful: [u64; 6],
}

/// One benchmark point: CEs, traffic and the fault plan, if any.
struct Cell {
    name: String,
    ces: usize,
    traffic: PrefetchTraffic,
    faults: Option<FaultPlan>,
}

impl Cell {
    /// A default-engine Cedar fabric with this cell's fault plan.
    fn fabric(&self) -> RoundTripFabric {
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        if let Some(plan) = &self.faults {
            fabric.attach_faults(plan.clone(), RetryPolicy::fabric());
        }
        fabric
    }
}

/// The 24 Table-2 cells.
fn table2() -> Suite {
    type Kernel = fn(u32) -> PrefetchTraffic;
    let kernels: [(&str, Kernel); 4] = [
        ("TM", PrefetchTraffic::tridiagonal_matvec),
        ("CG", PrefetchTraffic::conjugate_gradient),
        ("VF", PrefetchTraffic::vector_load),
        ("RK", PrefetchTraffic::rk_aggressive),
    ];
    let mut cells = Vec::new();
    for (name, traffic) in kernels {
        for ces in [8, 16, 32] {
            for blocks in [1, 2] {
                cells.push(Cell {
                    name: format!("{name} {ces}x{blocks}"),
                    ces,
                    traffic: traffic(blocks),
                    faults: None,
                });
            }
        }
    }
    Suite {
        cells,
        live_cycles: 9_643,
        useful: [239_432, 236_544, 118_994, 125_763, 59_136, 59_497],
    }
}

/// The 16 degraded points, with the fault plans the benchmark's
/// `degraded` jobs attach.
fn degraded() -> Suite {
    let mut cells = Vec::new();
    for rate_ppm in [2_000u32, 5_000] {
        for ces in [8, 16] {
            for seed in 0xCEDA..0xCEDA + 4 {
                let cfg = FaultConfig::degraded(seed, f64::from(rate_ppm) / 1e6);
                let plan = FaultPlan::generate(&cfg, &MachineShape::cedar()).expect("valid preset");
                cells.push(Cell {
                    name: format!("RK {ces}x1 {rate_ppm}ppm seed {seed:#x}"),
                    ces,
                    traffic: PrefetchTraffic::rk_aggressive(1),
                    faults: Some(plan),
                });
            }
        }
    }
    Suite {
        cells,
        live_cycles: 18_079,
        useful: [198_772, 197_534, 99_242, 106_482, 49_152, 49_152],
    }
}

/// One suite pass with the ledger on; also returns the reports.
fn ledger_pass(suite: &Suite) -> (PhaseLedger, Vec<FabricReport>) {
    let mut ledger = PhaseLedger::default();
    let mut reports = Vec::new();
    for cell in &suite.cells {
        let mut fabric = cell.fabric();
        let mut exp = fabric.begin_experiment(cell.ces, cell.traffic, MAX_NET_CYCLES);
        fabric
            .drive_with_ledger(&mut exp, None, &mut ledger)
            .expect("no watchdog attached");
        assert_eq!(
            fabric.last_run_engine(),
            Some("specialized"),
            "{}",
            cell.name
        );
        reports.push(fabric.finish_experiment(exp));
    }
    (ledger, reports)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn spread(v: &[f64]) -> String {
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "{:5.1}% [{:.1}–{:.1}]",
        100.0 * median(v.to_vec()),
        100.0 * lo,
        100.0 * hi
    )
}

fn print_ledger(passes: &[PhaseLedger]) {
    let first = &passes[0];
    let cycles = first.live_cycles as f64;
    println!(
        "phase ledger: {} drives, {} live + {} skipped net cycles per pass, {} passes, 1 cycle in 31 timed",
        first.drives,
        first.live_cycles,
        first.skipped_cycles,
        passes.len()
    );
    println!(
        "  phase      attempts/cycle  useful/cycle  ns/useful  share of live-loop time: median [min–max]"
    );
    for phase in Phase::ALL {
        let p = phase as usize;
        let shares: Vec<f64> = passes.iter().map(|l| l.phase_shares()[p]).collect();
        // The phase's share of the live loop's wall time, over its
        // useful moves; the median over the passes.
        let per_move: Vec<f64> = passes
            .iter()
            .map(|l| {
                let live = l.drive_ns.saturating_sub(l.import_ns) as f64;
                l.phase_shares()[p] * live / l.useful[p].max(1) as f64
            })
            .collect();
        println!(
            "  {:9} {:15.2} {:13.2} {:10.1}  {}",
            phase.name(),
            first.attempts[p] as f64 / cycles,
            first.useful[p] as f64 / cycles,
            median(per_move),
            spread(&shares)
        );
    }
    let import: Vec<f64> = passes.iter().map(PhaseLedger::import_share).collect();
    let probe: Vec<f64> = passes.iter().map(PhaseLedger::probe_excess).collect();
    println!(
        "  import and export, share of drive time: {}",
        spread(&import)
    );
    println!(
        "  probe effect, sampled over mean live cycle: +{}",
        spread(&probe)
    );
    let ns: Vec<f64> = passes
        .iter()
        .map(|l| l.drive_ns as f64 / l.live_cycles as f64)
        .collect();
    let lo = ns.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = ns.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "  drive time per live cycle: {:.0} ns [{lo:.0}–{hi:.0}]",
        median(ns.clone())
    );
}

/// Exits nonzero unless the ledger's books balance.
fn check_books(ledger: &PhaseLedger) {
    let phases: u64 = ledger.sampled_ns.iter().sum();
    if phases != ledger.sampled_total_ns {
        eprintln!(
            "engine_bench: sampled phase times add to {phases} ns, the sampled cycles took {} ns",
            ledger.sampled_total_ns
        );
        std::process::exit(1);
    }
    let shares = ledger.phase_shares().iter().sum::<f64>();
    if (shares - 1.0).abs() > 1e-9 || !(0.0..1.0).contains(&ledger.import_share()) {
        eprintln!(
            "engine_bench: phase shares add to {shares}, import share {}",
            ledger.import_share()
        );
        std::process::exit(1);
    }
}

fn smoke(suite: &Suite) {
    let (a, reports) = ledger_pass(suite);
    let (b, _) = ledger_pass(suite);
    print_ledger(&[a.clone(), b.clone()]);
    if a.census() != b.census() {
        eprintln!(
            "engine_bench: the census differs between two runs of the same work:\n{:?}\n{:?}",
            a.census(),
            b.census()
        );
        std::process::exit(1);
    }
    if a.live_cycles != suite.live_cycles || a.useful != suite.useful {
        eprintln!(
            "engine_bench: the suite's simulated work moved: {} live cycles and useful {:?}, \
             pinned {} and {:?}",
            a.live_cycles, a.useful, suite.live_cycles, suite.useful
        );
        std::process::exit(1);
    }
    check_books(&a);
    check_books(&b);
    for (cell, ledgered) in suite.cells.iter().zip(&reports) {
        let plain = cell
            .fabric()
            .run_prefetch_experiment(cell.ces, cell.traffic, MAX_NET_CYCLES);
        if &plain != ledgered {
            eprintln!(
                "engine_bench: {}: the ledger changed the simulation",
                cell.name
            );
            std::process::exit(1);
        }
    }
    println!("engine_bench smoke: census reproducible, books balance, ledger is a pure overlay");
}

/// The production loop's floor over the suite: each cell's best of
/// `runs`, summed, in seconds. Also returns the last run's reports.
fn suite_floor(suite: &Suite, runs: usize) -> (f64, Vec<FabricReport>) {
    let mut best_sum = 0.0;
    let mut reports = Vec::new();
    for cell in &suite.cells {
        let mut best = f64::INFINITY;
        let mut report = None;
        for _ in 0..runs {
            let mut fabric = cell.fabric();
            let start = Instant::now();
            report = Some(std::hint::black_box(fabric.run_prefetch_experiment(
                cell.ces,
                cell.traffic,
                MAX_NET_CYCLES,
            )));
            best = best.min(start.elapsed().as_secs_f64());
            assert_eq!(
                fabric.last_run_engine(),
                Some("specialized"),
                "{}",
                cell.name
            );
        }
        best_sum += best;
        reports.extend(report);
    }
    (best_sum, reports)
}

/// FNV-1a over the reports' snapshot bytes.
fn digest(reports: &[FabricReport]) -> u64 {
    let mut w = cedar_snap::SnapWriter::new();
    for report in reports {
        report.snap(&mut w);
    }
    w.into_bytes().iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let suite = if args.iter().any(|a| a == "--faulted") {
        degraded()
    } else {
        table2()
    };
    if args.iter().any(|a| a == "--smoke") {
        smoke(&suite);
        return;
    }
    if args.iter().any(|a| a == "--floor") {
        let (floor, reports) = suite_floor(&suite, 40);
        println!(
            "floor {:.3} ms digest {:016x}",
            floor * 1e3,
            digest(&reports)
        );
        return;
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!("nproc {nproc}");

    // Production loop, ledger off: best of 40 per cell, summed.
    let (floor, _) = suite_floor(&suite, 40);
    println!("suite, best of 40 per cell, summed: {:.2} ms", floor * 1e3);

    // Chunked drive: every call re-imports and re-exports the lanes.
    let small = PrefetchTraffic::rk_aggressive(1);
    let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
    let mut exp = fabric.begin_experiment(32, small, MAX_NET_CYCLES);
    let start = Instant::now();
    let mut chunks = 0u64;
    while fabric.experiment_running(&exp) {
        let next = fabric.now() + 1;
        fabric
            .drive_experiment(&mut exp, None, Some(next))
            .expect("no watchdog attached");
        chunks += 1;
    }
    assert_eq!(fabric.last_run_engine(), Some("specialized"));
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "RK 32x1 in 1-cycle chunks: {chunks} drives, {:.2} us per drive",
        elapsed * 1e6 / chunks as f64
    );

    let repeats = 5;
    let passes: Vec<PhaseLedger> = (0..repeats).map(|_| ledger_pass(&suite).0).collect();
    print_ledger(&passes);
    for pass in &passes {
        check_books(pass);
    }
}
