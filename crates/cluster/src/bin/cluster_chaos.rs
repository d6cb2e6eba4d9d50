//! End-to-end chaos driver for the supervised cluster — the CI
//! `cluster-chaos` job's entry point.
//!
//! ```text
//! cluster_chaos [--workers N] [--points N] [--seed N]
//!               [--kills N] [--stalls N] [--corrupts N]
//!               [--cache DIR] [--expect-warm]
//!               [--report PATH] [--metrics-addr ADDR]
//! ```
//!
//! Runs [`cedar_cluster::reference_sweep`] — `--points` Table-2
//! cells, degraded-mode points and hot-spot fractions — twice, in one
//! process tree: serially in-process for the golden result, then
//! across a supervised fleet of re-exec'd workers under a seeded fault
//! plan. Exits non-zero unless the merged cluster sweep is
//! bit-identical to the serial golden, the journal shows exactly one
//! commit per point, and (with `--cache`) no corrupt entry was left
//! behind. `--expect-warm` additionally demands
//! the run was served entirely from a pre-warmed cache with zero
//! dispatches — the second CI invocation.
//!
//! The binary is its own worker: the coordinator re-execs it with
//! `CEDAR_CLUSTER_WORKER` set, and [`cedar_cluster::maybe_worker`]
//! diverts those copies before argument parsing.
//!
//! `--report PATH` writes the chaos run's timings, supervision counters
//! and `failures` count (broken invariants) as a
//! `cedar-bench-cluster/1` JSON report; `track append --cluster PATH`
//! adds it to the benchmark history, and refuses a report whose
//! `failures` count is nonzero. `--metrics-addr ADDR` (e.g. `127.0.0.1:0`) serves the
//! coordinator's metrics as a Prometheus `/metrics` endpoint for the
//! duration of the run, with the same HTTP reply as the serving tier.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cedar_cluster::{reference_sweep, run_cluster_sweep, ClusterConfig, MetricsServer, METRICS};
use cedar_exec::run_sweep_on;
use cedar_faults::{RetryPolicy, WorkerFaultConfig, WorkerFaultPlan};
use cedar_obs::SharedObs;
use cedar_serve::job::MAX_NET_CYCLES;
use cedar_snap::{CacheDir, Snapshot};

fn usage() -> ! {
    eprintln!(
        "usage: cluster_chaos [--workers N] [--points N] [--seed N] [--kills N] \
         [--stalls N] [--corrupts N] [--cache DIR] [--expect-warm] \
         [--report PATH] [--metrics-addr ADDR]"
    );
    std::process::exit(2)
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    cedar_cluster::maybe_worker();

    let (mut workers, mut points, mut seed) = (4u32, 32usize, 0xC1A05u64);
    let (mut kills, mut stalls, mut corrupts) = (2u32, 1u32, 1u32);
    let mut cache_dir: Option<String> = None;
    let mut expect_warm = false;
    let mut report_path: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workers" => workers = value().parse().unwrap_or_else(|_| usage()),
            "--points" => points = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--kills" => kills = value().parse().unwrap_or_else(|_| usage()),
            "--stalls" => stalls = value().parse().unwrap_or_else(|_| usage()),
            "--corrupts" => corrupts = value().parse().unwrap_or_else(|_| usage()),
            "--cache" => cache_dir = Some(value()),
            "--expect-warm" => expect_warm = true,
            "--report" => report_path = Some(value()),
            "--metrics-addr" => metrics_addr = Some(value()),
            _ => usage(),
        }
    }

    let specs = reference_sweep(points);
    let golden: Vec<Vec<u8>> = match run_sweep_on(1, specs.clone(), |s| s.execute(MAX_NET_CYCLES))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(outcomes) => outcomes.iter().map(Snapshot::to_snapshot_bytes).collect(),
        Err(e) => {
            eprintln!("cluster_chaos: serial golden failed: {}", e.reason());
            return ExitCode::FAILURE;
        }
    };

    let plan = match WorkerFaultPlan::generate(&WorkerFaultConfig {
        seed,
        workers,
        kills,
        stalls,
        corrupts,
        max_after_jobs: 2,
    }) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cluster_chaos: bad fault plan: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = ClusterConfig::new(workers);
    cfg.tick = Duration::from_millis(10);
    cfg.watchdog_budget_ticks = 50;
    cfg.restart = RetryPolicy {
        base_delay_cycles: 5,
        max_retries: 3,
        max_delay_cycles: 200,
    };
    cfg.seed = seed;
    cfg.chaos = Some(plan);
    let cache = match &cache_dir {
        Some(dir) => match CacheDir::new(dir.clone()) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("cluster_chaos: cannot open cache {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    cfg.cache = cache.clone();

    let obs = Arc::new(SharedObs::new(&METRICS));
    let metrics_server = match &metrics_addr {
        Some(addr) => match MetricsServer::start(addr, Arc::clone(&obs)) {
            Ok(s) => {
                eprintln!("cluster_chaos: metrics at http://{}/metrics", s.addr());
                Some(s)
            }
            Err(e) => {
                eprintln!("cluster_chaos: cannot serve metrics: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let sweep_started = Instant::now();
    let report = match run_cluster_sweep(&cfg, &specs, Some(&*obs)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cluster_chaos: sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall_ms = sweep_started.elapsed().as_secs_f64() * 1000.0;
    let stats = &report.stats;
    eprintln!(
        "cluster_chaos: {} points on {} workers — exits {}, hangs reaped {}, \
         garbage {}, restarts {}, reissues {}, stale {}, cache hits {}",
        stats.jobs,
        stats.workers,
        stats.worker_exits,
        stats.hangs_reaped,
        stats.garbage_frames,
        stats.restarts,
        stats.reissues,
        stats.stale_results,
        stats.cache_hits,
    );

    let mut failures = Vec::new();
    let results: Vec<Vec<u8>> = report
        .results
        .iter()
        .map(Snapshot::to_snapshot_bytes)
        .collect();
    if results != golden {
        failures.push("merged sweep is NOT bit-identical to the serial golden".to_owned());
    }
    for (i, r) in stats.journal.iter().enumerate() {
        if r.commits != 1 {
            failures.push(format!(
                "job {i} committed {} times (want exactly 1)",
                r.commits
            ));
        }
    }
    if let Some(cache) = &cache {
        match cache.corrupt_entries() {
            Ok(list) if list.is_empty() => {}
            Ok(list) => failures.push(format!("{} corrupt cache entries left behind", list.len())),
            Err(e) => failures.push(format!("cannot list corrupt entries: {e}")),
        }
        for (i, spec) in specs.iter().enumerate() {
            if cache.load_bytes(&spec.key()).as_ref() != Some(&golden[i]) {
                failures.push(format!("cache entry for point {i} missing or wrong"));
                break;
            }
        }
    }
    if expect_warm {
        if stats.cache_hits != specs.len() {
            failures.push(format!(
                "expected a fully warm run, got {}/{} cache hits",
                stats.cache_hits,
                specs.len()
            ));
        }
        if stats.dispatched != 0 {
            failures.push(format!(
                "warm run dispatched {} jobs (want 0)",
                stats.dispatched
            ));
        }
    } else {
        // The cold chaos run must actually have exercised the failure
        // modes it was seeded with.
        if kills > 0 && stats.worker_exits < kills {
            failures.push(format!(
                "only {} worker exits for {} seeded kills",
                stats.worker_exits, kills
            ));
        }
        if stalls > 0 && stats.hangs_reaped < stalls {
            failures.push(format!(
                "only {} hangs reaped for {} seeded stalls",
                stats.hangs_reaped, stalls
            ));
        }
        if corrupts > 0 && stats.garbage_frames < corrupts {
            failures.push(format!(
                "only {} garbage frames for {} seeded corrupts",
                stats.garbage_frames, corrupts
            ));
        }
    }

    // Timing/supervision report: written win or lose (a failing run's
    // numbers are exactly what a postmortem wants); its `failures`
    // count keeps a failing run out of the benchmark history.
    let bench_json = render_bench_json(stats, wall_ms, failures.len(), &obs);
    if let Some(path) = &report_path {
        if let Err(e) = std::fs::write(path, &bench_json) {
            eprintln!("cluster_chaos: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("cluster_chaos: wrote report to {path}");
    }
    drop(metrics_server);

    if failures.is_empty() {
        eprintln!("cluster_chaos: OK — merged sweep equals serial golden, exactly-once held");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("cluster_chaos: FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}

/// Renders the `cedar-bench-cluster/1` timing report: the chaos run's
/// broken-invariant count, wall clock, throughput, supervision stats
/// and the coordinator's observability counters.
fn render_bench_json(
    stats: &cedar_cluster::ClusterStats,
    wall_ms: f64,
    failures: usize,
    obs: &SharedObs,
) -> String {
    use std::fmt::Write as _;
    let points_per_sec = if wall_ms > 0.0 {
        stats.jobs as f64 / (wall_ms / 1000.0)
    } else {
        0.0
    };
    let mut out = String::from("{\n  \"schema\": \"cedar-bench-cluster/1\",\n");
    let _ = writeln!(
        out,
        "  \"commit\": \"{}\",",
        cedar_obs::export::escape_json(&cedar_track::meta::commit_id())
    );
    let _ = writeln!(
        out,
        "  \"timestamp\": \"{}\",",
        cedar_track::meta::timestamp()
    );
    out.push_str("  \"mode\": \"chaos\",\n");
    let _ = writeln!(out, "  \"failures\": {failures},");
    let _ = writeln!(out, "  \"workers\": {},", stats.workers);
    let _ = writeln!(out, "  \"points\": {},", stats.jobs);
    let _ = writeln!(out, "  \"wall_ms\": {wall_ms:.3},");
    let _ = writeln!(out, "  \"points_per_sec\": {points_per_sec:.3},");
    let _ = writeln!(out, "  \"dispatched\": {},", stats.dispatched);
    let _ = writeln!(out, "  \"worker_exits\": {},", stats.worker_exits);
    let _ = writeln!(out, "  \"hangs_reaped\": {},", stats.hangs_reaped);
    let _ = writeln!(out, "  \"garbage_frames\": {},", stats.garbage_frames);
    let _ = writeln!(out, "  \"restarts\": {},", stats.restarts);
    let _ = writeln!(out, "  \"reissues\": {},", stats.reissues);
    let _ = writeln!(out, "  \"stale_results\": {},", stats.stale_results);
    let _ = writeln!(out, "  \"cache_hits\": {},", stats.cache_hits);
    let _ = writeln!(out, "  \"workers_lost\": {},", stats.workers_lost);
    out.push_str("  \"obs\": {");
    for (i, name) in [
        "cluster.jobs.dispatched",
        "cluster.jobs.committed",
        "cluster.jobs.cache_hits",
        "cluster.jobs.reissued",
        "cluster.results.stale",
        "cluster.worker.exits",
        "cluster.worker.hangs_reaped",
        "cluster.worker.garbage_frames",
        "cluster.worker.restarts",
        "cluster.worker.lost",
    ]
    .iter()
    .enumerate()
    {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {}", obs.counter_value(name));
    }
    out.push_str("}\n}\n");
    debug_assert!(
        cedar_obs::export::validate_json(&out).is_ok(),
        "cluster report must be valid JSON"
    );
    out
}
