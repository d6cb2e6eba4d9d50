//! End-to-end cluster tests against real re-exec'd worker processes.
//!
//! The worker binary is the crate's `cluster_node` harness; Cargo
//! hands its path to integration tests via `CARGO_BIN_EXE_*`. The
//! fleet runs real Cedar points — [`reference_sweep`]'s Table-2,
//! degraded-mode and hot-spot `JobSpec`s. These tests cover the full
//! acceptance story: a clean fleet matching the serial sweep
//! bit-for-bit, a chaos fleet (kills, a hang, a corrupt frame)
//! recovering to the same bytes with an exactly-once journal, typed
//! fleet loss and job failure, cache interop with the in-process
//! cached sweep and with a caching `cedar-serve` server, and
//! SIGKILL-mid-write atomicity of the cache itself.

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use cedar_cluster::{reference_sweep, run_cluster_sweep, ClusterConfig, ClusterError, METRICS};
use cedar_exec::run_sweep_on;
use cedar_faults::{RetryPolicy, WorkerFaultConfig, WorkerFaultKind, WorkerFaultPlan};
use cedar_obs::SharedObs;
use cedar_serve::job::{JobOutcome, JobSpec, CACHE_NAMESPACE, MAX_NET_CYCLES};
use cedar_serve::loadgen::BinClient;
use cedar_serve::proto::{Request, Response};
use cedar_serve::ServeConfig;
use cedar_snap::{CacheDir, Snapshot};

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_cluster_node");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cedar-cluster-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(workers: u32) -> ClusterConfig {
    let mut c = ClusterConfig::new(workers);
    c.worker_exe = Some(PathBuf::from(WORKER_BIN));
    c.tick = Duration::from_millis(10);
    c.heartbeat_every_ticks = 5;
    c.watchdog_budget_ticks = 50;
    c.job_deadline_ticks = 500;
    c.restart = RetryPolicy {
        base_delay_cycles: 5,
        max_retries: 3,
        max_delay_cycles: 200,
    };
    c.max_ticks = 3_000; // 30 s hard wall for any single test
    c
}

/// The serial golden: every spec executed in-process, in order, as
/// sealed outcome bytes so comparisons are bit for bit.
fn serial(specs: &[JobSpec]) -> Vec<Vec<u8>> {
    run_sweep_on(1, specs.to_vec(), |s| s.execute(MAX_NET_CYCLES))
        .into_iter()
        .map(|o| o.expect("reference specs execute").to_snapshot_bytes())
        .collect()
}

fn sealed(outcomes: &[JobOutcome]) -> Vec<Vec<u8>> {
    outcomes.iter().map(Snapshot::to_snapshot_bytes).collect()
}

#[test]
fn clean_fleet_matches_serial_sweep() {
    let specs = reference_sweep(24);
    let report = run_cluster_sweep(&config(3), &specs, None).unwrap();
    assert_eq!(
        sealed(&report.results),
        serial(&specs),
        "cluster must equal serial, bit for bit"
    );
    assert_eq!(report.stats.jobs, 24);
    assert_eq!(
        report.stats.worker_exits, 0,
        "no worker may die in a clean run"
    );
    assert_eq!(report.stats.restarts, 0);
    assert!(report.stats.journal.iter().all(|r| r.commits == 1));
}

#[test]
fn chaos_fleet_recovers_bit_identical_with_exactly_once_journal() {
    // The acceptance scenario: 4 workers, 2 killed mid-sweep, 1
    // stalled (reaped only by the heartbeat watchdog), 1 writing a
    // garbage frame — all from one seeded plan.
    let plan = WorkerFaultPlan::generate(&WorkerFaultConfig {
        seed: 0xC1A05,
        workers: 4,
        kills: 2,
        stalls: 1,
        corrupts: 1,
        max_after_jobs: 2,
    })
    .unwrap();
    assert_eq!(
        plan.faults()
            .iter()
            .filter(|f| f.kind == WorkerFaultKind::Kill)
            .count(),
        2
    );

    let dir = scratch("chaos");
    let cache = CacheDir::new(&dir).unwrap();
    let mut c = config(4);
    c.chaos = Some(plan);
    c.cache = Some(cache.clone());
    let obs = SharedObs::new(&METRICS);

    let specs = reference_sweep(24);
    let serial = serial(&specs);
    let report = run_cluster_sweep(&c, &specs, Some(&obs)).unwrap();

    // Bit-identical to the serial sweep.
    assert_eq!(sealed(&report.results), serial);

    // The failure modes all actually happened...
    let stats = &report.stats;
    assert!(stats.worker_exits >= 2, "two seeded kills: {stats:?}");
    assert!(
        stats.hangs_reaped >= 1,
        "the stall must be reaped: {stats:?}"
    );
    assert!(
        stats.garbage_frames >= 1,
        "the corrupt frame must be caught: {stats:?}"
    );
    assert!(
        stats.restarts >= 3,
        "dead workers must come back: {stats:?}"
    );
    assert!(stats.reissues >= 2, "killed workers held jobs: {stats:?}");

    // ...and none of it broke exactly-once: every point committed
    // exactly once, no more, no less.
    assert_eq!(stats.journal.len(), 24);
    for (i, r) in stats.journal.iter().enumerate() {
        assert_eq!(r.commits, 1, "job {i} must commit exactly once: {r:?}");
        assert!(r.issues >= 1, "job {i} must have been issued: {r:?}");
    }

    // Zero corrupt cache entries left behind, and every point's entry
    // holds the serial outcome's bytes.
    assert!(cache.corrupt_entries().unwrap().is_empty());
    for (i, spec) in specs.iter().enumerate() {
        assert_eq!(
            cache.load_bytes(&spec.key()).as_ref(),
            Some(&serial[i]),
            "cache entry for {} must hold the serial result",
            spec.describe()
        );
    }

    // The supervision story is visible through obs.
    assert!(obs.counter_value("cluster.worker.exits") >= 2);
    assert!(obs.counter_value("cluster.worker.hangs_reaped") >= 1);
    assert!(obs.counter_value("cluster.worker.restarts") >= 3);
    let prom = obs.prometheus();
    assert!(prom.contains("cluster_worker_0_incarnation"), "{prom}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn losing_every_worker_is_a_typed_error_not_a_hang() {
    // Both workers are seeded to die on their first job and get no
    // restart budget: the coordinator must report fleet loss quickly
    // instead of spinning to the tick wall.
    let plan = WorkerFaultPlan::generate(&WorkerFaultConfig {
        seed: 7,
        workers: 2,
        kills: 2,
        stalls: 0,
        corrupts: 0,
        max_after_jobs: 1,
    })
    .unwrap();
    let mut c = config(2);
    c.chaos = Some(plan);
    c.restart = RetryPolicy {
        base_delay_cycles: 1,
        max_retries: 0,
        max_delay_cycles: 10,
    };
    match run_cluster_sweep(&c, &reference_sweep(8), None) {
        Err(ClusterError::FleetLost { pending }) => {
            assert!(pending > 0, "jobs must still be pending at fleet loss")
        }
        other => panic!("expected FleetLost, got {other:?}"),
    }
}

#[test]
fn cluster_and_cached_sweep_share_the_same_cache_entries() {
    let dir = scratch("interop");
    let cache = CacheDir::new(&dir).unwrap();
    let specs = reference_sweep(20);

    // Cold cluster run computes and stores every point.
    let mut c = config(2);
    c.cache = Some(cache.clone());
    let report = run_cluster_sweep(&c, &specs, None).unwrap();
    assert_eq!(report.stats.cache_hits, 0);

    // The in-process cached sweep hits every entry the fleet wrote —
    // the closure proves it by refusing to compute anything.
    let warm = cedar_exec::run_sweep_cached_on(
        cedar_exec::threads(),
        Some(&cache),
        CACHE_NAMESPACE,
        specs.clone(),
        |_| -> JobOutcome { panic!("every point must be served from the cluster's cache") },
    );
    assert_eq!(sealed(&warm), sealed(&report.results));

    // And a warm cluster run commits everything from cache without
    // dispatching a single job.
    let rerun = run_cluster_sweep(&c, &specs, None).unwrap();
    assert_eq!(sealed(&rerun.results), sealed(&report.results));
    assert_eq!(rerun.stats.cache_hits, specs.len());
    assert_eq!(rerun.stats.dispatched, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_results_are_cache_hits_for_a_caching_server() {
    let dir = scratch("serve");
    let specs = reference_sweep(12);
    let serial = serial(&specs);

    let mut c = config(2);
    c.cache = Some(CacheDir::new(&dir).unwrap());
    let report = run_cluster_sweep(&c, &specs, None).unwrap();
    assert_eq!(report.stats.committed, specs.len() as u64);

    // A server started on the fleet's cache directory answers every
    // spec from disk: nothing executes, and each reply envelope is the
    // serial outcome's bytes verbatim.
    let server = cedar_serve::start(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let mut client = BinClient::connect(&server.addr().to_string()).unwrap();
    for (i, spec) in specs.iter().enumerate() {
        let reply = client
            .request(&Request::Run {
                corr: i as u64,
                priority: 0,
                deadline_ms: None,
                spec: spec.clone(),
            })
            .unwrap();
        match reply {
            Response::Outcome { envelope, .. } => {
                assert_eq!(envelope, serial[i], "{}", spec.describe());
            }
            other => panic!("{}: expected Outcome, got {other:?}", spec.describe()),
        }
    }
    let obs = server.obs();
    assert_eq!(obs.counter_value("serve.jobs.executed"), 0);
    assert_eq!(
        obs.counter_value("serve.cache.disk_reads"),
        specs.len() as u64
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_mid_write_never_exposes_a_partial_entry() {
    // A writer process stores the same entry in a tight loop; we
    // SIGKILL it at varying points while reading concurrently. Every
    // read must see either a clean miss or the complete value — and a
    // torn write must never surface as a corrupt (quarantined) entry.
    let dir = scratch("sigkill");
    let key = "deadbeefcafe0123";
    let expected: Vec<u64> = (0..8192).map(|i: u64| i.wrapping_mul(0xCEDA)).collect();
    let cache = CacheDir::new(&dir).unwrap();

    for round in 0..10u64 {
        let mut child = Command::new(WORKER_BIN)
            .args(["writer", dir.to_str().unwrap(), key])
            .spawn()
            .expect("spawn writer");
        // Read while the writer is live...
        let deadline = std::time::Instant::now() + Duration::from_millis(5 + round * 3);
        while std::time::Instant::now() < deadline {
            if let Some(v) = cache.load::<Vec<u64>>(key) {
                assert_eq!(v, expected, "round {round}: torn entry observed live");
            }
        }
        // ...then SIGKILL it mid-write and read again.
        child.kill().expect("kill writer");
        child.wait().expect("reap writer");
        if let Some(v) = cache.load::<Vec<u64>>(key) {
            assert_eq!(v, expected, "round {round}: torn entry observed after kill");
        }
        assert!(
            cache.corrupt_entries().unwrap().is_empty(),
            "round {round}: a torn write surfaced as corruption"
        );
    }
    // After the first completed store the entry exists forever; ten
    // rounds guarantee at least one completed.
    assert_eq!(cache.load::<Vec<u64>>(key), Some(expected));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deterministic_job_failure_is_fatal_and_typed() {
    // A spec past its bounds is a deterministic failure: re-running
    // it elsewhere cannot help, so the coordinator must fail fast. The
    // worker checks bounds before executing, so the bad kernel index
    // is a typed failure rather than a panic.
    let mut specs = reference_sweep(3);
    specs.push(JobSpec::Table2 {
        kernel: 7,
        ces: 4,
        blocks: 2,
    });
    match run_cluster_sweep(&config(2), &specs, None) {
        Err(ClusterError::JobFailed { job, reason }) => {
            assert_eq!(job, 3);
            assert!(reason.contains("job.kernel must be in 0..=3"), "{reason}");
        }
        other => panic!("expected JobFailed, got {other:?}"),
    }
}
