//! Tracked performance baseline.
//!
//! Times the reference runs the repository's wall-clock cost hangs on
//! — the healthy Table-2 fabric experiment, the 2%-faulted
//! telemetry-instrumented trace run, and the hot-spot sweep — plus the
//! sweep executor serial vs parallel, and writes the measurements to
//! `BENCH_perf.json` so perf regressions show up as a diff instead of
//! a feeling.
//!
//! ```text
//! perf [--smoke] [--out PATH] [--cache DIR] [--track HISTORY]
//! perf --compare COLD_JSON WARM_JSON [--compare-out PATH]
//! ```
//!
//! `--smoke` shrinks every workload to CI-checkable size (seconds, not
//! minutes); `--out` overrides the output path. All simulated results
//! are deterministic; only the timings vary run to run.
//!
//! `--cache DIR` keys every reference run's full configuration into a
//! content-addressed snapshot cache: a warm second invocation loads
//! the simulated results from disk instead of re-simulating, which is
//! what the CI cache job measures. Simulated fields (`sim_cycles`) are
//! byte-identical between cold and warm runs by construction.
//!
//! `--compare COLD WARM` reads two `BENCH_perf.json` files written by
//! this binary, asserts the warm run's reference wall-clock is at
//! least 5x faster than the cold run's, and asserts every simulated
//! result field is identical; exits nonzero with a diff on failure.
//! `--compare-out PATH` additionally writes the cold/warm timings as a
//! `cedar-bench-compare/1` report `track append --compare` can ingest.
//!
//! `--track HISTORY` appends the finished report to the cedar-track
//! benchmark history (one stamped JSONL line; see `crates/track`).
//! Every report is stamped with the git commit and an ISO-8601 UTC
//! timestamp, overridable via `CEDAR_TRACK_COMMIT` /
//! `CEDAR_TRACK_TIMESTAMP` for hermetic runs.

use std::fmt::Write as _;
use std::time::Instant;

use cedar_bench::{hotspot, trace};
use cedar_faults::{FaultConfig, FaultPlan, MachineShape, RetryPolicy};
use cedar_net::fabric::{FabricConfig, FabricReport, PrefetchTraffic, RoundTripFabric};
use cedar_net::EngineKind;
use cedar_obs::{Obs, ObsConfig};
use cedar_snap::{CacheDir, Snapshot};

/// Thread count of the baseline's pinned parallel sweep pass.
const PARALLEL_THREADS: usize = 4;

/// One timed reference run.
struct RefRun {
    name: &'static str,
    /// Which execution engine drove the run: `"specialized"`,
    /// `"generic"`, or `"n/a"` for suites without a single fabric.
    engine: &'static str,
    wall_ms: f64,
    /// Simulated network cycles, where the workload has a single
    /// fabric clock to report (the sweep does not).
    sim_cycles: Option<u64>,
}

impl RefRun {
    fn cycles_per_sec(&self) -> Option<f64> {
        self.sim_cycles.map(|c| c as f64 / (self.wall_ms / 1000.0))
    }
}

/// Loads a reference run's report from the cache, or measures it and
/// stores the result. Cache keys are content-addressed over the run's
/// complete configuration, so any config change is automatically a
/// miss.
fn run_or_load<K: Snapshot>(
    cache: Option<&CacheDir>,
    namespace: &str,
    config: &K,
    run: impl FnOnce() -> FabricReport,
) -> FabricReport {
    let key = config.snapshot_key(namespace);
    if let Some(cache) = cache {
        if let Some(hit) = cache.load::<FabricReport>(&key) {
            return hit;
        }
    }
    let report = run();
    if let Some(cache) = cache {
        let _ = cache.store(&key, &report);
    }
    report
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_perf.json");
    let mut cache_dir: Option<String> = None;
    let mut compare: Option<(String, String)> = None;
    let mut compare_out: Option<String> = None;
    let mut track: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out requires a path"),
            "--cache" => cache_dir = Some(args.next().expect("--cache requires a directory")),
            "--track" => track = Some(args.next().expect("--track requires a path")),
            "--compare" => {
                let cold = args.next().expect("--compare requires COLD and WARM paths");
                let warm = args.next().expect("--compare requires COLD and WARM paths");
                compare = Some((cold, warm));
            }
            "--compare-out" => {
                compare_out = Some(args.next().expect("--compare-out requires a path"));
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: perf [--smoke] [--out PATH] [--cache DIR] [--track HISTORY] | perf --compare COLD WARM [--compare-out PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    if let Some((cold, warm)) = compare {
        std::process::exit(compare_baselines(&cold, &warm, compare_out.as_deref()));
    }

    let cache = cache_dir.map(|dir| CacheDir::new(dir).expect("open cache dir"));
    let cache = cache.as_ref();
    let threads = cedar_exec::threads();
    let mut runs = Vec::new();

    // Healthy Table-2 reference: the RK prefetch stream, the heaviest
    // global-memory customer in the paper's Table 2. Measured on both
    // execution engines — the specialized row is the headline number,
    // and the paired generic row keeps the engine speedup visible in
    // every baseline.
    let (ces, blocks) = if smoke { (8u64, 4) } else { (32u64, 16) };
    let traffic = PrefetchTraffic::rk_aggressive(blocks);
    let cfg = FabricConfig::cedar();
    // Cold runs time each engine best-of-3: single-shot wall clocks on
    // a shared host swing ±30%, which is wider than the regression
    // band the engine-ratio assert guards. Warm (cached) runs time the
    // cache, not the engine — one rep is the honest measurement there.
    let reps = if cache.is_none() { 3 } else { 1 };
    let time_engine = |engine: EngineKind, namespace: &str| {
        let mut best_ms = f64::INFINITY;
        let mut report = None;
        for _ in 0..reps {
            let started = Instant::now();
            let r = run_or_load(
                cache,
                namespace,
                &((cfg.clone(), ces), (traffic, 64_000_000u64)),
                || {
                    let mut fabric = RoundTripFabric::new(cfg.clone());
                    fabric.set_engine(engine);
                    let report = fabric.run_prefetch_experiment(ces as usize, traffic, 64_000_000);
                    if engine == EngineKind::Specialized {
                        assert_eq!(
                            fabric.last_run_engine(),
                            Some("specialized"),
                            "reference shape must stay specialization-eligible"
                        );
                    }
                    report
                },
            );
            best_ms = best_ms.min(started.elapsed().as_secs_f64() * 1000.0);
            report = Some(r);
        }
        (best_ms, report.expect("at least one rep"))
    };
    let (spec_ms, spec_report) = time_engine(EngineKind::Specialized, "perf.table2_rk_spec/1");
    let (gen_ms, gen_report) = time_engine(EngineKind::Generic, "perf.table2_rk/1");
    assert!(spec_report.completed(), "reference traffic must drain");
    assert_eq!(
        spec_report, gen_report,
        "engines disagree on the reference run — bit-identity broken"
    );
    runs.push(RefRun {
        name: "table2_rk_prefetch",
        engine: "specialized",
        wall_ms: spec_ms,
        sim_cycles: Some(spec_report.total_net_cycles),
    });
    runs.push(RefRun {
        name: "table2_rk_prefetch_generic",
        engine: "generic",
        wall_ms: gen_ms,
        sim_cycles: Some(gen_report.total_net_cycles),
    });
    let engine_speedup = gen_ms / spec_ms;
    // The specialized engine's whole reason to exist. The honest
    // measured ratio on this host is ~4.5-5x (the run is memory-module
    // bound once backpressure saturates, so the network stepping the
    // engine specializes is only part of the wall clock); the floor
    // sits below the observed band with margin for shared-host noise,
    // not at a wished-for number. Only meaningful cold and at full
    // scale — smoke runs are too short to time.
    if cache.is_none() && !smoke {
        assert!(
            engine_speedup >= 3.0,
            "specialized engine regressed: {gen_ms:.1} ms generic vs {spec_ms:.1} ms \
             specialized ({engine_speedup:.2}x, need >= 3.0x)"
        );
    }

    // 2%-faulted trace run: the degraded fabric with full telemetry
    // attached — the most allocation- and branch-heavy configuration
    // the request path has.
    let trace_ces = if smoke { 2u64 } else { trace::CES as u64 };
    let started = Instant::now();
    let report = run_or_load(
        cache,
        "perf.faulted_trace/1",
        &(
            (trace::SEED, trace::FAULT_RATE),
            (trace_ces, trace::MAX_NET_CYCLES),
            trace::traffic(),
        ),
        || {
            let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
            let plan = FaultPlan::generate(
                &FaultConfig::degraded(trace::SEED, trace::FAULT_RATE),
                &MachineShape::cedar(),
            )
            .expect("trace study config is valid");
            fabric.attach_faults(plan, RetryPolicy::fabric());
            let obs = Obs::new(ObsConfig::enabled());
            fabric.set_obs(&obs);
            fabric.run_prefetch_experiment(
                trace_ces as usize,
                trace::traffic(),
                trace::MAX_NET_CYCLES,
            )
        },
    );
    assert!(report.completed(), "faulted trace traffic must drain");
    runs.push(RefRun {
        name: "faulted_trace",
        // Telemetry is outside the specialized family; this row pins
        // the generic path's cost.
        engine: "generic",
        wall_ms: started.elapsed().as_secs_f64() * 1000.0,
        sim_cycles: Some(report.total_net_cycles),
    });

    // The hot-spot sweep, serial then parallel: the executor's
    // speedup on real sweep work, not a microbenchmark. Both passes
    // pin their thread count explicitly — serial at 1, parallel at
    // [`PARALLEL_THREADS`] — so the baseline always records a real
    // parallel run, whatever `CEDAR_THREADS` the environment carries.
    // (With a warm cache both passes serve hits, so the speedup
    // collapses to ~1 — the comparator only checks simulated fields.)
    let saved_threads = std::env::var(cedar_exec::THREADS_ENV).ok();
    std::env::set_var(cedar_exec::THREADS_ENV, "1");
    let started = Instant::now();
    let serial_points = hotspot::run_cached(cache);
    let serial_ms = started.elapsed().as_secs_f64() * 1000.0;
    std::env::set_var(cedar_exec::THREADS_ENV, PARALLEL_THREADS.to_string());
    let started = Instant::now();
    let parallel_points = hotspot::run_cached(cache);
    let parallel_ms = started.elapsed().as_secs_f64() * 1000.0;
    match &saved_threads {
        Some(v) => std::env::set_var(cedar_exec::THREADS_ENV, v),
        None => std::env::remove_var(cedar_exec::THREADS_ENV),
    }
    assert_eq!(
        serial_points, parallel_points,
        "determinism contract broken"
    );
    runs.push(RefRun {
        name: "hotspot_sweep",
        engine: "n/a",
        wall_ms: parallel_ms,
        sim_cycles: None,
    });
    let speedup = serial_ms / parallel_ms;
    // The pool must never make a cold sweep slower than serial on real
    // hardware, and with the full PARALLEL_THREADS complement of real
    // cores the batched-stealing deques must deliver real scaling.
    // Only meaningful when the work was actually simulated (cold
    // cache) on a machine with cores to use; the recorded `cores`
    // field lets history consumers apply the same gate.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cache.is_none() && cores >= PARALLEL_THREADS {
        assert!(
            speedup >= 2.5,
            "parallel sweep under-scaled: {serial_ms:.1} ms serial vs \
             {parallel_ms:.1} ms on {PARALLEL_THREADS} threads ({speedup:.2}x on \
             {cores} cores, need >= 2.5x)"
        );
    } else if cache.is_none() && cores >= 2 {
        assert!(
            speedup >= 0.85,
            "parallel sweep regressed below serial: {serial_ms:.1} ms serial vs \
             {parallel_ms:.1} ms on {PARALLEL_THREADS} threads ({speedup:.2}x, {cores} cores)"
        );
    }

    let peak_rss_kb = peak_rss_kb();
    let commit = cedar_track::meta::commit_id();
    let timestamp = cedar_track::meta::timestamp();
    let json = render_json(
        smoke,
        &commit,
        &timestamp,
        threads,
        peak_rss_kb,
        &runs,
        engine_speedup,
        serial_ms,
        parallel_ms,
        speedup,
        cores,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_perf.json");

    if let Some(history) = &track {
        let ingested = cedar_track::ingest::perf_report(&json).expect("ingest own report");
        let entry = cedar_track::ingest::build_entry(
            &[ingested],
            commit.clone(),
            timestamp.clone(),
            cedar_track::meta::host_fingerprint(),
            None,
        )
        .expect("build history entry");
        cedar_track::history::append(std::path::Path::new(history), &entry)
            .expect("append to benchmark history");
        println!("  tracked {} metrics to {history}", entry.metrics.len());
    }

    println!("perf baseline ({} mode, {threads} threads)", mode(smoke));
    for r in &runs {
        match r.cycles_per_sec() {
            Some(rate) => println!(
                "  {:<28} {:>9.1} ms  {:>12} net cycles  {:>10.2e} cycles/s  [{}]",
                r.name,
                r.wall_ms,
                r.sim_cycles.unwrap_or(0),
                rate,
                r.engine
            ),
            None => println!("  {:<28} {:>9.1} ms", r.name, r.wall_ms),
        }
    }
    println!("  engine specialized vs generic = {engine_speedup:.2}x on the reference run");
    println!(
        "  sweep serial {serial_ms:.1} ms / parallel {parallel_ms:.1} ms = {speedup:.2}x on {PARALLEL_THREADS} threads ({cores} cores)"
    );
    match peak_rss_kb {
        Some(kb) => println!("  peak RSS {kb} kB"),
        None => println!("  peak RSS unavailable (/proc not readable)"),
    }
    println!("  wrote {out_path}");
}

/// One reference-run row parsed back out of a `BENCH_perf.json`.
struct ParsedRun {
    name: String,
    wall_ms: f64,
    sim_cycles: Option<u64>,
}

/// Extracts the raw value text of `"key": <value>` from a JSON line
/// written by [`render_json`]. This is not a JSON parser; it only
/// reads the rigid single-line rows this binary itself emits.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .char_indices()
        .find(|&(_, c)| c == ',' || c == '}')
        .map_or(rest.len(), |(i, _)| i);
    Some(rest[..end].trim().trim_matches('"'))
}

fn parse_runs(path: &str) -> Vec<ParsedRun> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
    text.lines()
        .filter(|l| l.contains("\"wall_ms\""))
        .map(|l| ParsedRun {
            name: field(l, "name").expect("run row has a name").to_string(),
            wall_ms: field(l, "wall_ms")
                .and_then(|v| v.parse().ok())
                .expect("run row has wall_ms"),
            sim_cycles: match field(l, "sim_cycles") {
                None | Some("null") => None,
                Some(v) => Some(v.parse().expect("sim_cycles is integral")),
            },
        })
        .collect()
}

/// Compares a cold and a warm baseline: every simulated result field
/// must be identical, and the warm run's total reference wall-clock
/// must be at least 5x faster. Returns the process exit code. When
/// `out` is given, also writes a `cedar-bench-compare/1` report with
/// the cold/warm timings (regardless of verdict — the history should
/// record slow caches too).
fn compare_baselines(cold_path: &str, warm_path: &str, out: Option<&str>) -> i32 {
    let cold = parse_runs(cold_path);
    let warm = parse_runs(warm_path);
    let mut failures = 0;
    if cold.len() != warm.len() || cold.is_empty() {
        eprintln!(
            "FAIL: baseline shape mismatch: {} runs in {cold_path}, {} in {warm_path}",
            cold.len(),
            warm.len()
        );
        return 1;
    }
    for (c, w) in cold.iter().zip(&warm) {
        if c.name != w.name {
            eprintln!("FAIL: run order mismatch: {} vs {}", c.name, w.name);
            failures += 1;
            continue;
        }
        if c.sim_cycles != w.sim_cycles {
            eprintln!(
                "FAIL: {}: sim_cycles {:?} (cold) != {:?} (warm) — cache returned a different simulated result",
                c.name, c.sim_cycles, w.sim_cycles
            );
            failures += 1;
        }
    }
    let cold_ms: f64 = cold.iter().map(|r| r.wall_ms).sum();
    let warm_ms: f64 = warm.iter().map(|r| r.wall_ms).sum();
    let ratio = cold_ms / warm_ms;
    if let Some(path) = out {
        let mode = baseline_mode(cold_path);
        let report = format!(
            "{{\n  \"schema\": \"cedar-bench-compare/1\",\n  \"mode\": \"{mode}\",\n  \"cold_ms\": {cold_ms:.3},\n  \"warm_ms\": {warm_ms:.3},\n  \"warm_speedup\": {ratio:.3}\n}}\n"
        );
        std::fs::write(path, report).expect("write compare report");
        println!("  wrote compare report to {path}");
    }
    if ratio < 5.0 {
        eprintln!(
            "FAIL: warm run only {ratio:.2}x faster ({cold_ms:.1} ms cold vs {warm_ms:.1} ms warm); need >= 5x"
        );
        failures += 1;
    } else {
        println!(
            "warm cache is {ratio:.1}x faster ({cold_ms:.1} ms cold vs {warm_ms:.1} ms warm), simulated fields identical"
        );
    }
    if failures > 0 {
        1
    } else {
        0
    }
}

/// Reads the run mode back out of a written baseline, for stamping the
/// compare report with the scope its numbers came from.
fn baseline_mode(path: &str) -> &'static str {
    let smoke = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.contains("\"smoke\""))
                .and_then(|l| field(l, "smoke").map(|v| v == "true"))
        })
        .unwrap_or(false);
    mode(smoke)
}

fn mode(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

/// Peak resident set size in kB, from `/proc/self/status` (`VmHWM`).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    smoke: bool,
    commit: &str,
    timestamp: &str,
    threads: usize,
    peak_rss_kb: Option<u64>,
    runs: &[RefRun],
    engine_speedup: f64,
    serial_ms: f64,
    parallel_ms: f64,
    speedup: f64,
    cores: usize,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"cedar-bench-perf/4\",");
    let _ = writeln!(
        out,
        "  \"commit\": \"{}\",",
        cedar_obs::export::escape_json(commit)
    );
    let _ = writeln!(out, "  \"timestamp\": \"{timestamp}\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"threads\": {threads},");
    match peak_rss_kb {
        Some(kb) => {
            let _ = writeln!(out, "  \"peak_rss_kb\": {kb},");
        }
        None => {
            let _ = writeln!(out, "  \"peak_rss_kb\": null,");
        }
    }
    let _ = writeln!(out, "  \"reference_runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let cycles = r
            .sim_cycles
            .map_or_else(|| "null".into(), |c| c.to_string());
        let rate = r
            .cycles_per_sec()
            .map_or_else(|| "null".into(), |c| format!("{c:.0}"));
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"engine\": \"{}\", \"wall_ms\": {:.3}, \"sim_cycles\": {}, \"sim_cycles_per_sec\": {}}}{}",
            r.name, r.engine, r.wall_ms, cycles, rate, comma
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"engine_speedup\": {engine_speedup:.3},");
    let _ = writeln!(out, "  \"sweep_suite\": {{");
    let _ = writeln!(out, "    \"name\": \"hotspot_sweep\",");
    let _ = writeln!(out, "    \"serial_ms\": {serial_ms:.3},");
    let _ = writeln!(out, "    \"serial_threads\": 1,");
    let _ = writeln!(out, "    \"parallel_ms\": {parallel_ms:.3},");
    let _ = writeln!(out, "    \"threads\": {},", PARALLEL_THREADS);
    let _ = writeln!(out, "    \"cores\": {cores},");
    let _ = writeln!(out, "    \"speedup\": {speedup:.3}");
    let _ = writeln!(out, "  }}");
    out.push_str("}\n");
    out
}
