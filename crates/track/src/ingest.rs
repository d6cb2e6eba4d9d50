//! Report ingestion: turning the benchmark reports into flat history
//! metrics.
//!
//! Each ingester accepts the report text its producer writes —
//! `cedar-bench-perf/4` (`perf`), `cedar-bench-serve/4` (`loadgen`),
//! `cedar-bench-cluster/1` (`cluster_chaos`), `cedar-bench-zoo/1`
//! (`zoo`), and the captured stdout of `python3 perfbench/run.py` —
//! and returns an [`Ingested`] bundle: the run mode, a source tag,
//! and `metric → value` pairs under a stable dotted namespace
//! (`perf.*`, `serve.*`, `cluster.*`, `zoo.*`, `perfbench.*`). Each
//! ingester accepts exactly its producer's current schema; history
//! entries are stored flattened, so older report schemas never need
//! re-reading.

use std::collections::BTreeMap;

use cedar_obs::json::{self, Json};

use crate::gate::median;
use crate::history::{HistoryEntry, HostFingerprint, SCHEMA};

/// One report's contribution to a history entry.
#[derive(Debug, Clone)]
pub struct Ingested {
    /// Source tag (`perf`, `serve`, `cluster`, `zoo`, `perfbench`).
    pub source: &'static str,
    /// Run mode the report declares (`full`, `smoke`, `chaos`,
    /// `perfbench`).
    pub mode: String,
    /// Flat metrics extracted from the report.
    pub metrics: BTreeMap<String, f64>,
    /// Notes for the entry, e.g. `"<metric> unmeasured: <reason>"` for
    /// a number the report declined to measure.
    pub notes: Vec<String>,
}

fn parse_report(text: &str, schema: &str) -> Result<Json, String> {
    let v = json::parse(text)?;
    let found = v
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("report has no schema field")?;
    if found != schema {
        return Err(format!(
            "unsupported report schema {found:?} (want {schema:?})"
        ));
    }
    Ok(v)
}

fn num(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_f64).filter(|n| n.is_finite())
}

fn put(metrics: &mut BTreeMap<String, f64>, key: &str, value: Option<f64>) {
    if let Some(v) = value {
        if v.is_finite() {
            metrics.insert(key.to_owned(), v);
        }
    }
}

/// Puts each numeric `v.<key>` as `<prefix><key>`.
fn put_all(metrics: &mut BTreeMap<String, f64>, v: &Json, prefix: &str, keys: &[&str]) {
    for key in keys {
        put(metrics, &format!("{prefix}{key}"), num(v, key));
    }
}

/// Folds a report's `obs` object (flat `series → value`) into the
/// metric map under `prefix`.
fn put_obs(metrics: &mut BTreeMap<String, f64>, v: &Json, prefix: &str) {
    if let Some(Json::Obj(members)) = v.get("obs") {
        for (k, m) in members {
            if let Some(n) = m.as_f64().filter(|n| n.is_finite()) {
                metrics.insert(format!("{prefix}{k}"), n);
            }
        }
    }
}

/// The report's mode: its `mode` field, or `smoke`/`full` from its
/// `smoke` flag, or `default`.
fn mode_of(v: &Json, default: &str) -> String {
    match (v.get("mode").and_then(Json::as_str), v.get("smoke")) {
        (Some(mode), _) => mode,
        (None, Some(Json::Bool(true))) => "smoke",
        (None, Some(Json::Bool(false))) => "full",
        (None, _) => default,
    }
    .to_owned()
}

/// Wraps one report's metrics, refusing a report that yielded none.
fn ingested(
    source: &'static str,
    mode: String,
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
) -> Result<Ingested, String> {
    if metrics.is_empty() {
        return Err(format!("{source} report contains no ingestible metrics"));
    }
    Ok(Ingested {
        source,
        mode,
        metrics,
        notes,
    })
}

/// Ingests a `BENCH_perf.json` report.
///
/// # Errors
///
/// Returns a description when the text is not a well-formed perf
/// report.
pub fn perf_report(text: &str) -> Result<Ingested, String> {
    let v = parse_report(text, "cedar-bench-perf/4")?;
    let mut metrics = BTreeMap::new();
    // `engine_speedup` is the specialized-vs-generic engine ratio on
    // the reference run.
    put_all(
        &mut metrics,
        &v,
        "perf.",
        &["engine_speedup", "cores", "peak_rss_kb"],
    );
    if let Some(Json::Arr(runs)) = v.get("reference_runs") {
        for run in runs {
            let Some(name) = run.get("name").and_then(Json::as_str) else {
                continue;
            };
            let keys = [
                "wall_ms",
                "sim_cycles_per_sec",
                "reps",
                "min_ms",
                "median_ms",
                "max_ms",
            ];
            put_all(&mut metrics, run, &format!("perf.{name}."), &keys);
        }
    }
    let mut notes = Vec::new();
    if let Some(sweep) = v.get("sweep_suite") {
        put_all(
            &mut metrics,
            sweep,
            "perf.sweep.",
            &["serial_ms", "parallel_ms", "speedup"],
        );
        if let Some(why) = sweep.get("speedup_unmeasured").and_then(Json::as_str) {
            notes.push(format!("perf.sweep.speedup unmeasured: {why}"));
        }
    }
    ingested("perf", mode_of(&v, "full"), metrics, notes)
}

/// Flattens one load curve (`closed_loop` or the binary `conn_curve`):
/// each level's rate and percentiles under `<prefix>.c<width>.`, keyed
/// by its `width_key` (clients or connections). Returns the highest
/// throughput and the p99 at the widest level.
fn put_curve(
    metrics: &mut BTreeMap<String, f64>,
    levels: &[Json],
    prefix: &str,
    width_key: &str,
) -> (Option<f64>, Option<f64>) {
    let (mut max_rps, mut widest, mut widest_p99) = (None::<f64>, 0.0f64, None);
    for level in levels {
        let Some(width) = num(level, width_key) else {
            continue;
        };
        let tag = format!("{prefix}.c{}.", width as u64);
        put_all(
            metrics,
            level,
            &tag,
            &["throughput_rps", "p50_us", "p99_us"],
        );
        if let Some(rps) = num(level, "throughput_rps") {
            max_rps = Some(max_rps.map_or(rps, |m| m.max(rps)));
        }
        if width >= widest {
            widest = width;
            widest_p99 = num(level, "p99_us");
        }
    }
    (max_rps, widest_p99)
}

/// Ingests a `BENCH_serve.json` report.
///
/// # Errors
///
/// Returns a description when the text is not a well-formed serve
/// report.
pub fn serve_report(text: &str) -> Result<Ingested, String> {
    let v = parse_report(text, "cedar-bench-serve/4")?;
    let mut metrics = BTreeMap::new();
    if let Some(dedup) = v.get("dedup") {
        put_all(
            &mut metrics,
            dedup,
            "serve.dedup.",
            &["executed", "coalesced"],
        );
    }
    if let Some(mix) = v.get("fault_mix") {
        put_all(&mut metrics, mix, "serve.mix.", &["healthy_dropped"]);
    }
    if let Some(Json::Arr(levels)) = v.get("closed_loop") {
        let (max_rps, peak_p99) = put_curve(&mut metrics, levels, "serve.closed", "clients");
        put(&mut metrics, "serve.closed.max_throughput_rps", max_rps);
        put(&mut metrics, "serve.closed.peak_p99_us", peak_p99);
    }
    if let Some(open) = v.get("open_loop") {
        put_all(
            &mut metrics,
            open,
            "serve.open.",
            &["achieved_rps", "p50_us", "p99_us"],
        );
    }
    // The binary-protocol phase: a lockstep warm pass followed by a
    // connections-vs-latency sweep on the `b"CSRV"` wire format. The
    // curve flattens per level; the peak level (most connections)
    // feeds the `serve.conn.peak_p99_us` gate.
    if let Some(bin) = v.get("binary") {
        let keys = ["warm_rps", "peak_rps", "peak_p50_us", "peak_p99_us"];
        put_all(&mut metrics, bin, "serve.binary.", &keys);
        if let Some(Json::Arr(levels)) = bin.get("conn_curve") {
            let (_, peak_p99) = put_curve(&mut metrics, levels, "serve.conn", "conns");
            put(&mut metrics, "serve.conn.peak_p99_us", peak_p99);
        }
    }
    put_all(&mut metrics, &v, "serve.", &["conns", "fd_limit"]);
    if let Some(adv) = v.get("adversarial") {
        put_all(
            &mut metrics,
            adv,
            "serve.adv.",
            &["reaped_read", "loris_conns"],
        );
    }
    put_obs(&mut metrics, &v, "serve.obs.");
    ingested("serve", mode_of(&v, "full"), metrics, Vec::new())
}

/// Ingests a `BENCH_cluster.json` chaos-timing report. Only a run that
/// held its invariants may enter the history, so a report must carry a
/// `failures` count of zero.
///
/// # Errors
///
/// Returns a description when the text is not a well-formed cluster
/// report, or its run broke an invariant.
pub fn cluster_report(text: &str) -> Result<Ingested, String> {
    let v = parse_report(text, "cedar-bench-cluster/1")?;
    let failures = num(&v, "failures").ok_or("cluster report has no failures count")?;
    if failures > 0.0 {
        return Err(format!(
            "cluster run broke {failures} invariant(s); not ingested"
        ));
    }
    let mut metrics = BTreeMap::new();
    let keys = [
        "workers",
        "points",
        "wall_ms",
        "points_per_sec",
        "worker_exits",
        "hangs_reaped",
        "garbage_frames",
        "restarts",
        "reissues",
        "stale_results",
        "cache_hits",
        "workers_lost",
    ];
    put_all(&mut metrics, &v, "cluster.", &keys);
    put_obs(&mut metrics, &v, "cluster.obs.");
    ingested("cluster", mode_of(&v, "chaos"), metrics, Vec::new())
}

/// Ingests a `BENCH_zoo.json` machine-zoo report: sweep throughput,
/// the combining gain, and every machine's row flattened to
/// `zoo.<machine>.*` dotted metrics.
///
/// # Errors
///
/// Returns a description when the text is not a well-formed zoo
/// report.
pub fn zoo_report(text: &str) -> Result<Ingested, String> {
    let v = parse_report(text, "cedar-bench-zoo/1")?;
    let mut metrics = BTreeMap::new();
    let keys = ["cells", "wall_ms", "points_per_sec", "combining_gain"];
    put_all(&mut metrics, &v, "zoo.", &keys);
    if let Some(Json::Arr(machines)) = v.get("machines") {
        for m in machines {
            let Some(name) = m.get("name").and_then(Json::as_str) else {
                continue;
            };
            let keys = [
                "passed",
                "efficiency_score",
                "instability",
                "ppt5_score",
                "hotspot_retention",
                "words_combined",
            ];
            put_all(&mut metrics, m, &format!("zoo.{name}."), &keys);
        }
    }
    ingested("zoo", mode_of(&v, "full"), metrics, Vec::new())
}

/// Ingests the captured stdout of one or more `python3 perfbench/run.py`
/// runs, given as `(name, text)` pairs: each run's
/// `# cedar-perfbench workload=… commit=…` stamp line and final JSON
/// result line. Every metric becomes `perfbench.<workload>.<metric>`,
/// the median over the runs, and `perfbench.<workload>.reps` counts
/// the runs.
///
/// # Errors
///
/// Returns a description naming the run when a run lacks its stamp or
/// result line, is not `correct`, failed operations, or differs from
/// the first run in workload, commit or trace mode.
pub fn perfbench_runs(runs: &[(String, String)]) -> Result<Ingested, String> {
    let mut identity: Option<(&str, [&str; 3])> = None;
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (name, text) in runs {
        let stamp = text
            .lines()
            .find_map(|l| l.strip_prefix("# cedar-perfbench "))
            .ok_or_else(|| format!("{name}: no `# cedar-perfbench` stamp line"))?;
        let field = |key: &str| {
            stamp
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                .unwrap_or("")
        };
        let id = [field("workload"), field("commit"), field("trace")];
        match identity {
            None => identity = Some((name, id)),
            Some((first, want)) if want != id => {
                return Err(format!(
                    "{name} is workload={} commit={} trace={} but {first} is workload={} \
                     commit={} trace={}; runs of one entry must not mix",
                    id[0], id[1], id[2], want[0], want[1], want[2]
                ));
            }
            Some(_) => {}
        }
        let last = text.lines().rev().find(|l| !l.trim().is_empty());
        let v = json::parse(last.unwrap_or_default())
            .map_err(|e| format!("{name}: bad result line: {e}"))?;
        if v.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{name}: run is not correct"));
        }
        let failed = num(&v, "failed").ok_or_else(|| format!("{name}: no failed count"))?;
        if failed > 0.0 {
            return Err(format!("{name}: {failed} operations failed"));
        }
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            return Err(format!("{name}: result has no metrics"));
        };
        for (metric, m) in metrics {
            let value = num(m, "value").ok_or_else(|| format!("{name}: {metric} has no value"))?;
            samples.entry(metric.clone()).or_default().push(value);
        }
    }
    let (_, [workload, ..]) = identity.ok_or("no perfbench runs to ingest")?;
    if workload.is_empty() {
        return Err("perfbench stamp names no workload".to_owned());
    }
    let mut metrics = BTreeMap::new();
    for (metric, mut values) in samples {
        if values.len() != runs.len() {
            return Err(format!("{metric} is missing from some runs"));
        }
        metrics.insert(
            format!("perfbench.{workload}.{metric}"),
            median(&mut values),
        );
    }
    metrics.insert(format!("perfbench.{workload}.reps"), runs.len() as f64);
    ingested("perfbench", "perfbench".to_owned(), metrics, Vec::new())
}

/// Combines one or more ingested reports into a single stamped history
/// entry. A mode clash among the reports is an error (smoke and full
/// numbers must never share a gating scope). The reports' notes follow
/// `notes`, joined by `"; "`.
///
/// # Errors
///
/// Returns a description when `reports` is empty or mixes modes.
pub fn build_entry(
    reports: &[Ingested],
    commit: String,
    timestamp: String,
    host: HostFingerprint,
    notes: Option<String>,
) -> Result<HistoryEntry, String> {
    let first = reports.first().ok_or("no reports to ingest")?;
    if let Some(r) = reports.iter().find(|r| r.mode != first.mode) {
        return Err(format!(
            "mode clash: {} report is {:?} but {} report is {:?}",
            first.source, first.mode, r.source, r.mode
        ));
    }
    let mut metrics = BTreeMap::new();
    let mut sources = Vec::new();
    let mut notes: Vec<String> = notes.into_iter().collect();
    for r in reports {
        sources.push(r.source.to_owned());
        metrics.extend(r.metrics.iter().map(|(k, v)| (k.clone(), *v)));
        notes.extend(r.notes.iter().cloned());
    }
    Ok(HistoryEntry {
        schema: SCHEMA.to_owned(),
        commit,
        timestamp,
        host,
        mode: first.mode.clone(),
        sources,
        metrics,
        notes: (!notes.is_empty()).then(|| notes.join("; ")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERF: &str = r#"{
  "schema": "cedar-bench-perf/4",
  "commit": "abc",
  "timestamp": "2026-08-08T00:00:00Z",
  "smoke": false,
  "threads": 1,
  "cores": 4,
  "peak_rss_kb": 9512,
  "reference_runs": [
    {"name": "table2_rk_prefetch", "engine": "specialized", "reps": 3, "min_ms": 45.875, "median_ms": 46.1, "max_ms": 50.2, "wall_ms": 45.875, "sim_cycles": 16949, "sim_cycles_per_sec": 369452},
    {"name": "table2_rk_prefetch_generic", "engine": "generic", "reps": 3, "min_ms": 210.1, "median_ms": 211.0, "max_ms": 215.0, "wall_ms": 210.1, "sim_cycles": 16949, "sim_cycles_per_sec": 80671},
    {"name": "hotspot_sweep", "engine": "n/a", "reps": 1, "min_ms": 138.794, "median_ms": 138.794, "max_ms": 138.794, "wall_ms": 138.794, "sim_cycles": null, "sim_cycles_per_sec": null}
  ],
  "engine_speedup": 4.580,
  "sweep_suite": {"name": "hotspot_sweep", "serial_ms": 133.5, "serial_threads": 1, "parallel_ms": 138.8, "threads": 4, "speedup": 0.962}
}"#;

    #[test]
    fn perf_report_flattens_to_namespaced_metrics() {
        let ing = perf_report(PERF).unwrap();
        assert_eq!(ing.mode, "full");
        assert_eq!(
            ing.metrics["perf.table2_rk_prefetch.sim_cycles_per_sec"],
            369_452.0
        );
        assert_eq!(
            ing.metrics["perf.table2_rk_prefetch_generic.sim_cycles_per_sec"],
            80_671.0
        );
        assert_eq!(ing.metrics["perf.table2_rk_prefetch.reps"], 3.0);
        assert_eq!(ing.metrics["perf.table2_rk_prefetch.median_ms"], 46.1);
        assert_eq!(ing.metrics["perf.table2_rk_prefetch.max_ms"], 50.2);
        assert_eq!(ing.metrics["perf.engine_speedup"], 4.58);
        assert_eq!(ing.metrics["perf.cores"], 4.0);
        assert_eq!(ing.metrics["perf.sweep.speedup"], 0.962);
        assert_eq!(ing.metrics["perf.peak_rss_kb"], 9512.0);
        assert!(ing.notes.is_empty());
        // A null rate must simply be absent, not zero.
        assert!(!ing
            .metrics
            .contains_key("perf.hotspot_sweep.sim_cycles_per_sec"));
        assert!(ing.metrics.contains_key("perf.hotspot_sweep.wall_ms"));
    }

    #[test]
    fn unmeasured_sweep_speedup_is_absent_with_its_reason() {
        let text = PERF.replace(
            "\"speedup\": 0.962}",
            "\"speedup\": null, \"speedup_unmeasured\": \"1 core < 4 threads\"}",
        );
        let ing = perf_report(&text).unwrap();
        assert!(!ing.metrics.contains_key("perf.sweep.speedup"));
        assert_eq!(
            ing.notes,
            vec!["perf.sweep.speedup unmeasured: 1 core < 4 threads"]
        );
    }

    #[test]
    fn serve_report_summarises_the_knee() {
        let text = r#"{
  "schema": "cedar-bench-serve/4",
  "mode": "smoke",
  "dedup": {"burst": 8, "executed": 1, "cache_hits": 0, "coalesced": 7},
  "fault_mix": {"requests": 24, "ok": 23, "degraded": 1, "errors": 0, "healthy_dropped": 0},
  "closed_loop": [
    {"clients": 1, "requests": 6, "throughput_rps": 1533.3, "p50_us": 626, "p95_us": 724, "p99_us": 724},
    {"clients": 4, "requests": 24, "throughput_rps": 1489.0, "p50_us": 2576, "p95_us": 2897, "p99_us": 4354}
  ],
  "open_loop": {"offered_rps": 40.0, "achieved_rps": 39.25, "p50_us": 744, "p99_us": 1012},
  "adversarial": {"loris_conns": 3, "reaped_read": 3, "partial_write_conns": 2, "idle_survived": true},
  "obs": {"serve.conn.reaped_read": 3, "serve.queue.depth": 0},
  "drained": true
}"#;
        let ing = serve_report(text).unwrap();
        assert_eq!(ing.mode, "smoke");
        assert_eq!(ing.metrics["serve.closed.max_throughput_rps"], 1533.3);
        assert_eq!(ing.metrics["serve.closed.peak_p99_us"], 4354.0);
        assert_eq!(ing.metrics["serve.closed.c4.p99_us"], 4354.0);
        assert_eq!(ing.metrics["serve.open.p99_us"], 1012.0);
        assert_eq!(ing.metrics["serve.obs.serve.conn.reaped_read"], 3.0);
    }

    #[test]
    fn serve_v4_report_flattens_the_binary_curve() {
        let text = r#"{
  "schema": "cedar-bench-serve/4",
  "mode": "full",
  "dedup": {"burst": 8, "executed": 1, "cache_hits": 0, "coalesced": 7},
  "closed_loop": [
    {"clients": 4, "requests": 24, "throughput_rps": 1489.0, "p50_us": 2576, "p95_us": 2897, "p99_us": 4354}
  ],
  "binary": {
    "warm_jobs": 32,
    "warm_rps": 950.5,
    "peak_rps": 21500.0,
    "peak_p50_us": 1800,
    "peak_p99_us": 9200,
    "conn_curve": [
      {"conns": 16, "requests": 4000, "throughput_rps": 18000.0, "p50_us": 300, "p99_us": 900},
      {"conns": 10000, "requests": 20000, "throughput_rps": 21500.0, "p50_us": 1800, "p99_us": 9200}
    ]
  },
  "conns": 10000,
  "fd_limit": 20000,
  "obs": {"serve.proto.corrupt": 0},
  "drained": true
}"#;
        let ing = serve_report(text).unwrap();
        assert_eq!(ing.mode, "full");
        assert_eq!(ing.metrics["serve.binary.peak_rps"], 21500.0);
        assert_eq!(ing.metrics["serve.binary.warm_rps"], 950.5);
        assert_eq!(ing.metrics["serve.conn.c16.throughput_rps"], 18000.0);
        assert_eq!(ing.metrics["serve.conn.c10000.p99_us"], 9200.0);
        // The gate metric is the p99 at the *widest* level, not the
        // best one.
        assert_eq!(ing.metrics["serve.conn.peak_p99_us"], 9200.0);
        assert_eq!(ing.metrics["serve.conns"], 10000.0);
        assert_eq!(ing.metrics["serve.fd_limit"], 20000.0);
        assert_eq!(ing.metrics["serve.obs.serve.proto.corrupt"], 0.0);
    }

    #[test]
    fn cluster_report_ingests_and_refuses_failures() {
        let cluster = r#"{"schema":"cedar-bench-cluster/1","mode":"chaos","failures":0,"workers":4,"points":32,"wall_ms":900.5,"points_per_sec":35.5,"worker_exits":2,"hangs_reaped":1,"garbage_frames":1,"restarts":3,"reissues":5,"stale_results":0,"cache_hits":0,"obs":{"cluster.jobs.committed":32}}"#;
        let ing = cluster_report(cluster).unwrap();
        assert_eq!(ing.metrics["cluster.points_per_sec"], 35.5);
        assert_eq!(ing.metrics["cluster.obs.cluster.jobs.committed"], 32.0);

        let failed = cluster.replace("\"failures\":0", "\"failures\":2");
        let err = cluster_report(&failed).unwrap_err();
        assert!(err.contains("2 invariant"), "{err}");
        let uncounted = cluster.replace("\"failures\":0,", "");
        assert!(cluster_report(&uncounted).is_err());
    }

    /// A short `table2` run's captured stdout.
    const PERFBENCH: &str = include_str!("../tests/fixtures/perfbench_table2.txt");

    fn runs(texts: &[&str]) -> Vec<(String, String)> {
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("run{i}"), (*t).to_owned()))
            .collect()
    }

    #[test]
    fn perfbench_runs_record_the_median_and_reps() {
        let ops = |v: f64| {
            PERFBENCH.replace(
                "\"ops_per_s\": {\"value\": ",
                &format!("\"ops_per_s\": {{\"value\": {v}, \"was\": "),
            )
        };
        let ing = perfbench_runs(&runs(&[&ops(30.0), &ops(10.0), &ops(20.0)])).unwrap();
        assert_eq!(ing.source, "perfbench");
        assert_eq!(ing.mode, "perfbench");
        assert_eq!(ing.metrics["perfbench.table2.ops_per_s"], 20.0);
        assert_eq!(ing.metrics["perfbench.table2.reps"], 3.0);
        assert!(ing.metrics["perfbench.table2.sim_cycles_per_s"] > 0.0);
        assert!(ing.metrics.contains_key("perfbench.table2.setup_s"));
    }

    #[test]
    fn perfbench_runs_refuse_mixes_and_bad_runs() {
        let degraded = PERFBENCH.replace("workload=table2", "workload=degraded");
        let err = perfbench_runs(&runs(&[PERFBENCH, &degraded])).unwrap_err();
        assert!(err.contains("must not mix"), "{err}");
        let other = PERFBENCH.replace(" commit=", " commit=f00");
        assert!(perfbench_runs(&runs(&[PERFBENCH, &other])).is_err());
        let wrong = PERFBENCH.replace("\"correct\": true", "\"correct\": false");
        let err = perfbench_runs(&runs(&[&wrong])).unwrap_err();
        assert!(err.contains("run0: run is not correct"), "{err}");
        let failed = PERFBENCH.replace("\"failed\": 0", "\"failed\": 1");
        assert!(perfbench_runs(&runs(&[&failed])).is_err());
        assert!(perfbench_runs(&runs(&["no stamp\n{}"])).is_err());
        assert!(perfbench_runs(&[]).is_err());
    }

    const ZOO: &str = r#"{
  "schema": "cedar-bench-zoo/1",
  "commit": "abc",
  "timestamp": "2026-08-08T00:00:00Z",
  "smoke": true,
  "threads": 4,
  "cells": 32,
  "wall_ms": 812.5,
  "points_per_sec": 39.4,
  "combining_gain": 2.31,
  "machines": [
    {"name": "cedar", "processors": 32, "ppt1": 1, "ppt2": 1, "ppt3": 1, "ppt4": 0, "ppt5": 0, "passed": 3, "efficiency_score": 0.7123, "instability": 4.1, "ppt5_score": 0.12, "hotspot_retention": 0.45, "words_combined": 0},
    {"name": "ultra", "processors": 32, "ppt1": 1, "ppt2": 1, "ppt3": 1, "ppt4": 1, "ppt5": 0, "passed": 4, "efficiency_score": 0.8001, "instability": 3.9, "ppt5_score": 0.10, "hotspot_retention": 0.91, "words_combined": 1534}
  ]
}"#;

    #[test]
    fn zoo_report_flattens_each_machine_row() {
        let ing = zoo_report(ZOO).unwrap();
        assert_eq!(ing.source, "zoo");
        assert_eq!(ing.mode, "smoke");
        assert_eq!(ing.metrics["zoo.cells"], 32.0);
        assert_eq!(ing.metrics["zoo.points_per_sec"], 39.4);
        assert_eq!(ing.metrics["zoo.combining_gain"], 2.31);
        assert_eq!(ing.metrics["zoo.cedar.efficiency_score"], 0.7123);
        assert_eq!(ing.metrics["zoo.cedar.passed"], 3.0);
        assert_eq!(ing.metrics["zoo.ultra.words_combined"], 1534.0);
        assert_eq!(ing.metrics["zoo.ultra.hotspot_retention"], 0.91);
    }

    #[test]
    fn zoo_gate_metrics_are_in_the_default_set() {
        let gates = crate::gate::default_gates();
        let ing = zoo_report(ZOO).unwrap();
        let gated: Vec<&str> = gates
            .iter()
            .filter(|g| ing.metrics.contains_key(&g.metric))
            .map(|g| g.metric.as_str())
            .collect();
        assert_eq!(
            gated,
            vec!["zoo.points_per_sec", "zoo.cedar.efficiency_score"]
        );
    }

    #[test]
    fn wrong_schema_is_rejected() {
        assert!(perf_report(r#"{"schema":"cedar-bench-serve/3"}"#).is_err());
        assert!(serve_report(r#"{"schema":"nope/1"}"#).is_err());
        assert!(cluster_report("{}").is_err());
        assert!(zoo_report(r#"{"schema":"cedar-bench-perf/4"}"#).is_err());
    }

    #[test]
    fn build_entry_merges_sources_and_rejects_mode_clash() {
        let perf = perf_report(PERF).unwrap();
        let host = HostFingerprint {
            hostname: "h".to_owned(),
            cpus: 4,
            os: "linux/x86_64".to_owned(),
        };
        let entry = build_entry(
            std::slice::from_ref(&perf),
            "sha".to_owned(),
            "2026-08-08T00:00:00Z".to_owned(),
            host.clone(),
            None,
        )
        .unwrap();
        assert_eq!(entry.mode, "full");
        assert_eq!(entry.sources, vec!["perf"]);
        assert!(entry.metrics.len() >= 5);
        assert_eq!(entry.notes, None);

        let mut noted = perf.clone();
        noted.notes = vec!["perf.sweep.speedup unmeasured: 1 core".to_owned()];
        let entry = build_entry(
            &[noted],
            "sha".to_owned(),
            "t".to_owned(),
            host.clone(),
            Some("nightly".to_owned()),
        )
        .unwrap();
        assert_eq!(
            entry.notes.as_deref(),
            Some("nightly; perf.sweep.speedup unmeasured: 1 core")
        );

        let mut smoke = perf.clone();
        smoke.mode = "smoke".to_owned();
        smoke.source = "serve";
        assert!(build_entry(&[perf, smoke], "sha".to_owned(), "t".to_owned(), host, None).is_err());
    }
}
