//! Report ingestion: turning the benchmark bins' JSON reports into
//! flat history metrics.
//!
//! Each ingester accepts the report text its producer writes —
//! `cedar-bench-perf/4` (`perf`), `cedar-bench-serve/4` (`loadgen`),
//! `cedar-bench-cluster/1` (`cluster_chaos`), `cedar-bench-zoo/1`
//! (`zoo`), `cedar-bench-compare/1` (`perf --compare --compare-out`)
//! — and returns an [`Ingested`] bundle: the run mode, a source tag,
//! and `metric → value` pairs under a stable dotted namespace
//! (`perf.*`, `serve.*`, `cluster.*`, `zoo.*`,
//! `cache.*`). Each ingester accepts exactly its producer's current
//! schema; history entries are stored flattened, so older report
//! schemas never need re-reading.

use std::collections::BTreeMap;

use cedar_obs::json::{self, Json};

use crate::history::{HistoryEntry, HostFingerprint, SCHEMA};

/// One report's contribution to a history entry.
#[derive(Debug, Clone)]
pub struct Ingested {
    /// Source tag (`perf`, `serve`, `cluster`, `compare`).
    pub source: &'static str,
    /// Run mode the report declares (`full`, `smoke`, `chaos`).
    pub mode: String,
    /// Flat metrics extracted from the report.
    pub metrics: BTreeMap<String, f64>,
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

/// Ingests a `BENCH_perf.json` report.
///
/// # Errors
///
/// Returns a description when the text is not a well-formed perf
/// report.
pub fn perf_report(text: &str) -> Result<Ingested, String> {
    let v = parse_report(text, "cedar-bench-perf/4")?;
    let mut metrics = BTreeMap::new();
    let smoke = v.get("smoke").and_then(Json::as_bool).unwrap_or(false);
    // The specialized-vs-generic engine ratio on the reference run.
    put(
        &mut metrics,
        "perf.engine_speedup",
        num(&v, "engine_speedup"),
    );
    if let Some(Json::Arr(runs)) = v.get("reference_runs") {
        for run in runs {
            let Some(name) = run.get("name").and_then(Json::as_str) else {
                continue;
            };
            put(
                &mut metrics,
                &format!("perf.{name}.wall_ms"),
                num(run, "wall_ms"),
            );
            put(
                &mut metrics,
                &format!("perf.{name}.sim_cycles_per_sec"),
                num(run, "sim_cycles_per_sec"),
            );
        }
    }
    if let Some(sweep) = v.get("sweep_suite") {
        put(
            &mut metrics,
            "perf.sweep.serial_ms",
            num(sweep, "serial_ms"),
        );
        put(
            &mut metrics,
            "perf.sweep.parallel_ms",
            num(sweep, "parallel_ms"),
        );
        put(&mut metrics, "perf.sweep.speedup", num(sweep, "speedup"));
        put(&mut metrics, "perf.sweep.cores", num(sweep, "cores"));
    }
    put(&mut metrics, "perf.peak_rss_kb", num(&v, "peak_rss_kb"));
    if metrics.is_empty() {
        return Err("perf report contains no ingestible metrics".to_owned());
    }
    Ok(Ingested {
        source: "perf",
        mode: if smoke { "smoke" } else { "full" }.to_owned(),
        metrics,
    })
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
    let mode = v
        .get("mode")
        .and_then(Json::as_str)
        .unwrap_or("full")
        .to_owned();
    if let Some(dedup) = v.get("dedup") {
        put(&mut metrics, "serve.dedup.executed", num(dedup, "executed"));
        put(
            &mut metrics,
            "serve.dedup.coalesced",
            num(dedup, "coalesced"),
        );
    }
    if let Some(mix) = v.get("fault_mix") {
        put(
            &mut metrics,
            "serve.mix.healthy_dropped",
            num(mix, "healthy_dropped"),
        );
    }
    if let Some(Json::Arr(levels)) = v.get("closed_loop") {
        let mut max_rps = f64::NEG_INFINITY;
        let mut peak_p99 = None;
        let mut peak_clients = 0.0f64;
        for level in levels {
            let Some(clients) = num(level, "clients") else {
                continue;
            };
            let tag = format!("serve.closed.c{}", clients as u64);
            put(
                &mut metrics,
                &format!("{tag}.throughput_rps"),
                num(level, "throughput_rps"),
            );
            put(&mut metrics, &format!("{tag}.p50_us"), num(level, "p50_us"));
            put(&mut metrics, &format!("{tag}.p99_us"), num(level, "p99_us"));
            if let Some(rps) = num(level, "throughput_rps") {
                max_rps = max_rps.max(rps);
            }
            if clients >= peak_clients {
                peak_clients = clients;
                peak_p99 = num(level, "p99_us");
            }
        }
        if max_rps.is_finite() {
            metrics.insert("serve.closed.max_throughput_rps".to_owned(), max_rps);
        }
        put(&mut metrics, "serve.closed.peak_p99_us", peak_p99);
    }
    if let Some(open) = v.get("open_loop") {
        put(
            &mut metrics,
            "serve.open.achieved_rps",
            num(open, "achieved_rps"),
        );
        put(&mut metrics, "serve.open.p50_us", num(open, "p50_us"));
        put(&mut metrics, "serve.open.p99_us", num(open, "p99_us"));
    }
    // The binary-protocol phase: a lockstep warm pass followed by a
    // connections-vs-latency sweep on the `b"CSRV"` wire format. The
    // curve flattens per level; the peak level (most connections)
    // feeds the `serve.conn.peak_p99_us` gate.
    if let Some(bin) = v.get("binary") {
        put(&mut metrics, "serve.binary.warm_rps", num(bin, "warm_rps"));
        put(&mut metrics, "serve.binary.peak_rps", num(bin, "peak_rps"));
        put(
            &mut metrics,
            "serve.binary.peak_p50_us",
            num(bin, "peak_p50_us"),
        );
        put(
            &mut metrics,
            "serve.binary.peak_p99_us",
            num(bin, "peak_p99_us"),
        );
        if let Some(Json::Arr(levels)) = bin.get("conn_curve") {
            let mut peak_conns = 0.0f64;
            let mut peak_p99 = None;
            for level in levels {
                let Some(conns) = num(level, "conns") else {
                    continue;
                };
                let tag = format!("serve.conn.c{}", conns as u64);
                put(
                    &mut metrics,
                    &format!("{tag}.throughput_rps"),
                    num(level, "throughput_rps"),
                );
                put(&mut metrics, &format!("{tag}.p50_us"), num(level, "p50_us"));
                put(&mut metrics, &format!("{tag}.p99_us"), num(level, "p99_us"));
                if conns >= peak_conns {
                    peak_conns = conns;
                    peak_p99 = num(level, "p99_us");
                }
            }
            put(&mut metrics, "serve.conn.peak_p99_us", peak_p99);
        }
    }
    put(&mut metrics, "serve.conns", num(&v, "conns"));
    put(&mut metrics, "serve.fd_limit", num(&v, "fd_limit"));
    if let Some(adv) = v.get("adversarial") {
        put(
            &mut metrics,
            "serve.adv.reaped_read",
            num(adv, "reaped_read"),
        );
        put(
            &mut metrics,
            "serve.adv.loris_conns",
            num(adv, "loris_conns"),
        );
    }
    put_obs(&mut metrics, &v, "serve.obs.");
    if metrics.is_empty() {
        return Err("serve report contains no ingestible metrics".to_owned());
    }
    Ok(Ingested {
        source: "serve",
        mode,
        metrics,
    })
}

/// Ingests a `BENCH_cluster.json` chaos-timing report.
///
/// # Errors
///
/// Returns a description when the text is not a well-formed cluster
/// report.
pub fn cluster_report(text: &str) -> Result<Ingested, String> {
    let v = parse_report(text, "cedar-bench-cluster/1")?;
    let mut metrics = BTreeMap::new();
    for key in [
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
    ] {
        put(&mut metrics, &format!("cluster.{key}"), num(&v, key));
    }
    put_obs(&mut metrics, &v, "cluster.obs.");
    if metrics.is_empty() {
        return Err("cluster report contains no ingestible metrics".to_owned());
    }
    Ok(Ingested {
        source: "cluster",
        mode: v
            .get("mode")
            .and_then(Json::as_str)
            .unwrap_or("chaos")
            .to_owned(),
        metrics,
    })
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
    let smoke = v.get("smoke").and_then(Json::as_bool).unwrap_or(false);
    put(&mut metrics, "zoo.cells", num(&v, "cells"));
    put(&mut metrics, "zoo.wall_ms", num(&v, "wall_ms"));
    put(
        &mut metrics,
        "zoo.points_per_sec",
        num(&v, "points_per_sec"),
    );
    put(
        &mut metrics,
        "zoo.combining_gain",
        num(&v, "combining_gain"),
    );
    if let Some(Json::Arr(machines)) = v.get("machines") {
        for m in machines {
            let Some(name) = m.get("name").and_then(Json::as_str) else {
                continue;
            };
            for key in [
                "passed",
                "efficiency_score",
                "instability",
                "ppt5_score",
                "hotspot_retention",
                "words_combined",
            ] {
                put(&mut metrics, &format!("zoo.{name}.{key}"), num(m, key));
            }
        }
    }
    if metrics.is_empty() {
        return Err("zoo report contains no ingestible metrics".to_owned());
    }
    Ok(Ingested {
        source: "zoo",
        mode: if smoke { "smoke" } else { "full" }.to_owned(),
        metrics,
    })
}

/// Ingests a `perf --compare --compare-out` cold/warm cache report.
///
/// # Errors
///
/// Returns a description when the text is not a well-formed compare
/// report.
pub fn compare_report(text: &str) -> Result<Ingested, String> {
    let v = parse_report(text, "cedar-bench-compare/1")?;
    let mut metrics = BTreeMap::new();
    put(&mut metrics, "cache.cold_ms", num(&v, "cold_ms"));
    put(&mut metrics, "cache.warm_ms", num(&v, "warm_ms"));
    put(&mut metrics, "cache.warm_speedup", num(&v, "warm_speedup"));
    if metrics.is_empty() {
        return Err("compare report contains no ingestible metrics".to_owned());
    }
    Ok(Ingested {
        source: "compare",
        mode: v
            .get("mode")
            .and_then(Json::as_str)
            .unwrap_or("full")
            .to_owned(),
        metrics,
    })
}

/// Combines one or more ingested reports into a single stamped history
/// entry. The entry's mode is the first report's; a mode clash among
/// the reports is an error (smoke and full numbers must never share a
/// gating scope).
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
    // `compare` reports inherit whatever mode the benchmark runs had;
    // only benchmark-bearing sources participate in the clash check.
    let bench: Vec<&Ingested> = reports.iter().filter(|r| r.source != "compare").collect();
    let mode = bench
        .first()
        .map_or_else(|| first.mode.clone(), |r| r.mode.clone());
    for r in &bench {
        if r.mode != mode {
            return Err(format!(
                "mode clash: {} report is {mode:?} but {} report is {:?}",
                bench[0].source, r.source, r.mode
            ));
        }
    }
    let mut metrics = BTreeMap::new();
    let mut sources = Vec::new();
    for r in reports {
        sources.push(r.source.to_owned());
        for (k, v) in &r.metrics {
            metrics.insert(k.clone(), *v);
        }
    }
    Ok(HistoryEntry {
        schema: SCHEMA.to_owned(),
        commit,
        timestamp,
        host,
        mode,
        sources,
        metrics,
        notes,
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
  "peak_rss_kb": 9512,
  "reference_runs": [
    {"name": "table2_rk_prefetch", "engine": "specialized", "wall_ms": 45.875, "sim_cycles": 16949, "sim_cycles_per_sec": 369452},
    {"name": "table2_rk_prefetch_generic", "engine": "generic", "wall_ms": 210.1, "sim_cycles": 16949, "sim_cycles_per_sec": 80671},
    {"name": "hotspot_sweep", "engine": "n/a", "wall_ms": 138.794, "sim_cycles": null, "sim_cycles_per_sec": null}
  ],
  "engine_speedup": 4.580,
  "sweep_suite": {"name": "hotspot_sweep", "serial_ms": 133.5, "serial_threads": 1, "parallel_ms": 138.8, "threads": 4, "cores": 4, "speedup": 0.962}
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
        assert_eq!(ing.metrics["perf.engine_speedup"], 4.58);
        assert_eq!(ing.metrics["perf.sweep.cores"], 4.0);
        assert_eq!(ing.metrics["perf.sweep.speedup"], 0.962);
        assert_eq!(ing.metrics["perf.peak_rss_kb"], 9512.0);
        // A null rate must simply be absent, not zero.
        assert!(!ing
            .metrics
            .contains_key("perf.hotspot_sweep.sim_cycles_per_sec"));
        assert!(ing.metrics.contains_key("perf.hotspot_sweep.wall_ms"));
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
    fn cluster_and_compare_reports_ingest() {
        let cluster = r#"{"schema":"cedar-bench-cluster/1","mode":"chaos","workers":4,"points":32,"wall_ms":900.5,"points_per_sec":35.5,"worker_exits":2,"hangs_reaped":1,"garbage_frames":1,"restarts":3,"reissues":5,"stale_results":0,"cache_hits":0,"obs":{"cluster.jobs.committed":32}}"#;
        let ing = cluster_report(cluster).unwrap();
        assert_eq!(ing.metrics["cluster.points_per_sec"], 35.5);
        assert_eq!(ing.metrics["cluster.obs.cluster.jobs.committed"], 32.0);

        let compare = r#"{"schema":"cedar-bench-compare/1","mode":"smoke","cold_ms":500.0,"warm_ms":1.2,"warm_speedup":416.6}"#;
        let ing = compare_report(compare).unwrap();
        assert_eq!(ing.metrics["cache.warm_speedup"], 416.6);
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
        let gates = crate::gate::default_gates(10.0);
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

        let mut smoke = perf.clone();
        smoke.mode = "smoke".to_owned();
        smoke.source = "serve";
        assert!(build_entry(&[perf, smoke], "sha".to_owned(), "t".to_owned(), host, None).is_err());
    }
}
