//! End-to-end tests for the `track` binary and the history pipeline:
//! report → append → gate → dashboard, exercised through the real CLI.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use cedar_track::history::{parse_history, HistoryEntry, SCHEMA};

fn track_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_track"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cedar-track-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The gated metric the synthetic histories carry.
const METRIC: &str = "perfbench.table2.sim_cycles_per_s";

/// A short `table2` benchmark run's captured stdout.
const PERFBENCH: &str = include_str!("fixtures/perfbench_table2.txt");

fn entry(commit: &str, cycles_per_sec: f64) -> HistoryEntry {
    // The synthetic history claims to come from *this* machine so the
    // gate's same-host scope actually compares the entries.
    let host = cedar_track::meta::host_fingerprint();
    let mut metrics = BTreeMap::new();
    metrics.insert(METRIC.to_owned(), cycles_per_sec);
    metrics.insert("perf.sweep.speedup".to_owned(), 2.5);
    HistoryEntry {
        schema: SCHEMA.to_owned(),
        commit: commit.to_owned(),
        timestamp: "2026-08-08T00:00:00Z".to_owned(),
        host,
        mode: "perfbench".to_owned(),
        sources: vec!["perfbench".to_owned()],
        metrics,
        notes: None,
    }
}

fn write_history(path: &Path, entries: &[HistoryEntry]) {
    let mut text = String::new();
    for e in entries {
        text.push_str(&e.render_line());
        text.push('\n');
    }
    std::fs::write(path, text).unwrap();
}

/// A synthetic sim-cycles/sec drop beyond the history's own spread must
/// fail `track check` with a nonzero exit and a message naming the
/// metric.
#[test]
fn synthetic_regression_fails_check_naming_the_metric() {
    let dir = temp_dir("regress");
    let history = dir.join("history.jsonl");
    write_history(
        &history,
        &[
            entry("base1", 90_000.0),
            entry("base2", 91_000.0),
            entry("base3", 90_500.0),
            // 20% below the 90_500 median: far past the 1_000 band.
            entry("regressed", 72_400.0),
        ],
    );
    let out = track_bin()
        .args(["check", "--history"])
        .arg(&history)
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "check must fail on a 20% regression: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let all = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        all.contains(METRIC),
        "failure must name the regressed metric: {all}"
    );
    assert!(all.contains("REGRESSION"), "{all}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `track check` on `entries` and returns (passed, stdout).
fn check_history(tag: &str, entries: &[HistoryEntry]) -> (bool, String) {
    let dir = temp_dir(tag);
    let history = dir.join("history.jsonl");
    write_history(&history, entries);
    let out = track_bin()
        .args(["check", "--history"])
        .arg(&history)
        .output()
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.success(),
        format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        ),
    )
}

/// The flip side: a drop inside the history's spread passes, and a
/// drop exactly at the band (max − min of the window) also passes.
#[test]
fn healthy_and_exactly_at_threshold_histories_pass() {
    // Median 90_000, band 91_000 - 89_000 = 2_000.
    let base = [
        entry("base1", 89_000.0),
        entry("base2", 90_000.0),
        entry("base3", 91_000.0),
    ];
    let (ok, out) = check_history(
        "healthy",
        &[&base[..], &[entry("steady", 89_500.0)]].concat(),
    );
    assert!(ok, "a drop inside the band must pass: {out}");
    assert!(out.contains(&format!("ok {METRIC}")), "{out}");

    let (ok, out) = check_history(
        "boundary",
        &[&base[..], &[entry("edge", 88_000.0)]].concat(),
    );
    assert!(ok, "exactly-at-band must pass: {out}");

    let (ok, out) = check_history("beyond", &[&base[..], &[entry("over", 87_999.0)]].concat());
    assert!(!ok, "beyond the band must fail: {out}");
    assert!(out.contains(&format!("REGRESSION {METRIC}")), "{out}");
}

/// With fewer than three comparable values there is no spread to judge
/// by: the gate reports the metric unresolved, never ok, and does not
/// fail the check even on a collapse.
#[test]
fn unresolved_below_three_samples_never_fails_nor_passes() {
    let (ok, out) = check_history(
        "unresolved",
        &[entry("a", 90_000.0), entry("b", 90_000.0), entry("c", 10.0)],
    );
    assert!(ok, "{out}");
    assert!(
        out.contains(&format!("unresolved {METRIC}: 2 of 3")),
        "{out}"
    );
    assert!(!out.contains(&format!("ok {METRIC}")), "{out}");
}

/// `track append` ingests a perf report, stamps it with the overridden
/// commit/timestamp, and the result parses back losslessly.
#[test]
fn append_stamps_and_round_trips() {
    let dir = temp_dir("append");
    let history = dir.join("bench").join("history.jsonl");
    let report = dir.join("BENCH_perf.json");
    std::fs::write(
        &report,
        r#"{
  "schema": "cedar-bench-perf/4",
  "smoke": true,
  "threads": 4,
  "peak_rss_kb": 9000,
  "reference_runs": [
    {"name": "table2_rk_prefetch", "wall_ms": 10.0, "sim_cycles": 1000, "sim_cycles_per_sec": 100000}
  ],
  "sweep_suite": {"serial_ms": 100.0, "parallel_ms": 40.0, "threads": 4, "speedup": 2.5}
}"#,
    )
    .unwrap();
    let out = track_bin()
        .args(["append", "--history"])
        .arg(&history)
        .args(["--perf"])
        .arg(&report)
        .args(["--notes", "e2e smoke"])
        .env("CEDAR_TRACK_COMMIT", "feedc0de")
        .env("CEDAR_TRACK_TIMESTAMP", "2026-08-08T12:00:00Z")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "append failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&history).unwrap();
    let (entries, warnings) = parse_history(&text);
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(entries.len(), 1);
    let e = &entries[0];
    assert_eq!(e.commit, "feedc0de");
    assert_eq!(e.timestamp, "2026-08-08T12:00:00Z");
    assert_eq!(e.mode, "smoke");
    assert_eq!(e.sources, vec!["perf"]);
    assert_eq!(
        e.metrics["perf.table2_rk_prefetch.sim_cycles_per_sec"],
        100_000.0
    );
    assert_eq!(e.notes.as_deref(), Some("e2e smoke"));

    // A second append adds a line without touching the first.
    let out = track_bin()
        .args(["append", "--history"])
        .arg(&history)
        .args(["--perf"])
        .arg(&report)
        .env("CEDAR_TRACK_COMMIT", "feedc0df")
        .env("CEDAR_TRACK_TIMESTAMP", "2026-08-08T13:00:00Z")
        .output()
        .unwrap();
    assert!(out.status.success());
    let text2 = std::fs::read_to_string(&history).unwrap();
    assert!(text2.starts_with(&text), "append must be strictly additive");
    assert_eq!(parse_history(&text2).0.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `track append --history HISTORY ARGS...` with a pinned stamp.
fn append_to(history: &Path, args: &[&dyn AsRef<std::ffi::OsStr>]) -> std::process::Output {
    track_bin()
        .args(["append", "--history"])
        .arg(history)
        .args(args.iter().map(|a| a.as_ref()))
        .env("CEDAR_TRACK_COMMIT", "feedc0de")
        .env("CEDAR_TRACK_TIMESTAMP", "2026-08-08T12:00:00Z")
        .output()
        .unwrap()
}

/// `append --zoo` reaches the zoo ingester and `append --perfbench`
/// records the median over captured benchmark runs; both parse back.
#[test]
fn append_zoo_and_perfbench_round_trip() {
    let dir = temp_dir("zoo-perfbench");
    let history = dir.join("history.jsonl");
    let zoo = dir.join("BENCH_zoo.json");
    std::fs::write(
        &zoo,
        r#"{"schema": "cedar-bench-zoo/1", "smoke": true, "cells": 32, "wall_ms": 800.0,
  "points_per_sec": 40.0, "combining_gain": 2.3,
  "machines": [{"name": "cedar", "passed": 3, "efficiency_score": 0.71}]}"#,
    )
    .unwrap();
    let out = append_to(&history, &[&"--zoo", &zoo]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let runs: Vec<PathBuf> = (0..3).map(|i| dir.join(format!("run{i}.txt"))).collect();
    for run in &runs {
        std::fs::write(run, PERFBENCH).unwrap();
    }
    // One flag takes every run that follows it.
    let out = append_to(&history, &[&"--perfbench", &runs[0], &runs[1], &runs[2]]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let (entries, warnings) = parse_history(&std::fs::read_to_string(&history).unwrap());
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].sources, vec!["zoo"]);
    assert_eq!(entries[0].mode, "smoke");
    assert_eq!(entries[0].metrics["zoo.cedar.efficiency_score"], 0.71);
    let bench = &entries[1];
    assert_eq!(bench.sources, vec!["perfbench"]);
    assert_eq!(bench.mode, "perfbench");
    assert_eq!(bench.commit, "feedc0de");
    assert_eq!(bench.metrics["perfbench.table2.reps"], 3.0);
    assert!(bench.metrics[METRIC] > 0.0);
    assert!(bench.metrics.contains_key("perfbench.table2.ops_per_s"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Refused inputs leave the history untouched: perfbench runs of two
/// workloads, an incorrect perfbench run, and a chaos run that broke
/// an invariant.
#[test]
fn append_refuses_mixed_incorrect_and_failed_reports() {
    let dir = temp_dir("refuse");
    let history = dir.join("history.jsonl");
    let table2 = dir.join("table2.txt");
    let degraded = dir.join("degraded.txt");
    let wrong = dir.join("wrong.txt");
    let chaos = dir.join("BENCH_cluster.json");
    std::fs::write(&table2, PERFBENCH).unwrap();
    std::fs::write(
        &degraded,
        PERFBENCH.replace("workload=table2", "workload=degraded"),
    )
    .unwrap();
    std::fs::write(
        &wrong,
        PERFBENCH.replace("\"correct\": true", "\"correct\": false"),
    )
    .unwrap();
    std::fs::write(
        &chaos,
        r#"{"schema":"cedar-bench-cluster/1","mode":"chaos","failures":1,"points_per_sec":35.5}"#,
    )
    .unwrap();
    let refusals: [(&[&dyn AsRef<std::ffi::OsStr>], &str); 3] = [
        (
            &[&"--perfbench", &table2, &"--perfbench", &degraded],
            "must not mix",
        ),
        (&[&"--perfbench", &wrong], "not correct"),
        (&[&"--cluster", &chaos], "invariant"),
    ];
    for (args, why) in refusals {
        let out = append_to(&history, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{why}: {err}");
        assert!(err.contains(why), "{err}");
    }
    assert!(!history.exists(), "a refused append must not write");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each subcommand accepts only its own flags: the removed threshold
/// knobs and report flags outside `append` are usage errors.
#[test]
fn subcommands_refuse_flags_they_do_not_take() {
    for args in [
        &["check", "--history", "h.jsonl", "--threshold-pct", "10"][..],
        &["check", "--history", "h.jsonl", "--window", "5"],
        &[
            "render",
            "--history",
            "h.jsonl",
            "--out",
            "d.html",
            "--perf",
            "p.json",
        ],
        &["append", "--history", "h.jsonl", "--compare", "c.json"],
        &["append", "--history", "h.jsonl", "--any-host"],
    ] {
        let out = track_bin().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("unknown flag"), "{args:?}: {err}");
    }
}

/// A corrupt line in the history warns but neither `check` nor
/// `render` crashes over it.
#[test]
fn corrupt_history_line_warns_but_does_not_crash() {
    let dir = temp_dir("corrupt");
    let history = dir.join("history.jsonl");
    let good = entry("good", 90_000.0).render_line();
    std::fs::write(
        &history,
        format!("{good}\n{{\"schema\":\"cedar-track/1\",\"commit\n{good}\n"),
    )
    .unwrap();
    let out = track_bin()
        .args(["check", "--history"])
        .arg(&history)
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("quarantined"), "{err}");

    let dash = dir.join("dash.html");
    let out = track_bin()
        .args(["render", "--history"])
        .arg(&history)
        .args(["--out"])
        .arg(&dash)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let html = std::fs::read_to_string(&dash).unwrap();
    assert!(html.contains("window.BENCHMARK_DATA"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The rendered dashboard embeds every history entry and references no
/// network resources.
#[test]
fn rendered_dashboard_is_standalone_and_complete() {
    let dir = temp_dir("render");
    let history = dir.join("history.jsonl");
    let commits = ["c0ffee01", "c0ffee02", "c0ffee03", "c0ffee04"];
    let entries: Vec<HistoryEntry> = commits
        .iter()
        .enumerate()
        .map(|(i, c)| entry(c, 90_000.0 + i as f64 * 100.0))
        .collect();
    write_history(&history, &entries);
    let dash = dir.join("dash.html");
    let out = track_bin()
        .args(["render", "--history"])
        .arg(&history)
        .args(["--out"])
        .arg(&dash)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let html = std::fs::read_to_string(&dash).unwrap();
    for c in commits {
        assert!(html.contains(c), "dashboard must embed entry {c}");
    }
    assert!(!html.contains("https://"), "no network fetches allowed");
    assert!(!html.contains("<link"), "no external stylesheets");
    assert!(!html.contains("<script src"), "no external scripts");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The repo's committed history must pass the default gate on any
/// machine: entries from other hosts are out of gating scope, and
/// entries from this host (if CI re-runs on an identical runner) must
/// genuinely be within threshold.
#[test]
fn committed_repo_history_passes_check() {
    let repo_history = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("bench")
        .join("history.jsonl");
    assert!(
        repo_history.exists(),
        "bench/history.jsonl must be committed"
    );
    let out = track_bin()
        .args(["check", "--history"])
        .arg(&repo_history)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "committed history must pass: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&repo_history).unwrap();
    let (entries, warnings) = parse_history(&text);
    assert!(!entries.is_empty(), "committed history must have entries");
    assert!(
        warnings.is_empty(),
        "committed history must be clean: {warnings:?}"
    );
}
