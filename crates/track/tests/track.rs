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

fn entry(commit: &str, cycles_per_sec: f64) -> HistoryEntry {
    // The synthetic history claims to come from *this* machine so the
    // gate's same-host scope actually compares the entries.
    let host = cedar_track::meta::host_fingerprint();
    let mut metrics = BTreeMap::new();
    metrics.insert(
        "perf.table2_rk_prefetch.sim_cycles_per_sec".to_owned(),
        cycles_per_sec,
    );
    metrics.insert("perf.sweep.speedup".to_owned(), 2.5);
    HistoryEntry {
        schema: SCHEMA.to_owned(),
        commit: commit.to_owned(),
        timestamp: "2026-08-08T00:00:00Z".to_owned(),
        host,
        mode: "full".to_owned(),
        sources: vec!["perf".to_owned()],
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

/// The ISSUE acceptance test: a synthetic >10% sim-cycles/sec
/// regression in a temp history must fail `track check` with a nonzero
/// exit and a message naming the metric.
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
            // 20% below the 90_500 median: well past the 10% gate.
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
        all.contains("perf.table2_rk_prefetch.sim_cycles_per_sec"),
        "failure must name the regressed metric: {all}"
    );
    assert!(all.contains("REGRESSION"), "{all}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The flip side: the same history without the bad commit passes, and
/// a drop exactly at the threshold also passes.
#[test]
fn healthy_and_exactly_at_threshold_histories_pass() {
    let dir = temp_dir("healthy");
    let history = dir.join("history.jsonl");
    write_history(
        &history,
        &[
            entry("base1", 90_000.0),
            entry("base2", 90_000.0),
            entry("base3", 90_000.0),
            entry("steady", 89_000.0),
        ],
    );
    let out = track_bin()
        .args(["check", "--history"])
        .arg(&history)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "1.1% drop must pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Exactly 10% below a median of 90_000 is the boundary: passes.
    write_history(
        &history,
        &[
            entry("base1", 90_000.0),
            entry("base2", 90_000.0),
            entry("base3", 90_000.0),
            entry("boundary", 81_000.0),
        ],
    );
    let out = track_bin()
        .args(["check", "--history"])
        .arg(&history)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "exactly-at-threshold must pass: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
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
