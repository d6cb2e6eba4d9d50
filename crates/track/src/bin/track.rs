//! `track` — the cedar-track command line, and the only writer of the
//! benchmark history.
//!
//! ```text
//! track append --history bench/history.jsonl --perf BENCH_perf.json \
//!              [--serve BENCH_serve.json] [--cluster BENCH_cluster.json] \
//!              [--zoo BENCH_zoo.json] [--notes TEXT]
//! track append --history bench/history.jsonl --perfbench RUN.txt... [--notes TEXT]
//! track check  --history bench/history.jsonl [--any-host]
//! track render --history bench/history.jsonl --out bench/dashboard.html [--any-host]
//! ```
//!
//! `append` ingests one or more benchmark reports, stamps them with
//! the git commit / timestamp / host fingerprint (overridable via
//! `CEDAR_TRACK_COMMIT` and `CEDAR_TRACK_TIMESTAMP`), and appends one
//! history line. `--perfbench` takes the captured stdout of one or more
//! `python3 perfbench/run.py` runs of one workload at one commit and
//! records each metric's median over them. `check` gates the newest
//! entry against the spread of comparable history and exits 1 on any
//! regression, naming the metric. `render` writes the standalone HTML
//! dashboard (with the gate verdict embedded as a callout).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cedar_track::gate::{check, default_gates};
use cedar_track::history::{append, load, HistoryEntry};
use cedar_track::ingest::{
    build_entry, cluster_report, perf_report, perfbench_runs, serve_report, zoo_report, Ingested,
};
use cedar_track::meta;
use cedar_track::render::render_dashboard;

const USAGE: &str = "usage:
  track append --history FILE (--perf FILE | --serve FILE | --cluster FILE | --zoo FILE)... [--notes TEXT]
  track append --history FILE --perfbench FILE... [--notes TEXT]
  track check  --history FILE [--any-host]
  track render --history FILE --out FILE [--any-host]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "append" => cmd_append(&args[1..]),
        "check" => cmd_check(&args[1..]),
        "render" => cmd_render(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("track: {e}");
            ExitCode::from(2)
        }
    }
}

/// Shared flag state for all subcommands.
struct Flags {
    history: Option<PathBuf>,
    out: Option<PathBuf>,
    perf: Vec<PathBuf>,
    serve: Vec<PathBuf>,
    cluster: Vec<PathBuf>,
    zoo: Vec<PathBuf>,
    perfbench: Vec<PathBuf>,
    notes: Option<String>,
    any_host: bool,
}

/// The flags each subcommand accepts; any other is an error.
const APPEND_FLAGS: &[&str] = &[
    "--history",
    "--perf",
    "--serve",
    "--cluster",
    "--zoo",
    "--perfbench",
    "--notes",
];
const CHECK_FLAGS: &[&str] = &["--history", "--any-host"];
const RENDER_FLAGS: &[&str] = &["--history", "--out", "--any-host"];

fn parse_flags(args: &[String], accepted: &[&str]) -> Result<Flags, String> {
    let mut f = Flags {
        history: None,
        out: None,
        perf: Vec::new(),
        serve: Vec::new(),
        cluster: Vec::new(),
        zoo: Vec::new(),
        perfbench: Vec::new(),
        notes: None,
        any_host: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if !accepted.contains(&arg.as_str()) {
            return Err(format!("unknown flag {arg:?}\n{USAGE}"));
        }
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--history" => f.history = Some(PathBuf::from(value("--history")?)),
            "--out" => f.out = Some(PathBuf::from(value("--out")?)),
            "--perf" => f.perf.push(PathBuf::from(value("--perf")?)),
            "--serve" => f.serve.push(PathBuf::from(value("--serve")?)),
            "--cluster" => f.cluster.push(PathBuf::from(value("--cluster")?)),
            "--zoo" => f.zoo.push(PathBuf::from(value("--zoo")?)),
            "--perfbench" => {
                f.perfbench.push(PathBuf::from(value("--perfbench")?));
                while let Some(more) = it.next_if(|a| !a.starts_with("--")) {
                    f.perfbench.push(PathBuf::from(more));
                }
            }
            "--notes" => f.notes = Some(value("--notes")?),
            "--any-host" => f.any_host = true,
            _ => unreachable!("every accepted flag is handled"),
        }
    }
    Ok(f)
}

fn require_history(f: &Flags) -> Result<PathBuf, String> {
    f.history
        .clone()
        .ok_or_else(|| "--history is required".to_owned())
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

fn cmd_append(args: &[String]) -> Result<ExitCode, String> {
    let f = parse_flags(args, APPEND_FLAGS)?;
    let history = require_history(&f)?;
    let mut reports: Vec<Ingested> = Vec::new();
    type IngestFn = fn(&str) -> Result<Ingested, String>;
    let groups: [(&[PathBuf], IngestFn); 4] = [
        (&f.perf, perf_report),
        (&f.serve, serve_report),
        (&f.cluster, cluster_report),
        (&f.zoo, zoo_report),
    ];
    for (paths, ingest) in groups {
        for path in paths {
            reports.push(ingest(&read(path)?).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    if !f.perfbench.is_empty() {
        let runs = f
            .perfbench
            .iter()
            .map(|p| Ok((p.display().to_string(), read(p)?)))
            .collect::<Result<Vec<_>, String>>()?;
        reports.push(perfbench_runs(&runs)?);
    }
    if reports.is_empty() {
        return Err(
            "append needs at least one report (--perf/--serve/--cluster/--zoo/--perfbench)"
                .to_owned(),
        );
    }
    let entry = build_entry(
        &reports,
        meta::commit_id(),
        meta::timestamp(),
        meta::host_fingerprint(),
        f.notes,
    )?;
    append(&history, &entry).map_err(|e| format!("append {}: {e}", history.display()))?;
    println!(
        "appended commit {} ({} metrics, mode {}, sources {:?}) to {}",
        entry.commit,
        entry.metrics.len(),
        entry.mode,
        entry.sources,
        history.display()
    );
    Ok(ExitCode::SUCCESS)
}

fn load_history(path: &Path) -> Result<Vec<HistoryEntry>, String> {
    let (entries, warnings) = load(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    for w in &warnings {
        eprintln!("track: warning: {w}");
    }
    Ok(entries)
}

fn run_gate(f: &Flags, entries: &[HistoryEntry]) -> Result<cedar_track::GateReport, String> {
    check(entries, &default_gates(), !f.any_host)
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let f = parse_flags(args, CHECK_FLAGS)?;
    let history = require_history(&f)?;
    let entries = load_history(&history)?;
    let report = run_gate(&f, &entries)?;
    println!(
        "gating commit {} (mode {}, {} gates ran, {} unresolved, {} skipped)",
        report.commit,
        report.mode,
        report.outcomes.len(),
        report.unresolved.len(),
        report.skipped.len()
    );
    for o in report.worst_first() {
        println!("  {}", o.describe());
    }
    for u in &report.unresolved {
        println!("  unresolved {u}");
    }
    for s in &report.skipped {
        println!("  skip {s}");
    }
    let regressions = report.regressions();
    if regressions > 0 {
        eprintln!("track: {regressions} regression(s) beyond the band — failing");
        return Ok(ExitCode::FAILURE);
    }
    println!("gate passed");
    Ok(ExitCode::SUCCESS)
}

fn cmd_render(args: &[String]) -> Result<ExitCode, String> {
    let f = parse_flags(args, RENDER_FLAGS)?;
    let history = require_history(&f)?;
    let out = f
        .out
        .clone()
        .ok_or_else(|| "render needs --out".to_owned())?;
    let entries = load_history(&history)?;
    // The gate verdict is decorative here: render never fails the
    // build, it just shows the callout. An empty history renders an
    // empty dashboard.
    let gate = if entries.is_empty() {
        None
    } else {
        run_gate(&f, &entries).ok()
    };
    let html = render_dashboard(&entries, gate.as_ref())?;
    if let Some(parent) = out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(&out, &html).map_err(|e| format!("write {}: {e}", out.display()))?;
    println!(
        "rendered {} entries to {} ({} bytes)",
        entries.len(),
        out.display(),
        html.len()
    );
    Ok(ExitCode::SUCCESS)
}
