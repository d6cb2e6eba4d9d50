//! The machine zoo report: every machine × every workload, judged by
//! all five Practical Parallelism Tests.
//!
//! ```text
//! zoo [--smoke] [--out PATH] [--cache DIR] [--cells-out PATH]
//! ```
//!
//! Runs the full zoo sweep — 8 machines × 4 workloads as a cached
//! parallel `cedar-exec` sweep — prints the cross-machine PPT matrix,
//! and writes `BENCH_zoo.json` (`cedar-bench-zoo/1`). `--smoke`
//! shrinks the simulated workloads to CI size; `--cache DIR` serves
//! warm cells from the content-addressed cache; `--cells-out PATH`
//! dumps the raw cell snapshots so CI can `cmp` a warm run against a
//! cold one byte for byte. `track append --zoo PATH` adds the report
//! to the benchmark history.
//!
//! Every judged number is deterministic; only the timing fields
//! (`wall_ms`, `points_per_sec`) vary run to run.

use std::fmt::Write as _;
use std::time::Instant;

use cedar_snap::{CacheDir, Snapshot};
use cedar_zoo::judge::MachineVerdict;
use cedar_zoo::{cell, judge};

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_zoo.json");
    let mut cache_dir: Option<String> = None;
    let mut cells_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out requires a path"),
            "--cache" => cache_dir = Some(args.next().expect("--cache requires a directory")),
            "--cells-out" => cells_out = Some(args.next().expect("--cells-out requires a path")),
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: zoo [--smoke] [--out PATH] [--cache DIR] [--cells-out PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    let cache = cache_dir.map(|dir| CacheDir::new(dir).expect("open cache dir"));
    let threads = cedar_exec::threads();

    let started = Instant::now();
    let cells = cell::run_cached(cache.as_ref(), smoke);
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
    let points_per_sec = cells.len() as f64 / (wall_ms / 1000.0);

    if let Some(path) = &cells_out {
        let mut bytes = Vec::new();
        for c in &cells {
            bytes.extend(c.to_snapshot_bytes());
        }
        std::fs::write(path, &bytes).expect("write cell snapshots");
    }

    let verdicts = judge::judge(&cells, smoke);
    let gain = judge::combining_gain(&verdicts);
    // The acceptance criterion the combining machine exists to meet:
    // on hot traffic, fetch-and-add combining must beat the plain
    // omega it is built from.
    assert!(
        gain > 1.0,
        "combining network failed to beat the plain omega on the hotspot ({gain:.2}x)"
    );

    let json = render_json(
        smoke,
        &cedar_track::meta::commit_id(),
        &cedar_track::meta::timestamp(),
        threads,
        cells.len(),
        wall_ms,
        points_per_sec,
        gain,
        &verdicts,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_zoo.json");

    println!(
        "machine zoo ({} mode, {threads} threads): {} cells in {wall_ms:.1} ms\n",
        if smoke { "smoke" } else { "full" },
        cells.len()
    );
    print!("{}", judge::render_report(&verdicts));
    println!("wrote {out_path}");
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    smoke: bool,
    commit: &str,
    timestamp: &str,
    threads: usize,
    cells: usize,
    wall_ms: f64,
    points_per_sec: f64,
    combining_gain: f64,
    verdicts: &[MachineVerdict],
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"cedar-bench-zoo/1\",");
    let _ = writeln!(
        out,
        "  \"commit\": \"{}\",",
        cedar_obs::export::escape_json(commit)
    );
    let _ = writeln!(out, "  \"timestamp\": \"{timestamp}\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"cells\": {cells},");
    let _ = writeln!(out, "  \"wall_ms\": {wall_ms:.3},");
    let _ = writeln!(out, "  \"points_per_sec\": {points_per_sec:.3},");
    let _ = writeln!(out, "  \"combining_gain\": {combining_gain:.4},");
    let _ = writeln!(out, "  \"machines\": [");
    for (i, v) in verdicts.iter().enumerate() {
        let comma = if i + 1 < verdicts.len() { "," } else { "" };
        let s = &v.summary;
        let b = |p: bool| u8::from(p);
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"processors\": {}, \"ppt1\": {}, \"ppt2\": {}, \"ppt3\": {}, \"ppt4\": {}, \"ppt5\": {}, \"passed\": {}, \"efficiency_score\": {:.4}, \"instability\": {:.3}, \"ppt5_score\": {:.4}, \"hotspot_retention\": {:.4}, \"words_combined\": {:.0}}}{}",
            v.machine.name(),
            v.machine.processors(),
            b(s.ppt1.passes),
            b(s.ppt2.passes),
            b(s.ppt3.passes),
            b(!s.ppt4.any_unacceptable && s.ppt4.size_stable),
            b(s.ppt5.passes),
            s.passed(),
            s.efficiency_score(),
            s.ppt2.report.instability,
            s.ppt5.score,
            v.hotspot_retention(),
            v.words_combined.iter().sum::<f64>(),
            comma
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}
