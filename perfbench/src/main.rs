//! `cedar-perfbench`: the repository benchmark.
//!
//! ```text
//! cedar-perfbench --workload <table2|degraded|serve> --seed N --seconds S --trace <0|1>
//!                 [--out DIR] [--commit SHA] [--source-digest HEX]
//! ```
//!
//! With `--trace 0` it measures the workload's end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics, prints the layer
//! table and writes the spans to `DIR`. Either way it checks every
//! output and ends with one JSON result line. `perfbench/NOTES.md`
//! describes the workloads and metrics.

mod gen;
mod layers;
mod report;
mod serve;
mod stats;
mod sweep;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime};

use report::{Report, END_TO_END, PER_LAYER};
use sweep::Sweep;

/// The seed whose sweep outcomes are pinned by a committed digest.
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per timed run. They are spread evenly through the run,
/// between stretches of the window and off its clock: this host class
/// runs in speed regimes that last seconds (the same set-up took
/// 140 ms, 205 ms or 250 ms depending on when it ran), so set-ups
/// made back to back all land in one regime while the rates, taken
/// over the whole window, see them all. `setup_s` is the fastest of
/// them, for the reason the rates are best stretches
/// ([`stats::best`]): across three sets of ten runs its median moved
/// by at most 18% on every workload, where the plain median of the
/// tries moved by up to 45%.
pub const SETUP_REPEATS: usize = 20;

/// The set-up times of one timed run.
#[derive(Debug, Default)]
pub struct SetUps {
    secs: Vec<f64>,
}

impl SetUps {
    /// Whether the next try is due, `progress` (0..1) into the window.
    #[must_use]
    pub fn due(&self, progress: f64) -> bool {
        let k = self.secs.len();
        k < SETUP_REPEATS && k as f64 <= progress * SETUP_REPEATS as f64
    }

    /// Whether every try has run.
    #[must_use]
    pub fn done(&self) -> bool {
        self.secs.len() >= SETUP_REPEATS
    }

    /// Runs one set-up try and records its wall time.
    pub fn time<T>(&mut self, set_up: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = set_up();
        self.secs.push(start.elapsed().as_secs_f64());
        out
    }

    /// Adds `setup_s` (the fastest try), the plain median and every
    /// try's time.
    pub fn report(&self, report: &mut Report) {
        let fastest = self.secs.iter().copied().fold(f64::INFINITY, f64::min);
        report.metric("setup_s", fastest);
        report.extra("setup_median_s", "s", stats::median(&self.secs));
        let ms: Vec<String> = self
            .secs
            .iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect();
        report
            .notes
            .push(format!("set-up ms, in run order: {}", ms.join(" ")));
    }
}

/// Environment variables that change what the program runs.
const REFUSED_ENV: [&str; 2] = ["CEDAR_ENGINE", "CEDAR_THREADS"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    pub commit: String,
    pub source_digest: String,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            out: PathBuf::from(".bench_build/perfbench-run"),
            commit: "unknown".to_owned(),
            source_digest: "unknown".to_owned(),
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .clone();
            let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                        .ok_or_else(|| bad("seconds in (0, 600]"))?;
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--out" => args.out = PathBuf::from(value),
                "--commit" => args.commit = value,
                "--source-digest" => args.source_digest = value,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !["table2", "degraded", "serve"].contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be table2, degraded or serve, got {:?}",
                args.workload
            ));
        }
        Ok(args)
    }

    /// The timed window.
    #[must_use]
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Writes the traced run's spans next to the other run outputs.
pub fn write_spans(args: &Args, tracer: &trace::Tracer, report: &mut Report) {
    let path = args
        .out
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.notes.push(format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => report.fail(format!("writing {}: {e}", path.display())),
    }
}

/// Removes run directories that earlier, killed runs left behind. Only
/// ones untouched for ten minutes go: no run lasts that long, so a
/// concurrent run's directory is never one of them.
fn sweep_stale_runs(out: &Path) {
    let Ok(entries) = std::fs::read_dir(out) else {
        return;
    };
    let stale = Duration::from_secs(600);
    for entry in entries.flatten() {
        let old = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| SystemTime::now().duration_since(t).ok())
            .is_some_and(|age| age > stale);
        if old && entry.file_name().to_string_lossy().starts_with("run-") {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cedar-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for var in REFUSED_ENV {
        if let Ok(v) = std::env::var(var) {
            eprintln!(
                "cedar-perfbench: refusing to run with {var}={v} set: the benchmark pins engines and \
                 thread counts itself"
            );
            return ExitCode::from(2);
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let run_dir = args
        .out
        .join(format!("run-{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("cedar-perfbench: creating {}: {e}", run_dir.display());
        return ExitCode::from(1);
    }
    sweep_stale_runs(&args.out);

    let report = match (args.workload.as_str(), args.trace) {
        ("table2", false) => sweep::run(Sweep::Table2, &args, nproc),
        ("table2", true) => sweep::run_traced(Sweep::Table2, &args, nproc),
        ("degraded", false) => sweep::run(Sweep::Degraded, &args, nproc),
        ("degraded", true) => sweep::run_traced(Sweep::Degraded, &args, nproc),
        ("serve", false) => serve::run(&args, nproc, &run_dir),
        (_, _) => serve::run_traced(&args, nproc, &run_dir),
    };
    // Deleting the cache directories happens only now, after every
    // timed and set-up window.
    let _ = std::fs::remove_dir_all(&run_dir);

    println!(
        "# cedar-perfbench workload={} seed={} seconds={} trace={} nproc={nproc} commit={} \
         source_digest={} setup_repeats={SETUP_REPEATS}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.commit,
        args.source_digest
    );
    for note in &report.notes {
        println!("# {}", note.trim_end().replace('\n', "\n# "));
    }
    for m in report.metrics.iter().chain(report.extra.iter()) {
        println!("# {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "# {:<28} {failed_frac:>16.4} failed/attempted ({} of {})",
        "failed_frac", report.failed, report.attempted
    );
    for f in &report.failures {
        println!("# FAILED: {f}");
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match report.result_line(expected) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cedar-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
