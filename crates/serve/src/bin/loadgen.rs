//! The cedar-serve load-generator binary.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--addr-file PATH] [--smoke]
//!         [--seed N] [--conns N] [--shutdown] [--out PATH]
//!         [--adversarial] [--line-timeout-ms N]
//! ```
//!
//! Drives the server through the dedup-burst, fault-mix, closed-loop,
//! open-loop and binary-protocol phases, asserts the serving
//! invariants (exactly-one execution per identical burst, no healthy
//! request lost to the fault mix, monotone saturation curve), and
//! writes the report to `--out`. `--conns N` caps the binary-protocol
//! connection sweep (default: 64 in smoke mode, 10000 in full mode)
//! (default `BENCH_serve.json`). Exits non-zero the moment any
//! invariant is violated. `track append --serve PATH` adds the report
//! to the benchmark history.

use std::path::PathBuf;
use std::process::ExitCode;

use cedar_serve::loadgen::{run, LoadgenConfig};

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--addr-file PATH] [--smoke] [--seed N] \
         [--conns N] [--shutdown] [--out PATH] [--adversarial] [--line-timeout-ms N]"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut cfg = LoadgenConfig::default();
    let mut out = PathBuf::from("BENCH_serve.json");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => cfg.addr = value(),
            "--addr-file" => {
                // The server writes this file once its listener is up;
                // wait for it so "serve & loadgen" needs no sleep.
                let path = value();
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                cfg.addr = loop {
                    match std::fs::read_to_string(&path) {
                        Ok(text) if !text.trim().is_empty() => break text.trim().to_owned(),
                        _ if std::time::Instant::now() < deadline => {
                            std::thread::sleep(std::time::Duration::from_millis(50));
                        }
                        Ok(_) => {
                            eprintln!("loadgen: {path} stayed empty");
                            return ExitCode::FAILURE;
                        }
                        Err(e) => {
                            eprintln!("loadgen: cannot read {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                };
            }
            "--smoke" => cfg.smoke = true,
            "--seed" => cfg.seed = value().parse().unwrap_or_else(|_| usage()),
            "--conns" => cfg.conns = value().parse().unwrap_or_else(|_| usage()),
            "--shutdown" => cfg.shutdown = true,
            "--adversarial" => cfg.adversarial = true,
            "--line-timeout-ms" => {
                cfg.line_timeout_ms = value().parse().unwrap_or_else(|_| usage())
            }
            "--out" => out = PathBuf::from(value()),
            _ => usage(),
        }
    }
    match run(&cfg) {
        Ok(report) => {
            let text = report.to_json();
            if let Err(e) = std::fs::write(&out, &text) {
                eprintln!("loadgen: cannot write {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
            eprintln!(
                "loadgen: {} mode — dedup {}x→{} exec, mix {} req ({} degraded), \
                 {} levels, binary peak {:.0} rps @ {} conns, report at {}",
                report.mode,
                report.dedup_burst,
                report.dedup_executed,
                report.mix_requests,
                report.mix_degraded,
                report.levels.len(),
                report.binary.peak_rps,
                report.conns,
                out.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loadgen: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
