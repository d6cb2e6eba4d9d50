//! The cedar-serve server binary.
//!
//! ```text
//! serve [--addr HOST:PORT] [--queue N] [--workers N] [--batch N]
//!       [--reactors N] [--cache DIR] [--port-file PATH]
//!       [--line-timeout-ms N] [--write-timeout-ms N]
//! ```
//!
//! `--workers` sets the job worker threads; `--batch` the most queued
//! tickets one worker takes at a time (default 1, so a burst spreads
//! across the workers). Runs until a client sends the `shutdown` op;
//! exits 0 after a clean drain. `--port-file` writes the bound address (one line) once the
//! listener is up, so harnesses using an ephemeral port can find it.

use std::path::PathBuf;
use std::process::ExitCode;

use cedar_serve::config::ServeConfig;

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--queue N] [--workers N] [--batch N] \
         [--reactors N] [--cache DIR] [--port-file PATH] [--line-timeout-ms N] \
         [--write-timeout-ms N]"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut cfg = ServeConfig::default();
    let mut port_file: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => cfg.addr = value(),
            "--queue" => cfg.queue_capacity = value().parse().unwrap_or_else(|_| usage()),
            "--workers" => cfg.workers = value().parse().unwrap_or_else(|_| usage()),
            "--batch" => cfg.batch_max = value().parse().unwrap_or_else(|_| usage()),
            "--reactors" => cfg.reactor_threads = value().parse().unwrap_or_else(|_| usage()),
            "--cache" => cfg.cache_dir = Some(PathBuf::from(value())),
            "--port-file" => port_file = Some(PathBuf::from(value())),
            "--line-timeout-ms" => {
                cfg.line_timeout =
                    std::time::Duration::from_millis(value().parse().unwrap_or_else(|_| usage()));
            }
            "--write-timeout-ms" => {
                cfg.write_timeout =
                    std::time::Duration::from_millis(value().parse().unwrap_or_else(|_| usage()));
            }
            _ => usage(),
        }
    }
    let handle = match cedar_serve::server::start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("serve: listening on {}", handle.addr());
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{}\n", handle.addr())) {
            eprintln!("serve: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    // Blocks until a shutdown op completes the drain and stops the
    // accept loop; joining the threads IS the clean exit.
    handle.join();
    eprintln!("serve: drained, exiting");
    ExitCode::SUCCESS
}
