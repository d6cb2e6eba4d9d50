//! Degraded-mode sweep: Table 2's latency/bandwidth columns under
//! deterministic fault injection. Run with
//! `cargo run --release -p cedar-bench --bin degraded -- [--cache DIR] [--resume DIR]`.
//!
//! `--cache DIR` serves already-measured `(rate, CEs)` grid points from
//! a content-addressed result cache and stores fresh ones; the entries
//! are the serving tier's, so a caching `serve` or a cluster sweep on
//! the same directory shares them. `--resume
//! DIR` runs each point through the auto-checkpointing runner: the
//! experiment checkpoints into DIR periodically and a killed
//! invocation picks up from its last checkpoint instead of restarting.
//! Output is byte-identical in every mode.

fn main() {
    let mut cache_dir: Option<String> = None;
    let mut resume_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cache" => cache_dir = Some(args.next().expect("--cache requires a directory")),
            "--resume" => resume_dir = Some(args.next().expect("--resume requires a directory")),
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: degraded [--cache DIR] [--resume DIR]"
                );
                std::process::exit(2);
            }
        }
    }
    let cache = cache_dir.map(|dir| cedar_snap::CacheDir::new(dir).expect("open cache dir"));

    if let Some(dir) = resume_dir {
        // Resumable mode runs the grid serially so each point owns one
        // stable checkpoint file named by its job key; if a point's
        // result is already cached, its checkpointed run is skipped
        // like any other hit.
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create resume dir");
        let points = cedar_exec::run_sweep_cached_on(
            1,
            cache.as_ref(),
            cedar_serve::job::CACHE_NAMESPACE,
            cedar_bench::degraded::specs(),
            |spec| {
                let ckpt = dir.join(format!("degraded-{}.ckpt", spec.key()));
                cedar_bench::degraded::run_resumable(&spec, &ckpt)
            },
        );
        print!("{}", cedar_bench::degraded::render(&points));
        eprintln!(
            "(resumable mode: {} points checkpointed into {})",
            points.len(),
            dir.display()
        );
    } else {
        print!("{}", cedar_bench::degraded::report_cached(cache.as_ref()));
    }
}
