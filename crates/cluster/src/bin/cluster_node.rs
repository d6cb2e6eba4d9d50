//! Cluster harness binary: worker, and crash-test helper modes.
//!
//! * **Worker mode** — when `CEDAR_CLUSTER_WORKER` is set (the
//!   coordinator sets it on spawn), runs the coordinator's `JobSpec`
//!   jobs and never returns.
//! * **`writer <dir> <key>`** — writes the same snapshot entry through
//!   [`cedar_snap::write_atomic`] in a tight loop forever. The
//!   atomicity integration test SIGKILLs this process at random points
//!   and asserts a concurrent reader never observes a partial entry.

use cedar_snap::{CacheDir, Snapshot};

/// The value the `writer` mode stores, over and over. The reader side
/// of the crash test reconstructs it independently and accepts only
/// this exact value (or a clean miss).
fn writer_payload() -> Vec<u64> {
    (0..8192).map(|i: u64| i.wrapping_mul(0xCEDA)).collect()
}

fn writer_mode(dir: &str, key: &str) -> ! {
    let cache = match CacheDir::new(dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cluster_node writer: cannot open {dir}: {e}");
            std::process::exit(2);
        }
    };
    let bytes = writer_payload().to_snapshot_bytes();
    loop {
        // Ignore errors: the parent kills this process mid-write on
        // purpose, and a failed write must not stop the next attempt.
        let _ = cache.store_bytes(key, &bytes);
    }
}

fn main() {
    cedar_cluster::maybe_worker();

    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("writer") if args.len() == 4 => writer_mode(&args[2], &args[3]),
        _ => {
            eprintln!(
                "cluster_node: worker harness for cedar-cluster\n\
                 usage:\n\
                 \x20 CEDAR_CLUSTER_WORKER=<addr> cluster_node   (worker mode)\n\
                 \x20 cluster_node writer <dir> <key>            (crash-test writer)"
            );
            std::process::exit(2);
        }
    }
}
