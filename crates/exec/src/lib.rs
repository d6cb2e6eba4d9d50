//! `cedar-exec` — the deterministic parallel sweep executor.
//!
//! The paper's evaluation is sweeps: Table 2 load points, Figure 3
//! scatter points, fault-rate grids, hot-spot fractions, scale-up
//! machines. Every point is an independent `(config → result)`
//! simulation with its own seeded RNG, so the sweep is embarrassingly
//! parallel — as long as nothing about the execution order can leak
//! into the results. [`run_sweep`] fans the points out across a
//! work-stealing scoped-thread pool and commits the results **in
//! input order**, guaranteeing output bit-identical to a serial
//! `map` no matter how many threads run or how the steals interleave.
//!
//! # Determinism contract
//!
//! * Each point's closure must derive everything from its input:
//!   own simulator, own seeded RNG, own `Obs` handle. No shared
//!   mutable state, no ambient randomness, no time queries.
//! * The executor assigns every input an index and commits result
//!   `i` to output slot `i`; the returned `Vec` is therefore equal
//!   to `inputs.into_iter().map(f).collect()` regardless of thread
//!   count or steal order.
//! * With one thread (or one input) the pool is bypassed entirely:
//!   the closure runs inline on the caller's thread, so
//!   `CEDAR_THREADS=1` *is* the serial execution, not a simulation
//!   of it.
//!
//! # Thread-count resolution
//!
//! [`threads`] reads the `CEDAR_THREADS` environment variable at
//! each call: a positive integer pins the pool size, `0`, unset or
//! unparsable falls back to [`std::thread::available_parallelism`].
//!
//! # Examples
//!
//! ```
//! // Squares arrive in input order whatever the thread count.
//! let out = cedar_exec::run_sweep((0u64..64).collect(), |x| x * x);
//! assert_eq!(out[63], 63 * 63);
//!
//! // Pin the pool size explicitly (bypasses CEDAR_THREADS).
//! let serial = cedar_exec::run_sweep_on(1, (0u64..64).collect(), |x| x * x);
//! assert_eq!(out, serial);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cached;
mod pool;

pub use cached::{run_sweep_cached, run_sweep_cached_on, sweep_keys};
pub use pool::{run_sweep_on, run_sweep_streaming_on, CancelToken, Cancelled};

/// The environment variable that pins the sweep pool size.
pub const THREADS_ENV: &str = "CEDAR_THREADS";

/// Resolves the number of worker threads for sweep execution.
///
/// Reads [`THREADS_ENV`] on every call so tests and the `perf`
/// harness can flip between serial and parallel execution without
/// rebuilding pools: a positive integer wins; `0`, absence or an
/// unparsable value falls back to the machine's available
/// parallelism (1 if even that is unknown).
#[must_use]
pub fn threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => available(),
        },
        Err(_) => available(),
    }
}

fn available() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f` over every input on the [`threads`]-sized pool and
/// returns the results in input order.
///
/// This is the sweep entry point the bench modules use; see the
/// crate docs for the determinism contract each point must honour.
///
/// # Panics
///
/// Re-raises the panic of the lowest-indexed failing point.
pub fn run_sweep<I, T, F>(inputs: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    run_sweep_on(threads(), inputs, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_commit_in_input_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let expected: Vec<u64> = inputs.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 4, 8, 16] {
            let got = run_sweep_on(threads, inputs.clone(), |x| x * 3 + 1);
            assert_eq!(got, expected, "{threads} threads");
        }
    }

    #[test]
    fn heterogeneous_point_costs_still_commit_in_order() {
        // Early points are the slow ones, so late points finish first
        // and must wait in their slots, not jump the queue.
        let inputs: Vec<u64> = (0..32).collect();
        let f = |x: u64| {
            let spins = if x < 4 { 200_000 } else { 10 };
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc)
        };
        let serial: Vec<_> = inputs.iter().map(|&x| f(x)).collect();
        let parallel = run_sweep_on(8, inputs, f);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn seeded_rng_points_match_serial_bit_for_bit() {
        // Each point owns a SplitMix64-style stream seeded by its
        // input — the shape every converted bench module has.
        let stream = |seed: u64| {
            let mut s = seed;
            let mut out = 0u64;
            for _ in 0..1000 {
                s = s.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                out ^= z ^ (z >> 31);
            }
            out
        };
        let seeds: Vec<u64> = (0..40).map(|i| 0xCEDA + i).collect();
        let serial: Vec<u64> = seeds.iter().map(|&s| stream(s)).collect();
        assert_eq!(run_sweep_on(5, seeds, stream), serial);
    }

    #[test]
    fn empty_and_singleton_sweeps() {
        let empty: Vec<u64> = run_sweep_on(4, Vec::<u64>::new(), |x| x);
        assert!(empty.is_empty());
        assert_eq!(run_sweep_on(4, vec![7u64], |x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_inputs() {
        let got = run_sweep_on(64, vec![1u64, 2, 3], |x| x * 10);
        assert_eq!(got, vec![10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "point 2 exploded")]
    fn worker_panics_propagate() {
        let _ = run_sweep_on(4, vec![0u64, 1, 2, 3], |x| {
            assert!(x != 2, "point {x} exploded");
            x
        });
    }

    #[test]
    fn threads_env_parsing() {
        // Not set in the test environment: falls back to the machine.
        assert!(threads() >= 1);
    }
}
