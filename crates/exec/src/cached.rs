//! Content-addressed sweep caching.
//!
//! A sweep point is a pure function of its input, so its result can be
//! keyed by the input's canonical snapshot encoding and reused across
//! harness invocations: the second `perf --smoke` run of a CI job
//! loads every point from disk instead of re-simulating it.
//!
//! The cache layer sits strictly *around* the executor: hits are
//! loaded up front, misses run through the ordinary pool (preserving
//! the determinism contract — the miss subset commits in input order),
//! and results are stored only after the whole miss sweep returns, so
//! a panicking point never persists a poisoned entry.

use cedar_snap::{CacheDir, Snapshot};

use crate::pool::run_sweep_on;

/// Content-addressed cache keys for a sweep: each input's
/// [`snapshot_key`](Snapshot::snapshot_key) under `namespace`, in input
/// order. This is the *single* key derivation shared by the cached
/// sweep runners here and by the cluster coordinator, so a point
/// computed by either is a cache hit for the other.
#[must_use]
pub fn sweep_keys<I: Snapshot>(namespace: &str, inputs: &[I]) -> Vec<String> {
    inputs
        .iter()
        .map(|input| input.snapshot_key(namespace))
        .collect()
}

/// Runs `f` over every input, serving points from `cache` when their
/// key is present and storing freshly computed results back.
///
/// Semantics are identical to [`run_sweep`](crate::run_sweep) —
/// results arrive in input order, bit-identical to a serial map —
/// provided `f` honours the determinism contract (a cached result is
/// only valid if recomputing it would give the same bytes). `None`
/// disables caching entirely.
///
/// Keys are derived from each input's canonical encoding under
/// `namespace`; distinct sweeps sharing an input type must use
/// distinct namespaces or they will serve each other's results.
///
/// Cache I/O errors are swallowed: an unreadable entry is a miss, a
/// failed store leaves the cache cold for the next run. Only the
/// closure's own panics propagate.
///
/// # Panics
///
/// Re-raises the panic of the lowest-indexed failing point. No entry
/// is stored for any point of a panicking sweep.
pub fn run_sweep_cached<I, T, F>(
    cache: Option<&CacheDir>,
    namespace: &str,
    inputs: Vec<I>,
    f: F,
) -> Vec<T>
where
    I: Send + Snapshot,
    T: Send + Snapshot,
    F: Fn(I) -> T + Sync,
{
    run_sweep_cached_on(crate::threads(), cache, namespace, inputs, f)
}

/// [`run_sweep_cached`] with an explicit thread count (bypassing
/// `CEDAR_THREADS`). Hit/miss classification is independent of the
/// thread count, so serial and parallel runs over the same cache are
/// interchangeable.
///
/// # Panics
///
/// Re-raises the panic of the lowest-indexed failing point.
pub fn run_sweep_cached_on<I, T, F>(
    threads: usize,
    cache: Option<&CacheDir>,
    namespace: &str,
    inputs: Vec<I>,
    f: F,
) -> Vec<T>
where
    I: Send + Snapshot,
    T: Send + Snapshot,
    F: Fn(I) -> T + Sync,
{
    let Some(cache) = cache else {
        return run_sweep_on(threads, inputs, f);
    };

    let keys = sweep_keys(namespace, &inputs);
    let mut slots: Vec<Option<T>> = keys.iter().map(|key| cache.load(key)).collect();
    let misses: Vec<(usize, I)> = inputs
        .into_iter()
        .enumerate()
        .filter(|(i, _)| slots[*i].is_none())
        .collect();

    // Misses run as their own ordered sub-sweep; a panic anywhere in
    // it propagates before any store happens.
    let indices: Vec<usize> = misses.iter().map(|(i, _)| *i).collect();
    let computed = run_sweep_on(threads, misses, |(_, input)| f(input));
    for (i, result) in indices.into_iter().zip(computed) {
        let _ = cache.store(&keys[i], &result);
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every point is a hit or was computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(name: &str) -> CacheDir {
        let dir = std::env::temp_dir().join(format!("cedar-exec-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CacheDir::new(dir).unwrap()
    }

    fn cleanup(cache: &CacheDir) {
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn warm_run_skips_every_computed_point() {
        let cache = scratch("warm");
        let calls = AtomicU64::new(0);
        let f = |x: u64| {
            calls.fetch_add(1, Ordering::Relaxed);
            x * x
        };
        let inputs: Vec<u64> = (0..50).collect();
        let cold = run_sweep_cached_on(4, Some(&cache), "sq", inputs.clone(), f);
        assert_eq!(calls.load(Ordering::Relaxed), 50);
        let warm = run_sweep_cached_on(4, Some(&cache), "sq", inputs, f);
        assert_eq!(calls.load(Ordering::Relaxed), 50, "all points cached");
        assert_eq!(cold, warm);
        cleanup(&cache);
    }

    #[test]
    fn partial_cache_runs_only_the_misses_in_order() {
        let cache = scratch("partial");
        let inputs: Vec<u64> = (0..20).collect();
        let evens: Vec<u64> = inputs.iter().copied().filter(|x| x % 2 == 0).collect();
        let _ = run_sweep_cached_on(2, Some(&cache), "p", evens, |x| x + 100);
        let calls = AtomicU64::new(0);
        let all = run_sweep_cached_on(2, Some(&cache), "p", inputs, |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x + 100
        });
        assert_eq!(calls.load(Ordering::Relaxed), 10, "only odd points ran");
        assert_eq!(all, (0..20).map(|x| x + 100).collect::<Vec<u64>>());
        cleanup(&cache);
    }

    #[test]
    fn namespaces_are_disjoint() {
        let cache = scratch("ns");
        let a = run_sweep_cached_on(1, Some(&cache), "double", vec![3u64], |x| x * 2);
        let b = run_sweep_cached_on(1, Some(&cache), "triple", vec![3u64], |x| x * 3);
        assert_eq!(a, vec![6]);
        assert_eq!(b, vec![9], "a 'triple' point must not hit 'double'");
        cleanup(&cache);
    }

    #[test]
    fn no_cache_is_a_plain_sweep() {
        let out = run_sweep_cached_on(4, None, "x", (0..10u64).collect(), |x| x + 1);
        assert_eq!(out, (1..=10).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_and_singleton_sweeps() {
        let cache = scratch("edge");
        let empty: Vec<u64> = run_sweep_cached_on(4, Some(&cache), "e", Vec::new(), |x| x);
        assert!(empty.is_empty());
        let one = run_sweep_cached_on(4, Some(&cache), "e", vec![41u64], |x| x + 1);
        assert_eq!(one, vec![42]);
        let again = run_sweep_cached_on(1, Some(&cache), "e", vec![41u64], |_| -> u64 {
            panic!("must be served from cache")
        });
        assert_eq!(again, vec![42]);
        cleanup(&cache);
    }

    #[test]
    fn panicking_point_persists_no_entry() {
        let cache = scratch("panic");
        let inputs: Vec<u64> = (0..8).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_sweep_cached_on(4, Some(&cache), "boom", inputs.clone(), |x| {
                assert!(x != 5, "point {x} exploded");
                x * 7
            })
        }));
        assert!(result.is_err(), "the panic must propagate");
        // Nothing — not even the points that succeeded before the
        // panic — may have been stored.
        let stored: Vec<PathBuf> = std::fs::read_dir(cache.root())
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert!(
            stored.is_empty(),
            "poisoned sweep left entries behind: {stored:?}"
        );
        cleanup(&cache);
    }

    #[test]
    fn serial_and_parallel_runs_share_the_cache() {
        let cache = scratch("threads");
        let inputs: Vec<u64> = (0..30).collect();
        let serial = run_sweep_cached_on(1, Some(&cache), "t", inputs.clone(), |x| x ^ 0xCEDA);
        let calls = AtomicU64::new(0);
        let parallel = run_sweep_cached_on(8, Some(&cache), "t", inputs, |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x ^ 0xCEDA
        });
        assert_eq!(serial, parallel);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            0,
            "a serial run's entries must hit from a parallel run"
        );
        cleanup(&cache);
    }
}
