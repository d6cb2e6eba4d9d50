//! Serial-vs-parallel determinism: the sweep executor's contract is
//! that `CEDAR_THREADS=1` and `CEDAR_THREADS=4` produce byte-identical
//! results. This lives in its own integration-test binary with a
//! single `#[test]` because it mutates the process environment, which
//! must not race with other tests in the same process.

use std::env;

/// The variable `cedar_exec::threads` reads.
const THREADS_ENV: &str = "CEDAR_THREADS";

#[test]
fn sweeps_are_identical_serial_and_parallel() {
    let saved = env::var(THREADS_ENV).ok();

    env::set_var(THREADS_ENV, "1");
    assert_eq!(cedar_exec::threads(), 1);
    let table2_serial = format!("{:?}", cedar_bench::table2::run());
    let degraded_serial = format!("{:?}", cedar_bench::degraded::run());

    env::set_var(THREADS_ENV, "4");
    assert_eq!(cedar_exec::threads(), 4);
    let table2_parallel = format!("{:?}", cedar_bench::table2::run());
    let degraded_parallel = format!("{:?}", cedar_bench::degraded::run());

    match saved {
        Some(v) => env::set_var(THREADS_ENV, v),
        None => env::remove_var(THREADS_ENV),
    }

    assert_eq!(
        table2_serial, table2_parallel,
        "Table 2 diverged between 1 and 4 threads"
    );
    assert_eq!(
        degraded_serial, degraded_parallel,
        "degraded-mode sweep diverged between 1 and 4 threads"
    );
}
