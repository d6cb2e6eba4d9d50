//! Table 2: global-memory performance of the four monitored kernels.
//!
//! For TM, CG, VF and RK at 8, 16 and 32 CEs: the prefetch speedup
//! (kernel time without prefetch over with prefetch) and the
//! first-word latency and interarrival time recorded by the
//! performance monitor on the prefetch unit's network signals.

use std::sync::OnceLock;

use cedar_core::costmodel::{AccessMode, CostModel};
use cedar_core::params::CedarParams;
use cedar_serve::job::JobSpec;

/// One paper row: `(kernel, speedup, latency, interarrival)`, the
/// three metric arrays indexed by CE count (8/16/32).
pub type PaperRow = (&'static str, [f64; 3], [f64; 3], [f64; 3]);

/// Paper values for the four kernels at 8/16/32 CEs, in the serving
/// tier's `KERNELS` order, so a row's index is its `table2` job's
/// kernel.
pub const PAPER: [PaperRow; 4] = [
    ("TM", [2.1, 2.0, 1.5], [9.4, 10.2, 14.2], [1.1, 1.2, 2.1]),
    ("CG", [2.4, 2.2, 1.5], [9.4, 10.3, 15.1], [1.1, 1.2, 2.1]),
    ("VF", [1.8, 1.7, 1.5], [9.6, 11.0, 16.7], [1.2, 1.4, 2.2]),
    ("RK", [3.4, 2.9, 1.8], [12.9, 15.3, 18.3], [1.2, 1.8, 3.2]),
];

/// The CE counts of the study.
pub const CES: [usize; 3] = [8, 16, 32];

/// One kernel's regenerated row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Kernel name.
    pub kernel: &'static str,
    /// Prefetch speedup at 8/16/32 CEs.
    pub speedup: [f64; 3],
    /// First-word latency (cycles) at 8/16/32 CEs.
    pub latency: [f64; 3],
    /// Interarrival time (cycles) at 8/16/32 CEs.
    pub interarrival: [f64; 3],
}

/// Per-word non-prefetchable work of each kernel in cycles: scalar
/// address arithmetic, loop control, register-register operations and
/// stores that run identically in both versions and therefore dilute
/// the prefetch speedup. Calibrated once against the paper's 8-CE
/// speedup column (2.1 / 2.4 / 1.8 / 3.4); the 16- and 32-CE speedups
/// then follow from the measured contention alone. RK's tiny constant
/// is what makes it both the best prefetch customer and the fastest
/// to degrade.
fn overlap_cycles(kernel: &str) -> f64 {
    match kernel {
        "TM" => 4.0,
        "CG" => 2.9,
        "VF" => 6.1,
        "RK" => 1.1,
        other => panic!("unknown kernel {other}"),
    }
}

/// Regenerates the table by running the monitored fabric experiments.
///
/// The 12 `(kernel, CE-count)` cells are independent measurements on
/// deterministic fabrics, so they fan out over [`cedar_exec::run_sweep_on`].
/// Each cell's prefetch profile is the serving tier's `table2` job for
/// it (8 blocks per CE); its no-prefetch time comes from the cost
/// model, measured once per CE count.
#[must_use]
pub fn run() -> Vec<Row> {
    run_cached(None)
}

/// Cache namespace for the table's sweep points. Bump the suffix when
/// the measurement recipe changes so stale entries self-invalidate.
pub const CACHE_NAMESPACE: &str = "bench.table2/1";

/// [`run`] with an optional content-addressed result cache: each
/// `(kernel, CE-count)` cell keys on its index pair under
/// [`CACHE_NAMESPACE`], so a warmed cache serves the whole table
/// without building a single fabric.
#[must_use]
pub fn run_cached(cache: Option<&cedar_snap::CacheDir>) -> Vec<Row> {
    let mut cells: Vec<(u64, u64)> = Vec::new();
    for k in 0..PAPER.len() as u64 {
        for i in 0..CES.len() as u64 {
            cells.push((k, i));
        }
    }
    // The no-prefetch time depends on the CE count alone: each is
    // measured once, by whichever cell asks first, and never when
    // every cell is a cache hit.
    let nopref: [OnceLock<f64>; 3] = Default::default();
    let measured = cedar_exec::run_sweep_cached_on(
        cedar_exec::threads(),
        cache,
        CACHE_NAMESPACE,
        cells,
        |(k, i)| {
            let ces = CES[i as usize];
            let profile = crate::study_point(&JobSpec::Table2 {
                kernel: k as u8,
                ces: ces as u32,
                blocks: 8,
            });
            // Kernel time per word: prefetched = interarrival (plus
            // overlapped compute), non-prefetched = latency/2 with
            // the same compute overlapped.
            let nopref = *nopref[i as usize].get_or_init(|| {
                CostModel::new(CedarParams::paper().fabric)
                    .cycles_per_word(AccessMode::GlobalNoPrefetch, ces)
            });
            let overlap = overlap_cycles(PAPER[k as usize].0);
            let with = profile.interarrival.max(1.0) + overlap;
            let without = nopref + overlap;
            (
                (k, i),
                (without / with, profile.latency, profile.interarrival),
            )
        },
    );

    let mut rows: Vec<Row> = PAPER
        .iter()
        .map(|&(kernel, ..)| Row {
            kernel,
            speedup: [0.0; 3],
            latency: [0.0; 3],
            interarrival: [0.0; 3],
        })
        .collect();
    for ((k, i), (speedup, latency, interarrival)) in measured {
        let (k, i) = (k as usize, i as usize);
        rows[k].speedup[i] = speedup;
        rows[k].latency[i] = latency;
        rows[k].interarrival[i] = interarrival;
    }
    rows
}

/// Renders the regenerated table against the paper's as a string.
/// Deterministic: every run yields this exact string, byte for byte.
#[must_use]
pub fn report() -> String {
    report_cached(None)
}

/// [`report`] backed by an optional sweep-point cache.
#[must_use]
pub fn report_cached(cache: Option<&cedar_snap::CacheDir>) -> String {
    use std::fmt::Write;

    let mut out = String::new();
    let _ = writeln!(out, "Table 2: Global memory performance (measured | paper)");
    let _ = writeln!(
        out,
        "{:4} | {:^23} | {:^23} | {:^23}",
        "", "Prefetch Speedup", "Latency (cycles)", "Interarrival (cycles)"
    );
    let _ = writeln!(
        out,
        "{:4} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7}",
        "#CEs", 8, 16, 32, 8, 16, 32, 8, 16, 32
    );
    for (row, (_, sp, lp, ip)) in run_cached(cache).iter().zip(PAPER.iter()) {
        let _ = writeln!(
            out,
            "{:4} | {:>7.1} {:>7.1} {:>7.1} | {:>7.1} {:>7.1} {:>7.1} | {:>7.1} {:>7.1} {:>7.1}",
            row.kernel,
            row.speedup[0],
            row.speedup[1],
            row.speedup[2],
            row.latency[0],
            row.latency[1],
            row.latency[2],
            row.interarrival[0],
            row.interarrival[1],
            row.interarrival[2],
        );
        let _ = writeln!(
            out,
            "     | {:>7.1} {:>7.1} {:>7.1} | {:>7.1} {:>7.1} {:>7.1} | {:>7.1} {:>7.1} {:>7.1}  (paper)",
            sp[0], sp[1], sp[2], lp[0], lp[1], lp[2], ip[0], ip[1], ip[2],
        );
    }
    let _ = writeln!(
        out,
        "\nminimal latency 8 cycles, minimal interarrival 1 cycle (paper)"
    );
    out
}

/// Prints the regenerated table against the paper's.
pub fn print() {
    print!("{}", report());
}
