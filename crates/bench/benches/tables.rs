//! Dependency-free benches: one per regenerated table/figure, timing
//! the full regeneration (simulation + analysis) with `std::time`.
//! These are the `cargo bench` face of the experiment harness; the
//! printed tables come from the binaries in `src/bin`.

use std::hint::black_box;
use std::time::Instant;

fn bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    black_box(f()); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per = start.elapsed().as_secs_f64() / f64::from(iters);
    println!("{name:<40} {:>12.3} ms/iter ({iters} iters)", per * 1e3);
}

fn main() {
    bench("table1_rank64_update", 3, cedar_bench::table1::run);
    bench("table2_prefetch_contention", 3, cedar_bench::table2::run);
    bench("table3_perfect_codes", 3, cedar_bench::table3::run);
    bench("table4_manual_codes", 3, cedar_bench::table4::run);
    bench("table5_instability", 3, cedar_bench::table5::run);
    bench("table6_efficiency_bands", 3, cedar_bench::table6::run);
    bench("fig3_efficiency_scatter", 3, cedar_bench::fig3::run);
    bench("ppt4_cedar_cg_grid", 3, cedar_bench::ppt4::run_cedar);
    bench("ppt4_cm5_grid", 3, cedar_bench::ppt4::run_cm5);
    bench(
        "ablation_network_buffering",
        3,
        cedar_bench::ablation_network::run,
    );
    bench("ablation_vm_trfd", 3, cedar_bench::ablation_vm::run);
    bench(
        "ablation_barriers_flo52",
        3,
        cedar_bench::ablation_barriers::run,
    );
    bench("ablation_loops_dyfesm", 3, cedar_bench::ablation_loops::run);
    bench("ablation_io_bdna", 3, cedar_bench::ablation_io::run);
    bench("ablation_hotspot", 3, cedar_bench::hotspot::run);
    bench("loop_overheads", 3, cedar_bench::overheads::run);
    let point = cedar_serve::job::JobSpec::Degraded {
        rate_ppm: 20_000,
        ces: 8,
        blocks: 8,
        seed: cedar_serve::job::DEFAULT_SEED,
    };
    bench("degraded_sweep_point", 3, || {
        cedar_bench::study_point(&point)
    });
}
