//! Zoo sweep cells: one (machine, workload) measurement.
//!
//! Every cell is a pure function of its [`ZooCellSpec`], so the whole
//! matrix runs as a content-addressed-cached `cedar-exec` sweep: the
//! spec's canonical snapshot under [`CACHE_NAMESPACE`] keys the cell,
//! and a warm re-run of the `zoo` report is served byte-identically
//! from disk. Only the matrix uses these keys: a serve `zoo` job (one
//! hotspot point, keyed under the serving tier's `serve.job/1`) and
//! the cluster, which runs only serve jobs, never read them.

use cedar_baselines::cm5::Cm5Model;
use cedar_baselines::cray1;
use cedar_baselines::t3::T3Model;
use cedar_baselines::t3d::T3dModel;
use cedar_baselines::workstation::{Workstation, ANCHORS};
use cedar_baselines::ymp;
use cedar_core::params::CedarParams;
use cedar_core::system::CedarSystem;
use cedar_kernels::cg;
use cedar_net::combining::{run_hotspot, CombiningConfig, HotspotTraffic};
use cedar_perfect::manual::{fig3_cedar_efficiencies, fig3_width};
use cedar_perfect::model::ExecutionModel;
use cedar_perfect::versions::Version;
use cedar_snap::CacheDir;

use crate::machine::{Machine, MACHINES};

/// Cache namespace for zoo cells. Bump the `/1` on any change to the
/// cell computation or encoding.
pub const CACHE_NAMESPACE: &str = "zoo.cell/1";

/// The four workloads every machine is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Perfect ensemble through the portable/compiled path (PPT2
    /// rates; the cell also carries the PPT3 portable/tuned pair).
    PerfectCompiled,
    /// Perfect ensemble at each machine's best effort (PPT1
    /// speedups).
    PerfectManual,
    /// A (processors, problem-size) grid (PPT4).
    Scalability,
    /// Synchronization hotspot bandwidth at rising hot fractions —
    /// the workload where combining is decisive.
    SyncHotspot,
}

/// Every workload, in cell order.
pub const WORKLOADS: [Workload; 4] = [
    Workload::PerfectCompiled,
    Workload::PerfectManual,
    Workload::Scalability,
    Workload::SyncHotspot,
];

impl Workload {
    /// Stable wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PerfectCompiled => "perfect-compiled",
            Workload::PerfectManual => "perfect-manual",
            Workload::Scalability => "scalability",
            Workload::SyncHotspot => "sync-hotspot",
        }
    }

    /// Stable numeric tag for snapshots.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            Workload::PerfectCompiled => 0,
            Workload::PerfectManual => 1,
            Workload::Scalability => 2,
            Workload::SyncHotspot => 3,
        }
    }

    /// The inverse of [`Workload::tag`].
    #[must_use]
    pub fn from_tag(tag: u8) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.tag() == tag)
    }
}

/// One sweep input: which machine, which workload, and whether the
/// smoke-scaled (CI-sized) simulation grid is in force. `smoke` is
/// part of the spec — and therefore the cache key — because it
/// changes the simulated cells' results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZooCellSpec {
    /// [`Machine::tag`] of the machine.
    pub machine: u8,
    /// [`Workload::tag`] of the workload.
    pub workload: u8,
    /// Smoke-scaled simulation sizes.
    pub smoke: bool,
}

cedar_snap::snapshot_struct!(ZooCellSpec {
    machine,
    workload,
    smoke,
});

/// One measured cell. `primary` is the workload's headline vector
/// (rates, speedups, or bandwidths); `aux` carries the workload's
/// secondary vector (the PPT3 portable/tuned pair, PPT4 rates, or
/// hotspot latencies + combined-word counts).
#[derive(Debug, Clone, PartialEq)]
pub struct ZooCell {
    /// Echo of the spec's machine tag.
    pub machine: u8,
    /// Echo of the spec's workload tag.
    pub workload: u8,
    /// Headline measurement vector.
    pub primary: Vec<f64>,
    /// Secondary measurement vector.
    pub aux: Vec<f64>,
}

cedar_snap::snapshot_struct!(ZooCell {
    machine,
    workload,
    primary,
    aux,
});

/// The full spec matrix: every machine × every workload.
#[must_use]
pub fn specs(smoke: bool) -> Vec<ZooCellSpec> {
    let mut out = Vec::new();
    for m in MACHINES {
        for w in WORKLOADS {
            out.push(ZooCellSpec {
                machine: m.tag(),
                workload: w.tag(),
                smoke,
            });
        }
    }
    out
}

/// Hot fractions (ppm) the hotspot workload sweeps, uniform first.
pub const HOT_PPMS: [u32; 3] = [0, 250_000, 500_000];

/// The CG scalability grid Cedar is judged on — the same grid as
/// `cedar-bench`'s Table-style PPT4 study (`ppt4::cedar_verdict`),
/// duplicated here because `cedar-bench` depends on this crate; the
/// facade-level `zoo_cedar_identity` test holds the two bit-identical.
pub const CEDAR_PROCS: [usize; 5] = [2, 4, 8, 16, 32];
/// Problem sizes of the Cedar CG grid.
pub const CEDAR_SIZES: [usize; 6] = [1_000, 4_000, 10_000, 16_000, 48_000, 172_000];

/// The (processors, problem size) coordinates of a machine's
/// scalability grid, in the exact order the cell's `primary`/`aux`
/// vectors are laid out.
#[must_use]
pub fn scalability_coords(machine: Machine, smoke: bool) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    match machine {
        Machine::Cedar => {
            for &p in &CEDAR_PROCS {
                for &n in &CEDAR_SIZES {
                    out.push((p, n));
                }
            }
        }
        Machine::Ymp8 => {
            for p in [2usize, 4, 8] {
                for n in [10_000usize, 100_000] {
                    out.push((p, n));
                }
            }
        }
        Machine::Cray1 | Machine::Workstation => {
            for n in [1_000usize, 10_000, 100_000] {
                out.push((1, n));
            }
        }
        Machine::Cm5 => {
            for p in [32usize, 256, 512] {
                for _bw in [3usize, 11] {
                    for n in [16_384usize, 65_536, 262_144] {
                        out.push((p, n));
                    }
                }
            }
        }
        Machine::Ultra => {
            let requests: [usize; 2] = if smoke { [8, 24] } else { [32, 128] };
            for p in [8usize, 16, 32] {
                for r in requests {
                    out.push((p, r));
                }
            }
        }
        Machine::T3d => {
            for p in [16usize, 32, 64] {
                for n in [65_536usize, 331_776, 1_048_576] {
                    out.push((p, n));
                }
            }
        }
        Machine::T3 => {
            for p in [4usize, 8, 16] {
                for n in [100_000usize, 1_000_000] {
                    out.push((p, n));
                }
            }
        }
    }
    out
}

/// Runs one cell. Pure and deterministic: byte-identical for the
/// same spec regardless of thread count, host, or cache state.
///
/// # Panics
///
/// Panics if the spec's machine or workload tag is unknown.
#[must_use]
pub fn run_cell(spec: ZooCellSpec) -> ZooCell {
    let machine = Machine::from_tag(spec.machine).expect("unknown machine tag");
    let workload = Workload::from_tag(spec.workload).expect("unknown workload tag");
    let (primary, aux) = match workload {
        Workload::PerfectCompiled => perfect_compiled(machine),
        Workload::PerfectManual => (perfect_manual(machine), Vec::new()),
        Workload::Scalability => scalability(machine, spec.smoke),
        Workload::SyncHotspot => sync_hotspot(machine, spec.smoke),
    };
    ZooCell {
        machine: spec.machine,
        workload: spec.workload,
        primary,
        aux,
    }
}

/// Runs the whole matrix as a cached sweep on `threads` threads (the
/// `zoo` bin passes [`cedar_exec::threads`]; the determinism tests pit
/// 1 against 4).
#[must_use]
pub fn run_cached_on(threads: usize, cache: Option<&CacheDir>, smoke: bool) -> Vec<ZooCell> {
    cedar_exec::run_sweep_cached_on(threads, cache, CACHE_NAMESPACE, specs(smoke), run_cell)
}

fn calibrated_model() -> ExecutionModel {
    ExecutionModel::calibrate(&mut CedarSystem::new(CedarParams::paper()))
}

/// The RS/6000 anchor is the zoo's workstation.
fn anchor() -> Workstation {
    ANCHORS[2]
}

/// PPT2 rate ensemble plus the PPT3 (portable ++ tuned) pair.
fn perfect_compiled(machine: Machine) -> (Vec<f64>, Vec<f64>) {
    match machine {
        Machine::Cedar => {
            let model = calibrated_model();
            let rates = model.cedar_mflops_ensemble();
            let tuned = manual_mflops(&model);
            (rates.clone(), concat(rates, tuned))
        }
        Machine::Ultra => {
            // Cedar's hardware with in-network fetch-and-add: the
            // compiled path prices synchronization at the cheap
            // (NoSync) cost — that is precisely what combining buys.
            let model = calibrated_model();
            let rates: Vec<f64> = model
                .codes()
                .iter()
                .map(|c| model.mflops(c, Version::NoSync))
                .collect();
            let tuned: Vec<f64> = model
                .codes()
                .iter()
                .map(|c| model.mflops(c, Version::Manual))
                .collect();
            (rates.clone(), concat(rates, tuned))
        }
        Machine::Ymp8 => {
            let model = calibrated_model();
            let rates = model.ymp_mflops_ensemble();
            // Restructuring recovery = automatic (Table 6) over
            // manual (Figure 3) efficiency, code by code.
            let portable: Vec<f64> = rates
                .iter()
                .zip(ymp::TABLE6_EFFICIENCIES.iter().zip(&ymp::FIG3_EFFICIENCIES))
                .map(|(&r, (auto, man))| r * (auto.efficiency / man.efficiency).min(1.0))
                .collect();
            (rates.clone(), concat(portable, rates))
        }
        Machine::Cray1 => {
            let rates = cray1::rates();
            let portable: Vec<f64> = rates
                .iter()
                .zip(CRAY1_RECOVERY)
                .map(|(&r, f)| r * f)
                .collect();
            (rates.clone(), concat(portable, rates))
        }
        Machine::Cm5 => {
            // The CM-5's Perfect-shaped ensemble: its matvec rate
            // shaped by the scalar spread (no vector cliff on
            // SPARC nodes), judged with CM Fortran recovery.
            let m = Cm5Model::paper();
            let base = m.matvec_mflops(262_144, 11, 32);
            let rates: Vec<f64> = cedar_baselines::workstation::RELATIVE_RATES
                .iter()
                .map(|rel| base * rel / 0.75)
                .collect();
            let portable: Vec<f64> = rates
                .iter()
                .zip(CM5_RECOVERY)
                .map(|(&r, f)| r * f)
                .collect();
            (rates.clone(), concat(portable, rates))
        }
        Machine::Workstation => {
            let rates = anchor().rates();
            let portable: Vec<f64> = rates.iter().map(|r| r * 0.95).collect();
            (rates.clone(), concat(portable, rates))
        }
        Machine::T3d => {
            let m = T3dModel::paper();
            (m.tuned_rates(), concat(m.portable_rates(), m.tuned_rates()))
        }
        Machine::T3 => {
            let m = T3Model::paper();
            (m.rates(), concat(m.rates(), m.tuned_rates()))
        }
    }
}

/// PPT1 speedup ensemble at each machine's best effort.
fn perfect_manual(machine: Machine) -> Vec<f64> {
    match machine {
        Machine::Cedar => {
            // Exactly the judging_machines PPT1 input: Figure 3
            // efficiencies times each code's machine width.
            let model = calibrated_model();
            fig3_cedar_efficiencies(&model)
                .iter()
                .map(|p| p.efficiency * fig3_width(p.name) as f64)
                .collect()
        }
        Machine::Ultra => {
            let model = calibrated_model();
            model
                .codes()
                .iter()
                .map(|c| model.improvement(c, Version::NoSync))
                .collect()
        }
        Machine::Ymp8 => ymp::FIG3_EFFICIENCIES
            .iter()
            .map(|e| e.efficiency * 8.0)
            .collect(),
        // Uniprocessors deliver their own performance by definition;
        // the interesting judgments land in PPT2/PPT3.
        Machine::Cray1 | Machine::Workstation => vec![1.0; 13],
        Machine::Cm5 => {
            let m = Cm5Model::paper();
            let mut out = Vec::new();
            for bw in [3usize, 11] {
                for n in [16_384usize, 65_536, 262_144] {
                    out.push(m.speedup(n, bw, 32));
                }
            }
            out
        }
        Machine::T3d => T3dModel::paper().tuned_speedups(),
        Machine::T3 => T3Model::paper().speedups(16),
    }
}

/// PPT4 grid: speedups in `primary`, rates in `aux`, laid out in
/// [`scalability_coords`] order.
fn scalability(machine: Machine, smoke: bool) -> (Vec<f64>, Vec<f64>) {
    let coords = scalability_coords(machine, smoke);
    let mut speedups = Vec::with_capacity(coords.len());
    let mut rates = Vec::with_capacity(coords.len());
    match machine {
        Machine::Cedar => {
            let mut sys = CedarSystem::new(CedarParams::paper());
            for &(p, n) in &coords {
                speedups.push(cg::speedup(&mut sys, n, p));
                rates.push(cg::simulate_iteration(&mut sys, n, p).mflops);
            }
        }
        Machine::Ymp8 => {
            for &(p, n) in &coords {
                let s = ymp_autotask_speedup(p, n);
                speedups.push(s);
                rates.push(s * 55.0 * size_factor(n));
            }
        }
        Machine::Cray1 => {
            // Vector startup: N=1K runs at a third of the asymptotic
            // rate, which fails the 2x size-stability bound — the
            // Cray-1 is fast, not stable. The speedup axis is
            // trivially 1.
            for &(_, n) in &coords {
                speedups.push(1.0);
                rates.push(12.0 * size_factor(n));
            }
        }
        Machine::Workstation => {
            for &(_, _) in &coords {
                speedups.push(1.0);
                rates.push(anchor().scale_mflops);
            }
        }
        Machine::Cm5 => {
            let m = Cm5Model::paper();
            // Coordinate order interleaves the two bandwidths; walk
            // the same loops to stay aligned.
            for p in [32usize, 256, 512] {
                for bw in [3usize, 11] {
                    for n in [16_384usize, 65_536, 262_144] {
                        speedups.push(m.speedup(n, bw, p));
                        rates.push(m.matvec_mflops(n, bw, p));
                    }
                }
            }
        }
        Machine::Ultra => {
            // Simulated: hotspot throughput scaling on the combining
            // fabric, against the single-CE run at each request
            // count.
            let requests: [usize; 2] = if smoke { [8, 24] } else { [32, 128] };
            let mut base = Vec::new();
            for r in requests {
                base.push(ultra_bandwidth(1, r as u64));
            }
            for &(p, r) in &coords {
                let bw = ultra_bandwidth(p, r as u64);
                let b = base[requests.iter().position(|&x| x == r).expect("known size")];
                speedups.push(bw / b);
                rates.push(bw);
            }
        }
        Machine::T3d => {
            let m = T3dModel::paper();
            for &(p, n) in &coords {
                speedups.push(m.speedup(n, p));
                rates.push(m.sweep_mflops(n, p));
            }
        }
        Machine::T3 => {
            let m = T3Model::paper();
            for &(p, n) in &coords {
                speedups.push(m.speedup(n, p));
                rates.push(m.sweep_mflops(n, p));
            }
        }
    }
    (speedups, rates)
}

/// Hotspot bandwidths at [`HOT_PPMS`] in `primary`; `aux` is, for
/// the simulated machines, the mean latencies (CE cycles) followed
/// by the combined-request counts at each fraction.
fn sync_hotspot(machine: Machine, smoke: bool) -> (Vec<f64>, Vec<f64>) {
    match machine {
        Machine::Cedar => simulated_hotspot(CombiningConfig::plain(), smoke),
        Machine::Ultra => simulated_hotspot(CombiningConfig::ultra(16), smoke),
        _ => {
            let (base, serialization) = analytic_hotspot_profile(machine);
            let p = machine.processors() as f64;
            let primary = HOT_PPMS
                .iter()
                .map(|&ppm| {
                    let f = f64::from(ppm) / 1e6;
                    base / (1.0 + serialization * f * (p - 1.0))
                })
                .collect();
            (primary, Vec::new())
        }
    }
}

/// (uniform-traffic bandwidth in requests per CE cycle, hotspot
/// serialization coefficient) for the analytic machines.
fn analytic_hotspot_profile(machine: Machine) -> (f64, f64) {
    match machine {
        // Shared registers make YMP sync cheap but serial.
        Machine::Ymp8 => (6.0, 0.3),
        // Uniprocessors have no hot spot.
        Machine::Cray1 | Machine::Workstation => (1.0, 0.0),
        // The CM-5's dedicated control network absorbs most of it.
        Machine::Cm5 => (16.0, 1.0),
        // Remote atomics serialize at the owning node.
        Machine::T3d => (19.2, 4.0),
        // NUMA atomics, softened by multithreading.
        Machine::T3 => (9.6, 2.0),
        Machine::Cedar | Machine::Ultra => unreachable!("simulated machines"),
    }
}

fn simulated_hotspot(cfg: CombiningConfig, smoke: bool) -> (Vec<f64>, Vec<f64>) {
    let requests = if smoke { 32 } else { 128 };
    let mut bws = Vec::new();
    let mut latencies = Vec::new();
    let mut combined = Vec::new();
    for &ppm in &HOT_PPMS {
        let report = run_hotspot(
            cfg,
            32,
            HotspotTraffic {
                requests_per_ce: requests,
                hot_ppm: ppm,
                window: 4,
            },
            50_000_000,
        );
        assert!(report.all_completed(), "hotspot run hit the cycle budget");
        bws.push(report.bandwidth());
        latencies.push(report.mean_latency_ce());
        combined.push(report.words_combined as f64);
    }
    latencies.extend(combined);
    (bws, latencies)
}

/// One servable hotspot measurement — what a `cedar-serve` `zoo` job
/// returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotPoint {
    /// Delivered bandwidth: requests per CE cycle (simulated) or the
    /// analytic curve value.
    pub bandwidth: f64,
    /// Mean request latency in CE cycles (0 for analytic machines).
    pub latency_ce: f64,
    /// Simulated network cycles (0 for analytic machines).
    pub net_cycles: u64,
    /// Requests absorbed by combining.
    pub combined: u64,
}

/// Computes one hotspot point for any zoo machine: the simulated
/// machines (Cedar, Ultra) run the combining fabric; the analytic
/// machines evaluate their serialization curve at `ces` processors.
///
/// # Panics
///
/// Panics if a simulated run exhausts its cycle budget (bounded by
/// `requests_per_ce`, which callers must cap).
#[must_use]
pub fn hotspot_point(
    machine: Machine,
    ces: usize,
    requests_per_ce: u64,
    hot_ppm: u32,
) -> HotspotPoint {
    match machine {
        Machine::Cedar | Machine::Ultra => {
            let cfg = if machine == Machine::Ultra {
                CombiningConfig::ultra(16)
            } else {
                CombiningConfig::plain()
            };
            let report = run_hotspot(
                cfg,
                ces,
                HotspotTraffic {
                    requests_per_ce,
                    hot_ppm,
                    window: 4,
                },
                50_000_000,
            );
            assert!(report.all_completed(), "zoo hotspot job hit the budget");
            HotspotPoint {
                bandwidth: report.bandwidth(),
                latency_ce: report.mean_latency_ce(),
                net_cycles: report.net_cycles,
                combined: report.words_combined,
            }
        }
        _ => {
            let (base, serialization) = analytic_hotspot_profile(machine);
            let f = f64::from(hot_ppm) / 1e6;
            HotspotPoint {
                bandwidth: base / (1.0 + serialization * f * (ces as f64 - 1.0)),
                latency_ce: 0.0,
                net_cycles: 0,
                combined: 0,
            }
        }
    }
}

/// Hotspot bandwidth of the Ultra fabric at `p` CEs (the PPT4 axis).
fn ultra_bandwidth(ces: usize, requests: u64) -> f64 {
    let report = run_hotspot(
        CombiningConfig::ultra(16),
        ces,
        HotspotTraffic {
            requests_per_ce: requests,
            hot_ppm: 250_000,
            window: 4,
        },
        50_000_000,
    );
    assert!(report.all_completed(), "ultra scaling run hit the budget");
    report.bandwidth()
}

/// Manually optimized Cedar MFLOPS: the 12 calibrated codes at their
/// manual versions plus SPICE at its published rate (the paper ships
/// no manual SPICE).
fn manual_mflops(model: &ExecutionModel) -> Vec<f64> {
    let mut out: Vec<f64> = model
        .codes()
        .iter()
        .map(|c| model.mflops(c, Version::Manual))
        .collect();
    let ensemble = model.cedar_mflops_ensemble();
    out.push(*ensemble.last().expect("SPICE closes the ensemble"));
    out
}

/// Autotasked YMP speedup: Amdahl with a size-dependent serial
/// fraction (documented reconstruction — autotasking parallelized
/// the big loops, small problems keep proportionally more serial
/// glue).
fn ymp_autotask_speedup(p: usize, n: usize) -> f64 {
    let serial_fraction = 0.08 + 200.0 / n as f64;
    p as f64 / (1.0 + (p as f64 - 1.0) * serial_fraction)
}

/// Rate roll-off at small problem sizes (vector startup / pipeline
/// fill): severe enough at N=1K to trip the 2× size-stability bound.
fn size_factor(n: usize) -> f64 {
    1.0 / (1.0 + 2_000.0 / n as f64)
}

/// Per-code fraction of the tuned Cray-1 rate its vectorizing
/// compiler recovered (documented reconstruction: mature vectorizer,
/// irregular codes excepted).
const CRAY1_RECOVERY: [f64; 13] = [
    0.75, 0.90, 0.70, 0.80, 0.90, 0.60, 0.70, 0.75, 0.50, 0.80, 0.55, 0.60, 0.95,
];

/// Per-code CM Fortran recovery on the CM-5 (documented
/// reconstruction: data-parallel compilation suits the regular
/// codes, abandons the irregular ones).
const CM5_RECOVERY: [f64; 13] = [
    0.55, 0.65, 0.45, 0.50, 0.70, 0.35, 0.50, 0.60, 0.40, 0.55, 0.25, 0.30, 0.60,
];

fn concat(mut a: Vec<f64>, b: Vec<f64>) -> Vec<f64> {
    a.extend(b);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_snap::Snapshot;

    #[test]
    fn spec_matrix_covers_every_cell_once() {
        let all = specs(false);
        assert_eq!(all.len(), MACHINES.len() * WORKLOADS.len());
        let mut keys: Vec<String> = all
            .iter()
            .map(|s| s.snapshot_key(CACHE_NAMESPACE))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), all.len(), "cell keys must be distinct");
    }

    #[test]
    fn smoke_changes_only_simulated_cell_keys() {
        for (full, smoke) in specs(false).into_iter().zip(specs(true)) {
            assert_ne!(
                full.snapshot_key(CACHE_NAMESPACE),
                smoke.snapshot_key(CACHE_NAMESPACE),
                "smoke is part of the key"
            );
        }
    }

    #[test]
    fn analytic_cells_are_cheap_and_deterministic() {
        let spec = ZooCellSpec {
            machine: Machine::T3d.tag(),
            workload: Workload::Scalability.tag(),
            smoke: true,
        };
        let a = run_cell(spec);
        let b = run_cell(spec);
        assert_eq!(a, b);
        assert_eq!(
            a.primary.len(),
            scalability_coords(Machine::T3d, true).len()
        );
    }

    #[test]
    fn compiled_cells_carry_the_ppt3_pair() {
        for m in [Machine::Cray1, Machine::T3, Machine::Workstation] {
            let cell = run_cell(ZooCellSpec {
                machine: m.tag(),
                workload: Workload::PerfectCompiled.tag(),
                smoke: true,
            });
            assert_eq!(cell.aux.len(), 2 * cell.primary.len());
        }
    }

    #[test]
    fn cells_round_trip_through_snapshots() {
        let cell = run_cell(ZooCellSpec {
            machine: Machine::Workstation.tag(),
            workload: Workload::SyncHotspot.tag(),
            smoke: true,
        });
        let bytes = cell.to_snapshot_bytes();
        let back = ZooCell::from_snapshot_bytes(&bytes).expect("round trip");
        assert_eq!(cell, back);
    }
}
