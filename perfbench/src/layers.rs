//! The calls `JobSpec::execute` makes into the `net` and `faults`
//! layers, made one by one so each can be timed from outside.
//!
//! The traced runs use [`traced_execute`] in place of
//! `JobSpec::execute`; every outcome it yields is checked byte for byte
//! against `JobSpec::execute`'s, so a drift between the two recipes is
//! a failed operation, not a silently different measurement.

use cedar_faults::{CedarError, FaultConfig, FaultPlan, MachineShape, RetryPolicy};
use cedar_net::fabric::{FabricConfig, PrefetchTraffic, RoundTripFabric};
use cedar_serve::job::{JobOutcome, JobSpec, KERNELS, WATCHDOG_BUDGET};
use cedar_sim::watchdog::Watchdog;

use crate::trace::Tracer;

/// Simulated-network cycle budget per point: the serving tier's
/// default (`ServeConfig::max_net_cycles`), so sweep and serve points
/// run under the same cap.
pub const MAX_NET_CYCLES: u64 = 16_000_000;

/// What one traced point did, beyond its outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointStats {
    pub specialized: bool,
    pub ff_cycles: u64,
    pub net_cycles: u64,
    pub retries: u64,
    pub requests: u64,
}

fn shape(spec: &JobSpec) -> (usize, PrefetchTraffic, Option<(u32, u64)>) {
    match *spec {
        JobSpec::Table2 {
            kernel,
            ces,
            blocks,
        } => {
            let traffic = match KERNELS[kernel as usize] {
                "TM" => PrefetchTraffic::tridiagonal_matvec(blocks),
                "CG" => PrefetchTraffic::conjugate_gradient(blocks),
                "VF" => PrefetchTraffic::vector_load(blocks),
                _ => PrefetchTraffic::rk_aggressive(blocks),
            };
            (ces as usize, traffic, None)
        }
        JobSpec::Degraded {
            rate_ppm,
            ces,
            blocks,
            seed,
        } => {
            let mut traffic = PrefetchTraffic::rk_aggressive(4);
            traffic.blocks = blocks;
            (ces as usize, traffic, Some((rate_ppm, seed)))
        }
        JobSpec::Hotspot {
            hot_ppm,
            ces,
            blocks,
        } => (
            ces as usize,
            PrefetchTraffic::sync_hotspot(blocks, f64::from(hot_ppm) / 1e6),
            None,
        ),
        JobSpec::Zoo { .. } => unreachable!("the benchmark generates no zoo specs"),
    }
}

/// Executes `spec` like `JobSpec::execute`, recording `net.build`,
/// `faults.plan`, `net.run` and `net.reduce` spans under `parent`.
///
/// # Errors
///
/// Describes a fault-plan error or a watchdog stall.
pub fn traced_execute(
    spec: &JobSpec,
    id: u64,
    parent: &'static str,
    t: &mut Tracer,
) -> Result<(JobOutcome, PointStats), String> {
    let (ces, traffic, faults) = shape(spec);
    let p = Some(parent);
    let mut fabric = t.time(id, "net.build", p, || {
        RoundTripFabric::new(FabricConfig::cedar())
    });
    let report = if let Some((rate_ppm, seed)) = faults {
        let rate = f64::from(rate_ppm) / 1e6;
        let cfg = if rate == 0.0 {
            FaultConfig::none(seed)
        } else {
            FaultConfig::degraded(seed, rate)
        };
        let plan = t
            .time(id, "faults.plan", p, || {
                FaultPlan::generate(&cfg, &MachineShape::cedar())
            })
            .map_err(|e| e.to_string())?;
        fabric.attach_faults(plan, RetryPolicy::fabric());
        let mut dog = Watchdog::new(WATCHDOG_BUDGET, "perfbench degraded point");
        t.time(id, "net.run", p, || {
            fabric.run_watched_experiment(ces, traffic, MAX_NET_CYCLES, &mut dog)
        })
        .map_err(|e| match e {
            CedarError::Stalled(report) => format!("watchdog tripped: {report}"),
            other => other.to_string(),
        })?
    } else {
        t.time(id, "net.run", p, || {
            fabric.run_prefetch_experiment(ces, traffic, MAX_NET_CYCLES)
        })
    };
    let outcome = t.time(id, "net.reduce", p, || JobOutcome {
        degraded: report.retries() > 0
            || report.failed_requests() > 0
            || report.words_dropped() > 0
            || report.module_discards() > 0
            || !report.completed(),
        latency: report.mean_first_word_latency_ce(),
        interarrival: report.mean_interarrival_ce(),
        bandwidth: report.words_per_ce_cycle(),
        net_cycles: report.total_net_cycles,
        words_dropped: report.words_dropped(),
        retries: report.retries(),
        failed: report.failed_requests(),
    });
    let stats = PointStats {
        specialized: fabric.last_run_engine() == Some("specialized"),
        ff_cycles: fabric.fast_forwarded_cycles(),
        net_cycles: report.total_net_cycles,
        retries: report.retries(),
        requests: report.request_count(),
    };
    Ok((outcome, stats))
}

/// Sums of [`PointStats`] over many points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetTotals {
    pub points: u64,
    pub specialized: u64,
    pub ff_cycles: u64,
    pub net_cycles: u64,
    pub retries: u64,
    pub requests: u64,
}

impl NetTotals {
    pub fn add(&mut self, s: &PointStats) {
        self.points += 1;
        self.specialized += u64::from(s.specialized);
        self.ff_cycles += s.ff_cycles;
        self.net_cycles += s.net_cycles;
        self.retries += s.retries;
        self.requests += s.requests;
    }
}

/// Divides, reading an empty denominator as 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_snap::Snapshot;
    use std::time::Instant;

    #[test]
    fn traced_recipe_matches_execute_on_every_family() {
        let mut t = Tracer::new(Instant::now());
        for spec in [
            JobSpec::Table2 {
                kernel: 3,
                ces: 8,
                blocks: 1,
            },
            JobSpec::Table2 {
                kernel: 0,
                ces: 16,
                blocks: 2,
            },
            JobSpec::Hotspot {
                hot_ppm: 12_345,
                ces: 4,
                blocks: 1,
            },
            JobSpec::Degraded {
                rate_ppm: 5_000,
                ces: 8,
                blocks: 1,
                seed: 3,
            },
        ] {
            let (traced, stats) = traced_execute(&spec, 1, "exec.point", &mut t).unwrap();
            let direct = spec.execute(MAX_NET_CYCLES).unwrap();
            assert_eq!(
                traced.to_snapshot_bytes(),
                direct.to_snapshot_bytes(),
                "{spec:?}"
            );
            let faulted = matches!(spec, JobSpec::Degraded { .. });
            assert_eq!(stats.specialized, !faulted, "{spec:?}");
        }
        assert_eq!(t.total("faults.plan").0, 1);
        assert_eq!(t.total("net.build").0, 4);
    }
}
