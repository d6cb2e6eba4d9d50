//! Job specifications and their deterministic execution.
//!
//! A job is one self-contained simulation experiment — the same units
//! the bench harness sweeps (Table-2 kernel cells, degraded-mode grid
//! points, hot-spot fractions, machine-zoo hotspot cells), sized by
//! the request. Execution is a
//! pure function of the spec: same spec, same [`JobOutcome`], bit for
//! bit, which is what makes request dedup and cross-run memoization
//! sound. The bench's degraded and hot-spot studies run these specs
//! too, so their points are the server's and the fleet's cache
//! entries, and [`JobSpec::recipe`] is the one place a fabric-backed
//! point's machine, fault plan and traffic are spelled out.
//!
//! Fault semantics follow `cedar-faults`: a degraded job that loses
//! words to its injected fault plan *completes* with a typed
//! degraded-mode outcome (recovery costs included), and even a
//! watchdog-stalled simulation surfaces as a typed [`JobError`], never
//! as a dead connection or a crashed server.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cedar_faults::{CedarError, FaultConfig, FaultPlan, MachineShape, RetryPolicy};
use cedar_net::fabric::{FabricConfig, FabricReport, PrefetchTraffic, RoundTripFabric};
use cedar_sim::watchdog::Watchdog;
use cedar_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::json::Json;

/// Hard cap on requested CEs — the Cedar fabric's port count.
pub const MAX_CES: u32 = 32;

/// Hard cap on requested prefetch blocks, bounding per-job cost.
pub const MAX_BLOCKS: u32 = 64;

/// Watchdog budget for fault-injected jobs, in network cycles. Far
/// beyond any recoverable stall; tripping means the job's machine
/// genuinely wedged, which the server reports as a typed error.
pub const WATCHDOG_BUDGET: u64 = 4_000_000;

/// Simulated-network cycle budget per job: the server's default and
/// the one a cluster worker runs every job with, so both tiers compute
/// (and cache) the same outcome for a spec.
pub const MAX_NET_CYCLES: u64 = 16_000_000;

/// Cache/dedup namespace for job outcomes. Bump the suffix when the
/// execution recipe changes so stale entries self-invalidate.
pub const CACHE_NAMESPACE: &str = "serve.job/1";

/// The fault-schedule seed of a `degraded` request that names none,
/// and the seed of the bench's degraded study.
pub const DEFAULT_SEED: u64 = 0xCEDA;

/// The Table-2 kernels a `table2` job may name.
pub const KERNELS: [&str; 4] = ["TM", "CG", "VF", "RK"];

/// Hard cap on a `zoo` job's per-CE request count, bounding the
/// simulated machines' per-job cost.
pub const MAX_ZOO_REQUESTS: u32 = 256;

/// A rate or fraction of 1, in parts per million: the largest value
/// `rate_ppm` and `hot_ppm` may carry.
const PPM_ONE: u32 = 1_000_000;

/// One request's simulation work. Rates and fractions are carried in
/// parts-per-million so specs hash and compare exactly — two requests
/// for "2% faults" always share a dedup key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpec {
    /// A Table-2 kernel cell: the named kernel's prefetch stream on a
    /// healthy fabric.
    Table2 {
        /// Kernel index into [`KERNELS`].
        kernel: u8,
        /// Active CEs (1..=32).
        ces: u32,
        /// Prefetch blocks per CE (job size).
        blocks: u32,
    },
    /// A degraded-mode grid point: the RK-style stream against a
    /// seeded fault plan.
    Degraded {
        /// Link-drop / sync-loss rate in parts per million.
        rate_ppm: u32,
        /// Active CEs (1..=32).
        ces: u32,
        /// Prefetch blocks per CE (job size).
        blocks: u32,
        /// Fault-schedule seed.
        seed: u64,
    },
    /// A synchronization hot-spot point: `hot_ppm` of requests hammer
    /// module 0.
    Hotspot {
        /// Hot fraction in parts per million.
        hot_ppm: u32,
        /// Active CEs (1..=32).
        ces: u32,
        /// Prefetch blocks per CE (job size).
        blocks: u32,
    },
    /// A machine-zoo hotspot point: one cell of the `cedar-zoo`
    /// cross-machine study, on any machine of the roster. Cedar and
    /// the combining Ultra run the real fabric; the analytic machines
    /// evaluate their serialization curves.
    Zoo {
        /// [`cedar_zoo::Machine`] tag.
        machine: u8,
        /// Processors to drive (1..=32).
        ces: u32,
        /// Requests each CE issues (job size, 1..=[`MAX_ZOO_REQUESTS`]).
        requests: u32,
        /// Hot fraction in parts per million.
        hot_ppm: u32,
    },
}

/// The result of one executed job — the Table-2-shaped measurement
/// plus the fault-recovery costs that make an outcome "degraded".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// Whether faults touched this run (drops, retries or failures):
    /// the typed degraded-mode marker.
    pub degraded: bool,
    /// Mean first-word latency, CE cycles.
    pub latency: f64,
    /// Mean interarrival between streamed words, CE cycles.
    pub interarrival: f64,
    /// Delivered bandwidth, words per CE cycle.
    pub bandwidth: f64,
    /// Simulated network cycles the experiment ran.
    pub net_cycles: u64,
    /// Words eaten by faulted links.
    pub words_dropped: u64,
    /// Requests reissued after a timeout.
    pub retries: u64,
    /// Requests abandoned after the retry budget.
    pub failed: u64,
}

cedar_snap::snapshot_struct!(JobOutcome {
    degraded,
    latency,
    interarrival,
    bandwidth,
    net_cycles,
    words_dropped,
    retries,
    failed,
});

impl JobOutcome {
    /// The outcome of a fabric run: its Table-2 measurement, its
    /// recovery costs, and `degraded` if faults touched it at all.
    #[must_use]
    pub fn from_report(report: &FabricReport) -> JobOutcome {
        let degraded = report.retries() > 0
            || report.failed_requests() > 0
            || report.words_dropped() > 0
            || report.module_discards() > 0
            || !report.completed();
        JobOutcome {
            degraded,
            latency: report.mean_first_word_latency_ce(),
            interarrival: report.mean_interarrival_ce(),
            bandwidth: report.words_per_ce_cycle(),
            net_cycles: report.total_net_cycles,
            words_dropped: report.words_dropped(),
            retries: report.retries(),
            failed: report.failed_requests(),
        }
    }
}

/// A fabric-backed spec's run, built but not yet started:
/// [`JobSpec::execute`] runs exactly this, and a caller that drives
/// the run another way (checkpointed, or on a chosen engine) starts
/// from it rather than restating it.
#[derive(Debug)]
pub struct Recipe {
    /// A fresh Cedar fabric with the spec's fault plan attached.
    pub fabric: RoundTripFabric,
    /// Active CEs.
    pub ces: usize,
    /// The prefetch stream every active CE issues.
    pub traffic: PrefetchTraffic,
    /// The watchdog a fault-injected run is watched by; `None` for a
    /// healthy spec.
    pub watchdog: Option<Watchdog>,
}

impl Recipe {
    /// Runs the experiment for at most `max_net_cycles`, watched if the
    /// recipe carries a watchdog.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Stalled`] if the watchdog trips.
    pub fn run(&mut self, max_net_cycles: u64) -> Result<FabricReport, JobError> {
        let Some(dog) = &mut self.watchdog else {
            return Ok(self
                .fabric
                .run_prefetch_experiment(self.ces, self.traffic, max_net_cycles));
        };
        self.fabric
            .run_watched_experiment(self.ces, self.traffic, max_net_cycles, dog)
            .map_err(|e| match e {
                CedarError::Stalled(report) => {
                    JobError::Stalled(format!("watchdog tripped: {report}"))
                }
                other => JobError::Stalled(other.to_string()),
            })
    }
}

/// Why a request did not produce a [`JobOutcome`]. Every variant maps
/// to a typed wire status — the server never answers a bad or unlucky
/// request with a dropped connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The request was malformed or out of bounds.
    Invalid(String),
    /// Admission control refused the job (queue full or draining).
    Rejected(String),
    /// The job's deadline passed before execution started.
    Expired,
    /// The server was shut down hard before the job ran.
    Cancelled,
    /// The simulation itself wedged (watchdog trip) or panicked — a
    /// typed error, not a 500.
    Stalled(String),
}

impl JobError {
    /// The wire `status` string of this error.
    #[must_use]
    pub fn status(&self) -> &'static str {
        match self {
            JobError::Invalid(_) => "invalid",
            JobError::Rejected(_) => "rejected",
            JobError::Expired => "expired",
            JobError::Cancelled => "cancelled",
            JobError::Stalled(_) => "error",
        }
    }

    /// The wire `reason` string of this error.
    #[must_use]
    pub fn reason(&self) -> String {
        match self {
            JobError::Invalid(m) | JobError::Rejected(m) | JobError::Stalled(m) => m.clone(),
            JobError::Expired => "deadline expired before execution".to_owned(),
            JobError::Cancelled => "server shut down before execution".to_owned(),
        }
    }
}

/// Runs one job's execution behind the panic guard every executor
/// shares: the server's workers and the fleet's worker processes. A
/// panic becomes a typed [`JobError::Stalled`] (wire status `error`)
/// carrying the panic message, so one bad job fails alone and the
/// thread that ran it keeps serving.
///
/// # Errors
///
/// Whatever `job` returns, or [`JobError::Stalled`] if it panicked.
pub fn caught(job: impl FnOnce() -> Result<JobOutcome, JobError>) -> Result<JobOutcome, JobError> {
    catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic".to_owned());
        Err(JobError::Stalled(format!("job panicked: {msg}")))
    })
}

impl JobSpec {
    /// Parses the `job` object of a request line.
    ///
    /// # Errors
    ///
    /// Returns a [`JobError::Invalid`] naming the offending field.
    pub fn from_json(job: &Json) -> Result<JobSpec, JobError> {
        let ty = job
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| JobError::Invalid("job.type missing".into()))?;
        let ces = field_u32(job, "ces", 8)?;
        let blocks = field_u32(job, "blocks", 4)?;
        let spec = match ty {
            "table2" => {
                let name = job
                    .get("kernel")
                    .and_then(Json::as_str)
                    .ok_or_else(|| JobError::Invalid("job.kernel missing".into()))?;
                let kernel = KERNELS
                    .iter()
                    .position(|&k| k == name)
                    .ok_or_else(|| JobError::Invalid(format!("unknown kernel {name:?}")))?;
                JobSpec::Table2 {
                    kernel: kernel as u8,
                    ces,
                    blocks,
                }
            }
            "degraded" => JobSpec::Degraded {
                rate_ppm: field_ppm(job, "rate")?,
                ces,
                blocks,
                seed: job
                    .get("seed")
                    .and_then(Json::as_u64)
                    .unwrap_or(DEFAULT_SEED),
            },
            "hotspot" => JobSpec::Hotspot {
                hot_ppm: field_ppm(job, "fraction")?,
                ces,
                blocks,
            },
            "zoo" => {
                let name = job
                    .get("machine")
                    .and_then(Json::as_str)
                    .ok_or_else(|| JobError::Invalid("job.machine missing".into()))?;
                let machine = cedar_zoo::Machine::from_name(name)
                    .ok_or_else(|| JobError::Invalid(format!("unknown machine {name:?}")))?;
                JobSpec::Zoo {
                    machine: machine.tag(),
                    ces,
                    requests: field_u32(job, "requests", 16)?,
                    hot_ppm: field_ppm(job, "fraction")?,
                }
            }
            other => return Err(JobError::Invalid(format!("unknown job type {other:?}"))),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks every bound [`JobSpec::from_json`] enforces, so a spec
    /// decoded from bytes (a binary `Run` frame, a cluster job) is held
    /// to the same limits as one parsed from JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`JobError::Invalid`] naming the offending field.
    pub fn validate(&self) -> Result<(), JobError> {
        match *self {
            JobSpec::Table2 {
                kernel,
                ces,
                blocks,
            } => {
                within("ces", ces, 1, MAX_CES)?;
                within("blocks", blocks, 1, MAX_BLOCKS)?;
                within("kernel", u32::from(kernel), 0, KERNELS.len() as u32 - 1)
            }
            JobSpec::Degraded {
                rate_ppm,
                ces,
                blocks,
                ..
            } => {
                within("ces", ces, 1, MAX_CES)?;
                within("blocks", blocks, 1, MAX_BLOCKS)?;
                within("rate_ppm", rate_ppm, 0, PPM_ONE)
            }
            JobSpec::Hotspot {
                hot_ppm,
                ces,
                blocks,
            } => {
                within("ces", ces, 1, MAX_CES)?;
                within("blocks", blocks, 1, MAX_BLOCKS)?;
                within("hot_ppm", hot_ppm, 0, PPM_ONE)
            }
            JobSpec::Zoo {
                machine,
                ces,
                requests,
                hot_ppm,
            } => {
                within("ces", ces, 1, MAX_CES)?;
                if cedar_zoo::Machine::from_tag(machine).is_none() {
                    return Err(JobError::Invalid(format!("unknown machine tag {machine}")));
                }
                within("requests", requests, 1, MAX_ZOO_REQUESTS)?;
                within("hot_ppm", hot_ppm, 0, PPM_ONE)
            }
        }
    }

    /// The job's content-addressed dedup/memoization key. Identical
    /// experiment requests — whatever their request ids, priorities or
    /// deadlines — collapse onto one key.
    #[must_use]
    pub fn key(&self) -> String {
        self.snapshot_key(CACHE_NAMESPACE)
    }

    /// A short human-readable description for logs.
    #[must_use]
    pub fn describe(&self) -> String {
        match *self {
            JobSpec::Table2 {
                kernel,
                ces,
                blocks,
            } => format!(
                "table2 {} ces={ces} blocks={blocks}",
                KERNELS[kernel as usize]
            ),
            JobSpec::Degraded {
                rate_ppm,
                ces,
                blocks,
                seed,
            } => format!(
                "degraded rate={}ppm ces={ces} blocks={blocks} seed={seed:#x}",
                rate_ppm
            ),
            JobSpec::Hotspot {
                hot_ppm,
                ces,
                blocks,
            } => format!("hotspot frac={hot_ppm}ppm ces={ces} blocks={blocks}"),
            JobSpec::Zoo {
                machine,
                ces,
                requests,
                hot_ppm,
            } => format!(
                "zoo {} ces={ces} requests={requests} frac={hot_ppm}ppm",
                cedar_zoo::Machine::from_tag(machine).map_or("?", cedar_zoo::Machine::name)
            ),
        }
    }

    /// The fabric run behind a `table2`, `degraded` or `hotspot` spec:
    /// a fresh Cedar fabric (with the seeded fault plan attached for
    /// `degraded`, rate 0 being the benign no-fault plan), the CE count
    /// and the traffic.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Invalid`] for a `zoo` spec, which runs the
    /// zoo's machines instead, or for a fault plan that cannot be
    /// generated.
    pub fn recipe(&self) -> Result<Recipe, JobError> {
        let (ces, traffic) = match *self {
            JobSpec::Table2 {
                kernel,
                ces,
                blocks,
            } => (
                ces,
                match KERNELS[kernel as usize] {
                    "TM" => PrefetchTraffic::tridiagonal_matvec(blocks),
                    "CG" => PrefetchTraffic::conjugate_gradient(blocks),
                    "VF" => PrefetchTraffic::vector_load(blocks),
                    "RK" => PrefetchTraffic::rk_aggressive(blocks),
                    other => unreachable!("validated kernel {other}"),
                },
            ),
            // Table 2's RK stream: the heaviest global-memory customer.
            JobSpec::Degraded { ces, blocks, .. } => (ces, PrefetchTraffic::rk_aggressive(blocks)),
            JobSpec::Hotspot {
                hot_ppm,
                ces,
                blocks,
            } => (
                ces,
                PrefetchTraffic::sync_hotspot(blocks, f64::from(hot_ppm) / 1e6),
            ),
            JobSpec::Zoo { .. } => {
                return Err(JobError::Invalid("zoo jobs have no fabric recipe".into()))
            }
        };
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        let mut watchdog = None;
        if let JobSpec::Degraded { rate_ppm, seed, .. } = *self {
            let cfg = if rate_ppm == 0 {
                FaultConfig::none(seed)
            } else {
                FaultConfig::degraded(seed, f64::from(rate_ppm) / 1e6)
            };
            let plan = FaultPlan::generate(&cfg, &MachineShape::cedar())
                .map_err(|e| JobError::Invalid(e.to_string()))?;
            fabric.attach_faults(plan, RetryPolicy::fabric());
            watchdog = Some(Watchdog::new(WATCHDOG_BUDGET, "degraded job"));
        }
        Ok(Recipe {
            fabric,
            ces: ces as usize,
            traffic,
            watchdog,
        })
    }

    /// Executes the job: a `zoo` spec on its machine, any other on its
    /// [`recipe`](JobSpec::recipe). Pure: same spec and budget, same
    /// outcome, whatever thread runs it.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Stalled`] if the watchdog trips on a
    /// fault-injected run.
    pub fn execute(&self, max_net_cycles: u64) -> Result<JobOutcome, JobError> {
        if let JobSpec::Zoo {
            machine,
            ces,
            requests,
            hot_ppm,
        } = *self
        {
            let machine = cedar_zoo::Machine::from_tag(machine)
                .ok_or_else(|| JobError::Invalid(format!("unknown machine tag {machine}")))?;
            let point =
                cedar_zoo::hotspot_point(machine, ces as usize, u64::from(requests), hot_ppm);
            return Ok(JobOutcome {
                degraded: false,
                latency: point.latency_ce,
                interarrival: 0.0,
                bandwidth: point.bandwidth,
                net_cycles: point.net_cycles,
                words_dropped: 0,
                retries: 0,
                failed: 0,
            });
        }
        let report = self.recipe()?.run(max_net_cycles)?;
        Ok(JobOutcome::from_report(&report))
    }
}

/// Rejects `value` outside `lo..=hi`, naming the spec field.
fn within(field: &str, value: u32, lo: u32, hi: u32) -> Result<(), JobError> {
    if (lo..=hi).contains(&value) {
        Ok(())
    } else {
        Err(JobError::Invalid(format!(
            "job.{field} must be in {lo}..={hi}, got {value}"
        )))
    }
}

fn field_u32(job: &Json, key: &str, default: u32) -> Result<u32, JobError> {
    match job.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| JobError::Invalid(format!("job.{key} must be a small integer"))),
    }
}

fn field_ppm(job: &Json, key: &str) -> Result<u32, JobError> {
    match job.get(key) {
        None => Ok(0),
        Some(v) => {
            let f = v
                .as_f64()
                .ok_or_else(|| JobError::Invalid(format!("job.{key} must be a number")))?;
            if !(0.0..=1.0).contains(&f) {
                return Err(JobError::Invalid(format!(
                    "job.{key} must be in [0, 1], got {f}"
                )));
            }
            Ok((f * 1e6).round() as u32)
        }
    }
}

impl Snapshot for JobSpec {
    fn snap(&self, w: &mut SnapWriter) {
        match *self {
            JobSpec::Table2 {
                kernel,
                ces,
                blocks,
            } => {
                w.put_u8(0);
                w.put_u8(kernel);
                w.put_u32(ces);
                w.put_u32(blocks);
            }
            JobSpec::Degraded {
                rate_ppm,
                ces,
                blocks,
                seed,
            } => {
                w.put_u8(1);
                w.put_u32(rate_ppm);
                w.put_u32(ces);
                w.put_u32(blocks);
                w.put_u64(seed);
            }
            JobSpec::Hotspot {
                hot_ppm,
                ces,
                blocks,
            } => {
                w.put_u8(2);
                w.put_u32(hot_ppm);
                w.put_u32(ces);
                w.put_u32(blocks);
            }
            JobSpec::Zoo {
                machine,
                ces,
                requests,
                hot_ppm,
            } => {
                w.put_u8(3);
                w.put_u8(machine);
                w.put_u32(ces);
                w.put_u32(requests);
                w.put_u32(hot_ppm);
            }
        }
    }

    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(JobSpec::Table2 {
                kernel: r.get_u8()?,
                ces: r.get_u32()?,
                blocks: r.get_u32()?,
            }),
            1 => Ok(JobSpec::Degraded {
                rate_ppm: r.get_u32()?,
                ces: r.get_u32()?,
                blocks: r.get_u32()?,
                seed: r.get_u64()?,
            }),
            2 => Ok(JobSpec::Hotspot {
                hot_ppm: r.get_u32()?,
                ces: r.get_u32()?,
                blocks: r.get_u32()?,
            }),
            3 => Ok(JobSpec::Zoo {
                machine: r.get_u8()?,
                ces: r.get_u32()?,
                requests: r.get_u32()?,
                hot_ppm: r.get_u32()?,
            }),
            _ => Err(SnapError::Invalid("unknown JobSpec tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn spec(line: &str) -> Result<JobSpec, JobError> {
        JobSpec::from_json(&json::parse(line).unwrap())
    }

    #[test]
    fn parses_every_job_type() {
        let t = spec(r#"{"type":"table2","kernel":"RK","ces":8,"blocks":2}"#).unwrap();
        assert_eq!(
            t,
            JobSpec::Table2 {
                kernel: 3,
                ces: 8,
                blocks: 2
            }
        );
        let d = spec(r#"{"type":"degraded","rate":0.02,"ces":8,"blocks":2,"seed":7}"#).unwrap();
        assert_eq!(
            d,
            JobSpec::Degraded {
                rate_ppm: 20_000,
                ces: 8,
                blocks: 2,
                seed: 7
            }
        );
        let h = spec(r#"{"type":"hotspot","fraction":0.05,"ces":4}"#).unwrap();
        assert_eq!(
            h,
            JobSpec::Hotspot {
                hot_ppm: 50_000,
                ces: 4,
                blocks: 4
            }
        );
        let z = spec(r#"{"type":"zoo","machine":"ultra","ces":8,"requests":32,"fraction":0.25}"#)
            .unwrap();
        assert_eq!(
            z,
            JobSpec::Zoo {
                machine: 5,
                ces: 8,
                requests: 32,
                hot_ppm: 250_000
            }
        );
    }

    #[test]
    fn rejects_out_of_bounds_typed() {
        for bad in [
            r#"{"type":"mystery"}"#,
            r#"{"type":"table2","kernel":"XX"}"#,
            r#"{"type":"table2","kernel":"RK","ces":64}"#,
            r#"{"type":"hotspot","ces":0}"#,
            r#"{"type":"hotspot","blocks":1000}"#,
            r#"{"type":"hotspot","fraction":1.5}"#,
            r#"{"type":"degraded","rate":-0.1}"#,
            r#"{"type":"zoo"}"#,
            r#"{"type":"zoo","machine":"cray2"}"#,
            r#"{"type":"zoo","machine":"ultra","ces":64}"#,
            r#"{"type":"zoo","machine":"ultra","ces":0}"#,
            r#"{"type":"zoo","machine":"cedar","requests":0}"#,
            r#"{"type":"zoo","machine":"cedar","requests":1000}"#,
            r#"{"type":"zoo","machine":"t3d","fraction":2.0}"#,
        ] {
            let err = spec(bad).expect_err(bad);
            assert!(matches!(err, JobError::Invalid(_)), "{bad}: {err:?}");
        }
    }

    /// The JSON request that asks for `s`: names stand for indices
    /// (an index past the table has none) and fractions for ppm.
    fn as_json(s: &JobSpec) -> String {
        let frac = |ppm: u32| f64::from(ppm) / 1e6;
        match *s {
            JobSpec::Table2 {
                kernel,
                ces,
                blocks,
            } => format!(
                r#"{{"type":"table2","kernel":"{}","ces":{ces},"blocks":{blocks}}}"#,
                KERNELS.get(usize::from(kernel)).unwrap_or(&"?")
            ),
            JobSpec::Degraded {
                rate_ppm,
                ces,
                blocks,
                seed,
            } => format!(
                r#"{{"type":"degraded","rate":{},"ces":{ces},"blocks":{blocks},"seed":{seed}}}"#,
                frac(rate_ppm)
            ),
            JobSpec::Hotspot {
                hot_ppm,
                ces,
                blocks,
            } => format!(
                r#"{{"type":"hotspot","fraction":{},"ces":{ces},"blocks":{blocks}}}"#,
                frac(hot_ppm)
            ),
            JobSpec::Zoo {
                machine,
                ces,
                requests,
                hot_ppm,
            } => format!(
                r#"{{"type":"zoo","machine":"{}","ces":{ces},"requests":{requests},"fraction":{}}}"#,
                cedar_zoo::Machine::from_tag(machine).map_or("?", cedar_zoo::Machine::name),
                frac(hot_ppm)
            ),
        }
    }

    #[test]
    fn validate_rejects_exactly_what_the_json_path_rejects() {
        // Every bounded field at 0, its bound, bound + 1 and its type's
        // max, one field at a time, on every variant that carries it.
        let edges = |bound: u32| [0, bound, bound + 1, u32::MAX];
        let edges_u8 = |bound: u8| [0, bound, bound + 1, u8::MAX];
        let table2 = |kernel, ces, blocks| JobSpec::Table2 {
            kernel,
            ces,
            blocks,
        };
        let degraded = |rate_ppm, ces, blocks| JobSpec::Degraded {
            rate_ppm,
            ces,
            blocks,
            seed: 7,
        };
        let hotspot = |hot_ppm, ces, blocks| JobSpec::Hotspot {
            hot_ppm,
            ces,
            blocks,
        };
        let zoo = |machine, ces, requests, hot_ppm| JobSpec::Zoo {
            machine,
            ces,
            requests,
            hot_ppm,
        };
        let mut specs = Vec::new();
        for kernel in edges_u8(KERNELS.len() as u8 - 1) {
            specs.push(table2(kernel, 8, 2));
        }
        for machine in edges_u8(cedar_zoo::MACHINES.len() as u8 - 1) {
            specs.push(zoo(machine, 8, 16, 250_000));
        }
        for ces in edges(MAX_CES) {
            specs.extend([
                table2(0, ces, 2),
                degraded(20_000, ces, 2),
                hotspot(50_000, ces, 2),
                zoo(5, ces, 16, 250_000),
            ]);
        }
        for blocks in edges(MAX_BLOCKS) {
            specs.extend([
                table2(0, 8, blocks),
                degraded(20_000, 8, blocks),
                hotspot(50_000, 8, blocks),
            ]);
        }
        for ppm in edges(PPM_ONE) {
            specs.extend([degraded(ppm, 8, 2), hotspot(ppm, 8, 2), zoo(5, 8, 16, ppm)]);
        }
        for requests in edges(MAX_ZOO_REQUESTS) {
            specs.push(zoo(5, 8, requests, 250_000));
        }

        let mut rejected = 0;
        for s in &specs {
            let line = as_json(s);
            match s.validate() {
                Ok(()) => assert_eq!(spec(&line).as_ref(), Ok(s), "{line}"),
                Err(e) => {
                    assert!(matches!(e, JobError::Invalid(_)), "{s:?}: {e:?}");
                    assert!(
                        spec(&line).is_err(),
                        "JSON accepts what validate rejects: {line}"
                    );
                    rejected += 1;
                }
            }
        }
        // Per field: bound + 1 and the type max, plus 0 for the fields
        // whose range starts at 1 (ces x4, blocks x3, requests).
        assert_eq!(rejected, 2 * (specs.len() / 4) + 8);
    }

    #[test]
    fn identical_specs_share_a_key_distinct_ones_do_not() {
        let a = spec(r#"{"type":"hotspot","fraction":0.05,"ces":4,"blocks":2}"#).unwrap();
        let b = spec(r#"{"type":"hotspot","ces":4,"fraction":0.05,"blocks":2}"#).unwrap();
        assert_eq!(a.key(), b.key(), "field order must not matter");
        let c = spec(r#"{"type":"hotspot","fraction":0.06,"ces":4,"blocks":2}"#).unwrap();
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn zoo_specs_dedup_on_content_not_spelling() {
        let a = spec(r#"{"type":"zoo","machine":"ultra","ces":8,"requests":32,"fraction":0.25}"#)
            .unwrap();
        let b = spec(r#"{"type":"zoo","fraction":0.25,"requests":32,"ces":8,"machine":"ultra"}"#)
            .unwrap();
        assert_eq!(a.key(), b.key(), "field order must not matter");
        for different in [
            r#"{"type":"zoo","machine":"cedar","ces":8,"requests":32,"fraction":0.25}"#,
            r#"{"type":"zoo","machine":"ultra","ces":16,"requests":32,"fraction":0.25}"#,
            r#"{"type":"zoo","machine":"ultra","ces":8,"requests":64,"fraction":0.25}"#,
        ] {
            assert_ne!(a.key(), spec(different).unwrap().key(), "{different}");
        }
        // Zoo keys live in the same namespace as every other family
        // and must never collide with a structurally similar hotspot.
        let h = spec(r#"{"type":"hotspot","fraction":0.25,"ces":8,"blocks":32}"#).unwrap();
        assert_ne!(a.key(), h.key());
    }

    #[test]
    fn zoo_execution_is_deterministic_and_combining_shows_up() {
        let ultra =
            spec(r#"{"type":"zoo","machine":"ultra","ces":8,"requests":16,"fraction":0.25}"#)
                .unwrap();
        let a = ultra.execute(8_000_000).unwrap();
        let b = ultra.execute(8_000_000).unwrap();
        assert_eq!(a, b);
        assert!(!a.degraded);
        assert!(a.bandwidth > 0.0 && a.net_cycles > 0);
        let cedar =
            spec(r#"{"type":"zoo","machine":"cedar","ces":8,"requests":16,"fraction":0.25}"#)
                .unwrap()
                .execute(8_000_000)
                .unwrap();
        assert!(
            a.bandwidth > cedar.bandwidth,
            "combining must beat the plain omega on hot traffic"
        );
        // Analytic machines answer instantly with their curve value.
        let t3d = spec(r#"{"type":"zoo","machine":"t3d","ces":8,"requests":16,"fraction":0.25}"#)
            .unwrap()
            .execute(8_000_000)
            .unwrap();
        assert!(t3d.bandwidth > 0.0);
        assert_eq!(t3d.net_cycles, 0);
    }

    #[test]
    fn specs_round_trip_through_snapshots() {
        for line in [
            r#"{"type":"table2","kernel":"TM","ces":16,"blocks":8}"#,
            r#"{"type":"degraded","rate":0.05,"ces":8,"blocks":2,"seed":99}"#,
            r#"{"type":"hotspot","fraction":0.25,"ces":32,"blocks":4}"#,
            r#"{"type":"zoo","machine":"t3","ces":16,"requests":8,"fraction":0.5}"#,
        ] {
            let s = spec(line).unwrap();
            let bytes = s.to_snapshot_bytes();
            assert_eq!(JobSpec::from_snapshot_bytes(&bytes).unwrap(), s);
        }
    }

    /// Feeds `restore` every payload a byte flip, a truncation or an
    /// extension of `value`'s makes, each re-sealed with a valid
    /// checksum so it gets past the envelope. A flip must decode or
    /// fail typed (`check` sees what decodes); a strict prefix must be
    /// `Truncated` and a longer payload `TrailingBytes`. A panic
    /// anywhere fails the test.
    fn fuzz_payload<T>(value: &T, mut check: impl FnMut(T)) -> (usize, usize)
    where
        T: Snapshot + PartialEq + std::fmt::Debug,
    {
        let payload = cedar_snap::unseal(&value.to_snapshot_bytes())
            .unwrap()
            .to_vec();
        let (mut decoded, mut refused) = (0, 0);
        for i in 0..payload.len() {
            for mask in [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff] {
                let mut p = payload.clone();
                p[i] ^= mask;
                match T::from_snapshot_bytes(&cedar_snap::seal(&p)) {
                    Ok(v) => {
                        decoded += 1;
                        check(v);
                    }
                    Err(_) => refused += 1,
                }
            }
        }
        for len in 0..payload.len() {
            let sealed = cedar_snap::seal(&payload[..len]);
            assert_eq!(T::from_snapshot_bytes(&sealed), Err(SnapError::Truncated));
        }
        for extra in [&[0u8][..], &[1], &[0xff; 8], &[0; 64]] {
            let sealed = cedar_snap::seal(&[&payload[..], extra].concat());
            assert_eq!(
                T::from_snapshot_bytes(&sealed),
                Err(SnapError::TrailingBytes)
            );
        }
        (decoded, refused)
    }

    #[test]
    fn mutated_resealed_payloads_decode_or_fail_typed() {
        let specs = [
            JobSpec::Table2 {
                kernel: 3,
                ces: 8,
                blocks: 2,
            },
            JobSpec::Degraded {
                rate_ppm: 50_000,
                ces: 32,
                blocks: 8,
                seed: DEFAULT_SEED,
            },
            JobSpec::Hotspot {
                hot_ppm: 250_000,
                ces: 32,
                blocks: 8,
            },
            JobSpec::Zoo {
                machine: 5,
                ces: 8,
                requests: 16,
                hot_ppm: 250_000,
            },
        ];
        for s in &specs {
            // What decodes is held to `validate`, and what passes it
            // can be described and turned into its recipe.
            let (decoded, refused) = fuzz_payload(s, |d: JobSpec| {
                if d.validate().is_ok() {
                    let _ = d.describe();
                    let _ = d.recipe();
                }
            });
            assert!(decoded > 0 && refused > 0, "{s:?}: {decoded}/{refused}");
        }
        let outcome = JobOutcome {
            degraded: true,
            latency: 12.5,
            interarrival: 1.25,
            bandwidth: 0.5,
            net_cycles: 4096,
            words_dropped: 3,
            retries: 2,
            failed: 1,
        };
        let (decoded, refused) = fuzz_payload(&outcome, |_| {});
        // Only the `degraded` byte can refuse: every flip of it but
        // bit 0's leaves 0..=1.
        assert_eq!(refused, 8, "only the bool byte can refuse");
        assert!(decoded > 0);
    }

    #[test]
    fn execution_is_deterministic() {
        let s = spec(r#"{"type":"hotspot","fraction":0.05,"ces":4,"blocks":2}"#).unwrap();
        let a = s.execute(8_000_000).unwrap();
        let b = s.execute(8_000_000).unwrap();
        assert_eq!(a, b);
        assert!(!a.degraded);
        assert!(a.latency > 0.0 && a.bandwidth > 0.0);
    }

    #[test]
    fn faulted_job_reports_typed_degradation() {
        let s = spec(r#"{"type":"degraded","rate":0.05,"ces":8,"blocks":4}"#).unwrap();
        let o = s.execute(32_000_000).unwrap();
        assert!(o.degraded, "5% drops must mark the outcome degraded");
        assert!(o.words_dropped > 0 && o.retries > 0);
        let healthy = spec(r#"{"type":"degraded","rate":0.0,"ces":8,"blocks":4}"#)
            .unwrap()
            .execute(32_000_000)
            .unwrap();
        assert!(!healthy.degraded, "rate 0 is the healthy baseline");
    }

    #[test]
    fn panicking_job_is_a_typed_error_not_a_crash() {
        let err = caught(|| panic!("unlucky input")).unwrap_err();
        assert_eq!(err.status(), "error");
        assert_eq!(err.reason(), "job panicked: unlucky input");
        let n = 7;
        let err = caught(|| panic!("unlucky input {n}")).unwrap_err();
        assert_eq!(err.reason(), "job panicked: unlucky input 7");
        let ok = spec(r#"{"type":"hotspot","fraction":0.05,"ces":4,"blocks":2}"#).unwrap();
        assert_eq!(
            caught(|| ok.execute(8_000_000)),
            ok.execute(8_000_000),
            "a job that returns passes through the guard untouched"
        );
    }
}
