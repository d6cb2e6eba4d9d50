//! The `table2` and `degraded` workloads: seeded sweep points run
//! through `cedar_exec::run_sweep_on` with no result cache.

use std::time::{Duration, Instant};

use cedar_exec::run_sweep_on;
use cedar_serve::job::{JobError, JobOutcome, JobSpec};
use cedar_snap::{fnv1a, Snapshot};

use crate::layers::{self, ratio, NetTotals, MAX_NET_CYCLES};
use crate::report::Report;
use crate::trace::{render_table, Tracer};
use crate::{gen, Args, SetUps, DEFAULT_SEED};

/// Which sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Healthy Table-2 cells at `nproc` threads: specialized engine and
    /// the pool.
    Table2,
    /// Fault-injected points, serially: fault plans and the generic
    /// engine.
    Degraded,
}

/// Shuffled copies of the Table-2 cells per `run_sweep_on` call: about
/// 0.2 s of serial work, a tenth of a second on two threads.
const TABLE2_COPIES: usize = 8;

/// Degraded points set-up runs as its warm-up, from the default seed's
/// order so that set-up does the same work whatever the seed.
const DEGRADED_SETUP_POINTS: usize = 2;

/// FNV-1a over the outcome envelopes of one batch at [`DEFAULT_SEED`],
/// in batch order. A change to a simulated result changes these; a
/// change that only makes the program faster must not.
const TABLE2_DIGEST: u64 = 0xf0a6_4cc1_0322_5f75;
const DEGRADED_DIGEST: u64 = 0x481d_c334_bd2a_fddf;

type PointResult = Result<JobOutcome, JobError>;

/// One finished point of a window.
struct Done {
    /// Batch position.
    idx: usize,
    result: PointResult,
    /// Seconds the point ran.
    run_s: f64,
}

impl Done {
    fn cycles(&self) -> u64 {
        self.result.as_ref().map_or(0, |o| o.net_cycles)
    }
}

/// What a window measured. Points are handed to the caller as each
/// call returns and not kept, so memory stays flat however fast the
/// program runs.
struct Window {
    points: u64,
    cycles: u64,
    /// Wall time of each `run_sweep_on` call.
    call_secs: Vec<f64>,
    /// Fastest run of each batch position, in seconds.
    fastest_point_s: Vec<f64>,
    secs: f64,
}

struct Plan {
    sweep: Sweep,
    threads: usize,
    /// The specs of one call, in order.
    batch: Vec<JobSpec>,
}

impl Plan {
    fn new(sweep: Sweep, seed: u64, nproc: usize) -> Plan {
        match sweep {
            Sweep::Table2 => Plan {
                sweep,
                threads: nproc,
                batch: gen::table2_batch(seed, TABLE2_COPIES),
            },
            Sweep::Degraded => Plan {
                sweep,
                threads: 1,
                batch: gen::degraded_points(seed),
            },
        }
    }

    /// Set-up's fixed warm-up: one call's batch for table2, the first
    /// points of the default seed's order for degraded.
    fn warm_up(&self) -> Vec<JobSpec> {
        match self.sweep {
            Sweep::Table2 => self.batch.clone(),
            Sweep::Degraded => gen::degraded_points(DEFAULT_SEED)[..DEGRADED_SETUP_POINTS].to_vec(),
        }
    }

    /// Runs whole-batch calls back to back until `window` has passed.
    /// `point(id, spec)` runs one point (`id` is unique in the window);
    /// `each` receives every finished point between calls, off the
    /// clock of the calls. `between(progress)` runs before each call,
    /// off the window's clock; `progress` is the share of the window
    /// gone.
    fn window<T: Send>(
        &self,
        window: Duration,
        threads: usize,
        point: impl Fn(u64, &JobSpec) -> (PointResult, T) + Sync,
        mut each: impl FnMut(&Done, T),
        mut between: impl FnMut(f64),
    ) -> Window {
        let mut w = Window {
            points: 0,
            cycles: 0,
            call_secs: Vec::new(),
            fastest_point_s: vec![f64::INFINITY; self.batch.len()],
            secs: 0.0,
        };
        let start = Instant::now();
        let mut paused = Duration::ZERO;
        while w.call_secs.is_empty() || start.elapsed() - paused < window {
            let pause = Instant::now();
            between((start.elapsed() - paused).as_secs_f64() / window.as_secs_f64());
            paused += pause.elapsed();
            let base = w.points;
            let inputs: Vec<(usize, &JobSpec)> = self.batch.iter().enumerate().collect();
            let call = Instant::now();
            let out = run_sweep_on(threads, inputs, |(idx, spec)| {
                let begin = Instant::now();
                let (result, extra) = point(base + idx as u64, spec);
                let run_s = begin.elapsed().as_secs_f64();
                (Done { idx, result, run_s }, extra)
            });
            w.call_secs.push(call.elapsed().as_secs_f64());
            for (done, extra) in out {
                w.points += 1;
                w.cycles += done.cycles();
                let fastest = &mut w.fastest_point_s[done.idx];
                *fastest = fastest.min(done.run_s);
                each(&done, extra);
            }
        }
        w.secs = (start.elapsed() - paused).as_secs_f64();
        w
    }

    /// One set-up: generate the inputs and run the fixed warm-up.
    fn set_up(sweep: Sweep, seed: u64, nproc: usize) -> Vec<PointResult> {
        let fresh = Plan::new(sweep, seed, nproc);
        run_sweep_on(fresh.threads, fresh.warm_up(), |s| {
            s.execute(MAX_NET_CYCLES)
        })
    }
}

fn execute(_id: u64, spec: &JobSpec) -> (PointResult, ()) {
    (spec.execute(MAX_NET_CYCLES), ())
}

impl Window {
    /// `(points/s, simulated cycles/s)` of the window's best pass over
    /// the batch (see [`stats::best`]). Every call runs the same whole
    /// batch, so every pass is one sample of the same work.
    ///
    /// On `table2` a pass is one call (about 0.1 s on two threads, pool
    /// tail included) and the best pass is the fastest call. A serial
    /// `degraded` pass takes about 1.3 s, longer than the host's fast
    /// spells, so whole runs of it missed them: over ten runs the
    /// fastest pass read from 15.3 to 19.8 points/s, most runs near one
    /// end or the other. Its best pass is therefore put together point
    /// by point: the sum over batch positions of each position's
    /// fastest run (about 80 ms, some 23 runs each in 30 s). Every
    /// position weighs by its own run time, as in a real pass.
    fn best(&self, sweep: Sweep) -> (f64, f64) {
        match sweep {
            Sweep::Table2 => self.pass_rates(self.fastest_call_s()),
            Sweep::Degraded => self.pass_rates(self.fastest_point_s.iter().sum()),
        }
    }

    fn fastest_call_s(&self) -> f64 {
        self.call_secs.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// `(points/s, simulated cycles/s)` of a pass taking `pass_s`.
    fn pass_rates(&self, pass_s: f64) -> (f64, f64) {
        let calls = self.call_secs.len() as f64;
        (
            self.points as f64 / calls / pass_s,
            self.cycles as f64 / calls / pass_s,
        )
    }
}

fn check_warm_up(results: &[PointResult], report: &mut Report) {
    for r in results {
        report.attempted += 1;
        if let Err(e) = r {
            report.fail(format!("set-up point: {e:?}"));
        }
    }
}

/// Checks every outcome: the invariants of its sweep, equality with
/// the first outcome of the same batch position, and, at the default
/// seed, the committed digest.
struct Checker {
    sweep: Sweep,
    reference: Vec<Option<Vec<u8>>>,
}

impl Checker {
    fn new(plan: &Plan) -> Self {
        Checker {
            sweep: plan.sweep,
            reference: vec![None; plan.batch.len()],
        }
    }

    fn check(&mut self, plan: &Plan, idx: usize, result: &PointResult, report: &mut Report) {
        report.attempted += 1;
        let spec = plan.batch[idx].describe();
        let outcome = match result {
            Ok(o) => o,
            Err(e) => return report.fail(format!("{spec}: {e:?}")),
        };
        // Every request resolved: the run ended before its cycle budget
        // with nothing abandoned.
        if outcome.net_cycles >= MAX_NET_CYCLES || outcome.failed != 0 {
            return report.fail(format!("{spec}: unresolved requests {outcome:?}"));
        }
        if self.sweep == Sweep::Table2
            && (outcome.degraded || outcome.words_dropped != 0 || outcome.retries != 0)
        {
            return report.fail(format!("{spec}: a healthy point lost words {outcome:?}"));
        }
        let bytes = outcome.to_snapshot_bytes();
        match &self.reference[idx] {
            None => self.reference[idx] = Some(bytes),
            Some(first) if *first != bytes => {
                report.fail(format!("{spec}: outcome differs from its first run"));
            }
            Some(_) => {}
        }
    }

    /// The digest over the batch, once every position has a reference.
    fn digest(&self) -> Option<u64> {
        let mut all = Vec::new();
        for r in &self.reference {
            all.extend_from_slice(r.as_ref()?);
        }
        Some(fnv1a(&all))
    }

    fn check_digest(&self, seed: u64, report: &mut Report) {
        let Some(digest) = self.digest() else {
            return report.fail("some batch position never ran".to_owned());
        };
        report.notes.push(format!("outcome digest {digest:#018x}"));
        let committed = match self.sweep {
            Sweep::Table2 => TABLE2_DIGEST,
            Sweep::Degraded => DEGRADED_DIGEST,
        };
        if seed == DEFAULT_SEED {
            report.attempted += 1;
            if digest != committed {
                report.fail(format!(
                    "default-seed digest {digest:#018x} != committed {committed:#018x}"
                ));
            }
        }
    }
}

/// The timed run: end-to-end metrics.
pub fn run(sweep: Sweep, args: &Args, nproc: usize) -> Report {
    let mut report = Report::default();
    let plan = Plan::new(sweep, args.seed, nproc);
    let mut checker = Checker::new(&plan);

    // Set-up tries run spread through the window (see `SetUps`).
    let mut setups = SetUps::default();
    let mut warm = Vec::new();
    let set_up = || Plan::set_up(sweep, args.seed, nproc);
    let w = plan.window(
        args.window(),
        plan.threads,
        execute,
        |d, ()| checker.check(&plan, d.idx, &d.result, &mut report),
        |progress| {
            if setups.due(progress) {
                warm.push(setups.time(set_up));
            }
        },
    );
    while !setups.done() {
        warm.push(setups.time(set_up));
    }
    for results in &warm {
        check_warm_up(results, &mut report);
    }
    let rss = crate::sys::peak_rss_mb().unwrap_or(0.0);
    checker.check_digest(args.seed, &mut report);

    let (points_per_s, cycles_per_s) = w.best(sweep);
    report.metric("ops_per_s", points_per_s);
    report.metric("sim_cycles_per_s", cycles_per_s);
    setups.report(&mut report);
    report.extra("peak_rss_mb", "MB", rss);
    report.extra("points_per_s", "1/s", points_per_s);
    report.extra("points_per_s_mean", "1/s", w.points as f64 / w.secs);
    report.extra(
        "points_per_s_call",
        "1/s",
        w.pass_rates(w.fastest_call_s()).0,
    );
    report.extra("points", "count", w.points as f64);
    report.extra("window_s", "s", w.secs);
    report.extra("threads", "count", plan.threads as f64);
    report
}

/// The traced run: per-layer metrics and the layer table.
pub fn run_traced(sweep: Sweep, args: &Args, nproc: usize) -> Report {
    let mut report = Report::default();
    let plan = Plan::new(sweep, args.seed, nproc);
    let mut checker = Checker::new(&plan);
    let half = args.window() / 2;

    check_warm_up(&Plan::set_up(sweep, args.seed, nproc), &mut report);

    // Untraced, then traced, back to back: their rate difference is the
    // tracing overhead.
    let plain = plan.window(
        half,
        plan.threads,
        execute,
        |d, ()| checker.check(&plan, d.idx, &d.result, &mut report),
        |_| {},
    );
    let (plain_rate, _) = plain.best(sweep);

    let epoch = Tracer::new(Instant::now());
    let mut tracer = epoch.fork();
    let mut totals = NetTotals::default();
    let traced = plan.window(
        half,
        plan.threads,
        |id, spec| {
            let mut t = epoch.fork();
            let begin = t.now();
            let r = layers::traced_execute(spec, id, "exec.point", &mut t);
            let end = t.now();
            t.record(id, "exec.point", None, begin, end);
            match r {
                Ok((outcome, point)) => (Ok(outcome), (t, Some(point))),
                Err(e) => (Err(JobError::Stalled(e)), (t, None)),
            }
        },
        |d, (t, point)| {
            checker.check(&plan, d.idx, &d.result, &mut report);
            tracer.absorb(t);
            if let Some(p) = point {
                totals.add(&p);
            }
        },
        |_| {},
    );
    checker.check_digest(args.seed, &mut report);
    let (traced_rate, _) = traced.best(sweep);

    // Sweep speed-up: the same batch on one thread.
    let speedup = if plan.threads > 1 {
        let serial = plan.window(
            half / 2,
            1,
            execute,
            |d, ()| checker.check(&plan, d.idx, &d.result, &mut report),
            |_| {},
        );
        plain_rate / serial.best(sweep).0
    } else {
        0.0
    };

    let thread_s: f64 = traced.call_secs.iter().sum::<f64>() * plan.threads as f64;
    let (_, point_s) = tracer.total("exec.point");
    let (_, run_s) = tracer.total("net.run");
    let pool_idle_s = (thread_s - point_s).max(0.0);
    let total_s = traced.secs * plan.threads as f64;
    let rows = [
        ("net", tracer.self_s("net")),
        ("faults", tracer.self_s("faults")),
        ("exec (point glue)", tracer.self_s("exec")),
        ("exec (pool idle)", pool_idle_s),
    ];
    let attributed: f64 = rows.iter().map(|(_, s)| s).sum();
    report.notes.push(render_table(
        &format!(
            "layer table: {} traced points, {:.3} s x {} threads",
            totals.points, traced.secs, plan.threads
        ),
        total_s,
        &rows,
    ));

    report.metric("net.build_us", tracer.mean_us("net.build"));
    report.metric(
        "net.run_ns_per_cycle",
        ratio(run_s * 1e9, totals.net_cycles as f64),
    );
    report.metric("net.reduce_us", tracer.mean_us("net.reduce"));
    report.metric("net.specialized_points", totals.specialized as f64);
    report.metric(
        "net.ff_cycle_frac",
        ratio(totals.ff_cycles as f64, totals.net_cycles as f64),
    );
    report.metric("faults.plan_us", tracer.mean_us("faults.plan"));
    report.metric(
        "faults.retries_per_request",
        ratio(totals.retries as f64, totals.requests as f64),
    );
    report.metric("exec.points", totals.points as f64);
    report.metric("exec.busy_frac", ratio(point_s, thread_s));
    report.metric("exec.overhead_s", pool_idle_s);
    report.metric("exec.speedup", speedup);
    report.metric("mem.peak_rss_mb", crate::sys::peak_rss_mb().unwrap_or(0.0));
    report.zero_layers(&["snap", "serve"]);
    report.metric("trace.overhead_frac", 1.0 - traced_rate / plain_rate);
    report.metric(
        "trace.unattributed_frac",
        ratio(total_s - attributed, total_s),
    );
    report.metric("trace.spans", tracer.spans().len() as f64);
    report.extra("points_per_s_untraced", "1/s", plain_rate);
    report.extra("points_per_s_traced", "1/s", traced_rate);
    crate::write_spans(args, &tracer, &mut report);
    report
}
