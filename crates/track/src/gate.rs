//! Regression gating: compare the newest history entry against the
//! spread of its predecessors.
//!
//! The gate is deliberately conservative about what it compares:
//! only earlier entries with the *same mode* (smoke numbers never
//! judge full runs) and — by default — the *same host fingerprint*
//! (a laptop never judges the CI runner) participate in a metric's
//! baseline.
//!
//! The band comes from the history itself, not from a knob: over the
//! last [`WINDOW`] comparable values the baseline is their median and
//! the band is their max − min. A newest value worse than the baseline
//! by **more** than the band fails; exactly at the band passes. With
//! fewer than [`MIN_SAMPLES`] comparable values there is no spread to
//! judge by, so the gate is *unresolved*: it neither passes nor fails.

use std::fmt::Write as _;

use crate::history::HistoryEntry;

/// Trailing comparable values the baseline and band are taken over.
pub const WINDOW: usize = 5;

/// Fewest comparable values whose spread the gate will judge by.
pub const MIN_SAMPLES: usize = 3;

/// Which way "better" points for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger numbers are better (throughput, speedup, cycles/sec).
    HigherIsBetter,
    /// Smaller numbers are better (latency percentiles, wall time).
    LowerIsBetter,
}

/// One gated metric: its name and direction.
#[derive(Debug, Clone)]
pub struct GateSpec {
    /// The metric key in [`HistoryEntry::metrics`].
    pub metric: String,
    /// Which direction is an improvement.
    pub direction: Direction,
}

impl GateSpec {
    /// A higher-is-better gate.
    #[must_use]
    pub fn higher(metric: &str) -> GateSpec {
        GateSpec {
            metric: metric.to_owned(),
            direction: Direction::HigherIsBetter,
        }
    }

    /// A lower-is-better gate.
    #[must_use]
    pub fn lower(metric: &str) -> GateSpec {
        GateSpec {
            metric: metric.to_owned(),
            direction: Direction::LowerIsBetter,
        }
    }
}

/// The default gated metrics: the numbers ROADMAP items 1–3 are judged
/// by. Simulation rate, sweep speedup, serve throughput/p99 and
/// cluster and zoo sweep rates.
#[must_use]
pub fn default_gates() -> Vec<GateSpec> {
    vec![
        // The benchmark of record's healthy Table-2 rate (median over
        // `perfbench` runs, appended with `track append --perfbench`).
        GateSpec::higher("perfbench.table2.sim_cycles_per_s"),
        GateSpec::higher("perf.faulted_trace.sim_cycles_per_sec"),
        // The specialized-vs-generic ratio on the reference run: the
        // specialized engine's reason to exist, gated so it cannot
        // quietly erode while both absolute rates drift.
        GateSpec::higher("perf.engine_speedup"),
        GateSpec::higher("perf.sweep.speedup"),
        GateSpec::higher("serve.closed.max_throughput_rps"),
        GateSpec::lower("serve.closed.peak_p99_us"),
        GateSpec::lower("serve.open.p99_us"),
        // The binary-protocol reactor path: peak pipelined throughput
        // and tail latency at the widest connection sweep level.
        GateSpec::higher("serve.binary.peak_rps"),
        GateSpec::lower("serve.conn.peak_p99_us"),
        GateSpec::higher("cluster.points_per_sec"),
        // The machine zoo (ROADMAP item 4): sweep throughput, and the
        // Cedar row's composite PPT efficiency — the paper's own
        // machine may never quietly lose ground in its own zoo.
        GateSpec::higher("zoo.points_per_sec"),
        GateSpec::higher("zoo.cedar.efficiency_score"),
    ]
}

/// One resolved gate's verdict.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// The gated metric.
    pub metric: String,
    /// The newest entry's value.
    pub newest: f64,
    /// Median of the trailing comparable values.
    pub baseline: f64,
    /// Max − min of the same values: the allowed adverse change.
    pub band: f64,
    /// Signed change, percent, relative to the baseline.
    pub change_pct: f64,
    /// Direction of the gate.
    pub direction: Direction,
    /// Comparable historical samples behind the baseline.
    pub samples: usize,
    /// True when the newest value is worse than the baseline by
    /// strictly more than the band.
    pub regressed: bool,
}

impl GateOutcome {
    /// One human-readable verdict line naming the metric.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let verdict = if self.regressed { "REGRESSION" } else { "ok" };
        let _ = write!(
            out,
            "{verdict} {}: {:.4} vs trailing median {:.4} ({:+.2}%, band ±{:.4}, {} samples)",
            self.metric, self.newest, self.baseline, self.change_pct, self.band, self.samples
        );
        out
    }
}

/// The whole gate run over one history.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Commit id of the entry under judgement.
    pub commit: String,
    /// Mode scope the comparison ran in.
    pub mode: String,
    /// Verdicts of the gates with enough history, in gate order.
    pub outcomes: Vec<GateOutcome>,
    /// Gates with fewer than [`MIN_SAMPLES`] comparable values: no
    /// verdict either way, with the count found.
    pub unresolved: Vec<String>,
    /// Gates the newest entry did not measure, with the reason.
    pub skipped: Vec<String>,
}

impl GateReport {
    /// Number of failed gates.
    #[must_use]
    pub fn regressions(&self) -> usize {
        self.outcomes.iter().filter(|o| o.regressed).count()
    }

    /// The worst outcome first: most adverse relative change at the
    /// top, regressions before passes.
    #[must_use]
    pub fn worst_first(&self) -> Vec<GateOutcome> {
        let mut sorted = self.outcomes.clone();
        sorted.sort_by(|a, b| {
            b.regressed
                .cmp(&a.regressed)
                .then_with(|| adverse(b).total_cmp(&adverse(a)))
        });
        sorted
    }
}

/// The adverse magnitude of an outcome: positive when the change hurts.
fn adverse(o: &GateOutcome) -> f64 {
    match o.direction {
        Direction::HigherIsBetter => -o.change_pct,
        Direction::LowerIsBetter => o.change_pct,
    }
}

/// The median of `values` (sorted in place). `values` must be
/// non-empty.
pub(crate) fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        f64::midpoint(values[n / 2 - 1], values[n / 2])
    }
}

/// Why the newest entry lacks `metric`: the reason its producer noted
/// (`"<metric> unmeasured: <reason>"` in the entry's notes), else that
/// it was not measured.
fn absence_reason(newest: &HistoryEntry, metric: &str) -> String {
    let tag = format!("{metric} unmeasured: ");
    newest
        .notes
        .as_deref()
        .and_then(|notes| notes.split("; ").find_map(|n| n.strip_prefix(tag.as_str())))
        .map_or_else(
            || "not measured by the newest entry".to_owned(),
            |reason| format!("unmeasured: {reason}"),
        )
}

/// Gates the newest entry of `entries` against its comparable history;
/// `same_host_only` restricts that history to the newest entry's host
/// fingerprint.
///
/// # Errors
///
/// Returns a description when the history is empty.
pub fn check(
    entries: &[HistoryEntry],
    gates: &[GateSpec],
    same_host_only: bool,
) -> Result<GateReport, String> {
    let newest = entries.last().ok_or("history is empty — nothing to gate")?;
    let prior = &entries[..entries.len() - 1];
    let mut report = GateReport {
        commit: newest.commit.clone(),
        mode: newest.mode.clone(),
        ..GateReport::default()
    };
    for gate in gates {
        let Some(&value) = newest.metrics.get(&gate.metric) else {
            let reason = absence_reason(newest, &gate.metric);
            report.skipped.push(format!("{}: {reason}", gate.metric));
            continue;
        };
        let mut comparable: Vec<f64> = prior
            .iter()
            .filter(|e| e.mode == newest.mode)
            .filter(|e| !same_host_only || e.host.comparable(&newest.host))
            .filter_map(|e| e.metrics.get(&gate.metric).copied())
            .collect();
        let start = comparable.len().saturating_sub(WINDOW);
        let windowed = &mut comparable[start..];
        let samples = windowed.len();
        if samples < MIN_SAMPLES {
            report.unresolved.push(format!(
                "{}: {samples} of {MIN_SAMPLES} comparable values (mode {:?}{})",
                gate.metric,
                newest.mode,
                if same_host_only { ", same host" } else { "" }
            ));
            continue;
        }
        let baseline = median(windowed);
        let band = windowed[samples - 1] - windowed[0];
        let change_pct = if baseline == 0.0 {
            0.0
        } else {
            (value - baseline) / baseline.abs() * 100.0
        };
        let regressed = match gate.direction {
            // Exactly at the band passes; strictly beyond fails.
            Direction::HigherIsBetter => value < baseline - band,
            Direction::LowerIsBetter => value > baseline + band,
        };
        report.outcomes.push(GateOutcome {
            metric: gate.metric.clone(),
            newest: value,
            baseline,
            band,
            change_pct,
            direction: gate.direction,
            samples,
            regressed,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{HostFingerprint, SCHEMA};
    use std::collections::BTreeMap;

    const METRIC: &str = "perfbench.table2.sim_cycles_per_s";

    fn host(name: &str) -> HostFingerprint {
        HostFingerprint {
            hostname: name.to_owned(),
            cpus: 8,
            os: "linux/x86_64".to_owned(),
        }
    }

    fn entry(commit: &str, mode: &str, hostname: &str, value: f64) -> HistoryEntry {
        let mut metrics = BTreeMap::new();
        metrics.insert(METRIC.to_owned(), value);
        HistoryEntry {
            schema: SCHEMA.to_owned(),
            commit: commit.to_owned(),
            timestamp: "2026-08-08T00:00:00Z".to_owned(),
            host: host(hostname),
            mode: mode.to_owned(),
            sources: vec!["perfbench".to_owned()],
            metrics,
            notes: None,
        }
    }

    fn history(values: &[f64]) -> Vec<HistoryEntry> {
        values.iter().map(|&v| entry("x", "full", "h", v)).collect()
    }

    fn gate() -> Vec<GateSpec> {
        vec![GateSpec::higher(METRIC)]
    }

    #[test]
    fn exactly_at_threshold_passes_over_fails() {
        // Median 100, band 110 - 90 = 20: the boundary is 80.
        let mut entries = history(&[90.0, 100.0, 110.0, 80.0]);
        let report = check(&entries, &gate(), true).unwrap();
        assert_eq!(report.regressions(), 0, "{:?}", report.outcomes);
        assert_eq!(report.outcomes[0].baseline, 100.0);
        assert_eq!(report.outcomes[0].band, 20.0);

        *entries.last_mut().unwrap() = entry("d", "full", "h", 79.999);
        let report = check(&entries, &gate(), true).unwrap();
        assert_eq!(report.regressions(), 1);
        let line = report.outcomes[0].describe();
        assert!(line.contains("REGRESSION"), "{line}");
        assert!(line.contains(METRIC), "{line}");
    }

    #[test]
    fn identical_history_has_a_zero_band() {
        let report = check(&history(&[100.0, 100.0, 100.0, 100.0]), &gate(), true).unwrap();
        assert_eq!(report.regressions(), 0);
        let report = check(&history(&[100.0, 100.0, 100.0, 99.9]), &gate(), true).unwrap();
        assert_eq!(report.regressions(), 1);
    }

    #[test]
    fn lower_is_better_inverts_the_test() {
        let spec = vec![GateSpec::lower("p99")];
        let mk = |values: &[f64]| -> Vec<HistoryEntry> {
            values
                .iter()
                .map(|&v| {
                    let mut e = entry("x", "full", "h", 0.0);
                    e.metrics.insert("p99".to_owned(), v);
                    e
                })
                .collect()
        };
        // Median 100, band 20: 120 is the boundary.
        let report = check(&mk(&[90.0, 100.0, 110.0, 120.0]), &spec, true).unwrap();
        assert_eq!(report.regressions(), 0);
        let report = check(&mk(&[90.0, 100.0, 110.0, 120.001]), &spec, true).unwrap();
        assert_eq!(report.regressions(), 1);
    }

    #[test]
    fn fewer_than_three_samples_is_unresolved_never_ok() {
        // Two comparable values and a collapse: no verdict either way.
        let report = check(&history(&[100.0, 100.0, 1.0]), &gate(), true).unwrap();
        assert_eq!(report.regressions(), 0);
        assert!(report.outcomes.is_empty(), "{:?}", report.outcomes);
        assert_eq!(report.unresolved.len(), 1);
        assert!(report.unresolved[0].contains(METRIC));
        assert!(report.unresolved[0].contains("2 of 3"));
    }

    #[test]
    fn different_mode_and_host_are_out_of_scope() {
        let mut entries = vec![
            entry("a", "smoke", "h", 1000.0),
            entry("b", "smoke", "h", 1000.0),
            entry("c", "smoke", "h", 1000.0),
        ];
        for _ in 0..3 {
            entries.push(entry("d", "full", "other-box", 1000.0));
        }
        entries.push(entry("e", "full", "h", 10.0));
        // Neither the smoke entries nor the other host may judge the
        // newest full run on h: unresolved, not failed.
        let report = check(&entries, &gate(), true).unwrap();
        assert_eq!(report.regressions(), 0);
        assert_eq!(report.outcomes.len(), 0);
        assert_eq!(report.unresolved.len(), 1);

        // Cross-host comparison is opt-in.
        let report = check(&entries, &gate(), false).unwrap();
        assert_eq!(report.regressions(), 1);
    }

    #[test]
    fn median_window_tolerates_one_noisy_run() {
        // The oldest value falls outside the window; the 3.0 outlier
        // inside it widens the band but cannot drag the median.
        let report = check(
            &history(&[1.0, 100.0, 100.0, 3.0, 100.0, 100.0, 96.0]),
            &gate(),
            true,
        )
        .unwrap();
        assert_eq!(report.regressions(), 0);
        assert_eq!(report.outcomes[0].baseline, 100.0);
        assert_eq!(report.outcomes[0].band, 97.0);
        assert_eq!(report.outcomes[0].samples, WINDOW);
    }

    #[test]
    fn improvements_and_missing_metrics_never_fail() {
        let entries = history(&[100.0, 100.0, 100.0, 250.0]);
        let specs = vec![gate().remove(0), GateSpec::higher("not.measured")];
        let report = check(&entries, &specs, true).unwrap();
        assert_eq!(report.regressions(), 0);
        assert_eq!(report.outcomes.len(), 1);
        assert!(report.outcomes[0].change_pct > 100.0);
        assert_eq!(report.skipped.len(), 1);
        assert!(report.skipped[0].contains("not.measured"));
    }

    #[test]
    fn a_noted_reason_explains_an_absent_metric() {
        let mut e = entry("a", "full", "h", 1.0);
        e.notes = Some("seed run; not.measured unmeasured: 2 cores < 4 threads".to_owned());
        let specs = vec![GateSpec::higher("not.measured")];
        let report = check(&[e], &specs, true).unwrap();
        assert_eq!(
            report.skipped,
            vec!["not.measured: unmeasured: 2 cores < 4 threads"]
        );
    }

    #[test]
    fn empty_history_is_an_error_single_entry_is_vacuous() {
        assert!(check(&[], &gate(), true).is_err());
        let report = check(&history(&[100.0]), &gate(), true).unwrap();
        assert_eq!(report.regressions(), 0);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.unresolved.len(), 1);
    }

    #[test]
    fn worst_first_orders_by_adverse_change() {
        let mk = |a: f64, b: f64| {
            let mut e = entry("x", "full", "h", a);
            e.metrics.insert("p99".to_owned(), b);
            e
        };
        let mut entries: Vec<HistoryEntry> = (0..3).map(|_| mk(100.0, 100.0)).collect();
        entries.push(mk(50.0, 500.0));
        let specs = vec![gate().remove(0), GateSpec::lower("p99")];
        let report = check(&entries, &specs, true).unwrap();
        let worst = report.worst_first();
        assert_eq!(report.regressions(), 2);
        // p99 got 400% worse, cycles/sec only 50%: p99 leads.
        assert_eq!(worst[0].metric, "p99");
    }
}
