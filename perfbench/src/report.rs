//! Metric names, units and the result line.

use std::fmt::Write as _;

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The end-to-end metrics every workload reports with `--trace 0`,
/// in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("ops_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("setup_s", "s"),
];

/// The per-layer metrics every workload reports with `--trace 1`. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("net.build_us", "us"),
    ("net.run_ns_per_cycle", "ns"),
    ("net.reduce_us", "us"),
    ("net.specialized_points", "count"),
    ("net.ff_cycle_frac", "ratio"),
    ("faults.plan_us", "us"),
    ("faults.retries_per_request", "ratio"),
    ("exec.points", "count"),
    ("exec.busy_frac", "ratio"),
    ("exec.overhead_s", "s"),
    ("exec.speedup", "ratio"),
    ("snap.load_us", "us"),
    ("snap.unseal_us", "us"),
    ("snap.store_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.key_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.execute_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.service_us", "us"),
    ("serve.server_latency_us", "us"),
    ("serve.wakeups_per_request", "ratio"),
    ("serve.wire_us", "us"),
    ("serve.cache_hits", "count"),
    ("serve.jobs_executed", "count"),
    ("serve.hit_p50_us", "us"),
    ("serve.hit_p99_us", "us"),
    ("serve.exec_p50_us", "us"),
    ("serve.exec_p99_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.spans", "count"),
    ("mem.peak_rss_mb", "MB"),
];

/// Whether `name` is a legal metric name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Further numbers printed for the reader only.
    pub extra: Vec<Metric>,
    /// Free-form lines (stamps, tables) printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map_or_else(|| panic!("undeclared metric {name}"), |(_, u)| *u);
        self.metrics.push(Metric { name, unit, value });
    }

    /// Reports 0 for every per-layer metric of `layers` not measured:
    /// the workload does not exercise those layers.
    pub fn zero_layers(&mut self, layers: &[&str]) {
        for (name, _) in PER_LAYER {
            let layer = name.split('.').next().unwrap_or(name);
            if layers.contains(&layer) && !self.metrics.iter().any(|m| m.name == name) {
                self.metric(name, 0.0);
            }
        }
    }

    pub fn extra(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.extra.push(Metric { name, unit, value });
    }

    /// Counts one failed operation with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// The single-line JSON result. Refuses a metric set that differs
    /// from `expected`, an illegal name or a value that is not finite.
    ///
    /// # Errors
    ///
    /// Names the missing, extra or non-finite metric.
    pub fn result_line(&self, expected: &[(&str, &str)]) -> Result<String, String> {
        for (name, _) in expected {
            if !self.metrics.iter().any(|m| m.name == *name) {
                return Err(format!("metric {name} was not measured"));
            }
        }
        let mut metrics = String::new();
        for m in &self.metrics {
            if !expected.iter().any(|(n, _)| *n == m.name) {
                return Err(format!("metric {} is not declared for this mode", m.name));
            }
            if !valid_name(m.name) {
                return Err(format!("metric name {:?} is not legal", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is {}", m.name, m.value));
            }
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(section: &str) -> Vec<String> {
        section
            .split("\"name\"")
            .skip(1)
            .filter_map(|rest| rest.split('"').nth(1).map(str::to_owned))
            .collect()
    }

    #[test]
    fn every_metric_name_is_legal_and_used_once() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for (i, name) in all.iter().enumerate() {
            assert!(valid_name(name), "{name}");
            assert!(!all[..i].contains(name), "{name} declared twice");
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b"));
        assert!(!valid_name("µs") && valid_name("net.build_us"));
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let e2e = json.find("\"end_to_end\"").expect("end_to_end");
        let layer = json.find("\"per_layer\"").expect("per_layer");
        assert!(e2e < layer, "end_to_end precedes per_layer");
        let want = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| (*n).to_owned()).collect()
        };
        assert_eq!(names_in(&json[e2e..layer]), want(&END_TO_END));
        assert_eq!(names_in(&json[layer..]), want(&PER_LAYER));
    }

    #[test]
    fn result_line_refuses_missing_or_non_finite_metrics() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", 0.5);
        assert!(r.result_line(&END_TO_END).is_err());
        for name in ["ops_per_s", "sim_cycles_per_s"] {
            r.metric(name, 1.25);
        }
        let line = r.result_line(&END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        r.metric("net.build_us", f64::NAN);
        assert!(r.result_line(&END_TO_END).is_err());
    }
}
