//! The thread-safe metrics surface of the multi-threaded tiers.
//!
//! [`Obs`](crate::Obs) is single-threaded, as the simulator is. The
//! serving tier's reactors and workers, and the cluster coordinator
//! with its scrape thread, share one [`SharedObs`] instead: a
//! mutex-guarded [`MetricsRegistry`], a bounded ring of request-path
//! spans and a start clock. Metric touches are short, and spans are
//! appended post hoc with explicit timestamps, so neither lock shows
//! up in request latency.
//!
//! Each owner describes its metrics once as a [`MetricSet`]; every
//! name in it is interned up front, so exports show zeros instead of
//! missing series before anything happens. [`http_reply`] renders the
//! one HTTP scrape reply both tiers answer with.

use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::export;
use crate::metrics::MetricsRegistry;
use crate::trace::{SpanPhase, TraceEvent};

/// The most recent spans a [`SharedObs`] keeps. Older spans are
/// dropped as new ones arrive, so a long-running server's trace
/// memory and `/trace` render cost stay bounded.
pub const MAX_SPANS: usize = 4096;

/// Chrome-trace process id of every span a [`SharedObs`] records; the
/// thread id is the caller's (the serving tier uses the job's seq).
const SPAN_PID: u64 = 1;

/// The metrics one [`SharedObs`] pre-interns, and the one bin shape its
/// histograms share.
#[derive(Debug, Clone, Copy)]
pub struct MetricSet {
    /// Counter names.
    pub counters: &'static [&'static str],
    /// Gauge names.
    pub gauges: &'static [&'static str],
    /// Histogram names.
    pub histograms: &'static [&'static str],
    /// Bins per histogram; the overflow bin catches the rest.
    pub bins: usize,
    /// Width of one bin, in the histograms' sample unit.
    pub bin_width: u64,
}

/// Shared metrics and tracing for one server or coordinator.
#[derive(Debug)]
pub struct SharedObs {
    metrics: Mutex<MetricsRegistry>,
    spans: Mutex<VecDeque<TraceEvent>>,
    bins: usize,
    bin_width: u64,
    start: Instant,
}

impl SharedObs {
    /// Creates the registry with every name in `set` interned.
    #[must_use]
    pub fn new(set: &MetricSet) -> Self {
        let mut m = MetricsRegistry::new();
        for name in set.counters {
            m.counter(name);
        }
        for name in set.gauges {
            m.gauge(name);
        }
        for name in set.histograms {
            m.histogram(name, set.bins, set.bin_width);
        }
        SharedObs {
            metrics: Mutex::new(m),
            spans: Mutex::new(VecDeque::new()),
            bins: set.bins,
            bin_width: set.bin_width,
            start: Instant::now(),
        }
    }

    fn metrics(&self) -> MutexGuard<'_, MetricsRegistry> {
        self.metrics.lock().expect("metrics lock poisoned")
    }

    /// Microseconds since creation — the span clock.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Adds one to the counter named `name`.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to the counter named `name`.
    pub fn add(&self, name: &str, n: u64) {
        let mut m = self.metrics();
        let id = m.counter(name);
        m.add(id, n);
    }

    /// Sets the gauge named `name`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut m = self.metrics();
        let id = m.gauge(name);
        m.set(id, value);
    }

    /// Records one sample into the histogram named `name`.
    pub fn record(&self, name: &str, sample: u64) {
        let mut m = self.metrics();
        let id = m.histogram(name, self.bins, self.bin_width);
        m.record(id, sample);
    }

    /// Current value of the counter named `name` (0 if absent).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> u64 {
        self.metrics().counter_value(name)
    }

    /// Records one completed span on track `(1, tid)`, with
    /// explicit begin/end timestamps in µs since creation. An end
    /// before its begin (clock jitter) is clamped to the begin. Once
    /// [`MAX_SPANS`] are held, the oldest is dropped.
    pub fn span(&self, tid: u64, name: &'static str, begin_us: u64, end_us: u64) {
        let event = |phase, at| TraceEvent {
            pid: SPAN_PID,
            tid,
            name,
            phase,
            at,
            arg: None,
        };
        let mut spans = self.spans.lock().expect("trace lock poisoned");
        if spans.len() >= 2 * MAX_SPANS {
            spans.drain(..2);
        }
        spans.push_back(event(SpanPhase::Begin, begin_us));
        spans.push_back(event(SpanPhase::End, end_us.max(begin_us)));
    }

    /// Renders the Prometheus exposition of every metric.
    #[must_use]
    pub fn prometheus(&self) -> String {
        export::prometheus(&self.metrics())
    }

    /// Renders the Chrome-trace JSON of the spans held.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        let mut spans = self.spans.lock().expect("trace lock poisoned");
        export::chrome_trace(spans.make_contiguous())
    }
}

/// The complete HTTP/1.1 reply to a `GET` of `path`: the Prometheus
/// exposition for `/metrics`, the Chrome trace for `/trace`, a 404
/// otherwise. Every reply carries `Connection: close`.
#[must_use]
pub fn http_reply(obs: &SharedObs, path: &str) -> Vec<u8> {
    let (status, ctype, body) = match path {
        "/metrics" => ("200 OK", "text/plain; version=0.0.4", obs.prometheus()),
        "/trace" => ("200 OK", "application/json", obs.chrome_trace()),
        _ => ("404 Not Found", "text/plain", "not found\n".to_owned()),
    };
    let mut reply = Vec::with_capacity(body.len() + 128);
    let _ = write!(
        reply,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::validate_events;

    const SET: MetricSet = MetricSet {
        counters: &["t.requests"],
        gauges: &["t.depth"],
        histograms: &["t.latency_us"],
        bins: 64,
        bin_width: 500,
    };

    #[test]
    fn preinterned_metrics_export_as_zeros() {
        let parsed = export::parse_prometheus(&SharedObs::new(&SET).prometheus()).unwrap();
        assert_eq!(parsed.get("cedar_t_requests"), Some(&0.0));
        assert_eq!(parsed.get("cedar_t_depth"), Some(&0.0));
        assert_eq!(parsed.get("cedar_t_latency_us_count"), Some(&0.0));
    }

    #[test]
    fn counters_gauges_and_histograms_round_trip_through_prometheus() {
        let obs = SharedObs::new(&SET);
        obs.inc("t.requests");
        obs.add("t.requests", 2);
        obs.add("t.unlisted", 4);
        obs.set_gauge("t.depth", 2.0);
        obs.record("t.latency_us", 1_250);
        assert_eq!(obs.counter_value("t.requests"), 3);
        let parsed = export::parse_prometheus(&obs.prometheus()).unwrap();
        assert_eq!(parsed.get("cedar_t_requests"), Some(&3.0));
        assert_eq!(parsed.get("cedar_t_unlisted"), Some(&4.0));
        assert_eq!(parsed.get("cedar_t_depth"), Some(&2.0));
        assert_eq!(parsed.get("cedar_t_latency_us_sum"), Some(&1_250.0));
    }

    #[test]
    fn spans_render_as_valid_chrome_trace_even_with_clock_jitter() {
        let obs = SharedObs::new(&SET);
        obs.span(7, "queue", 10, 40);
        obs.span(7, "execute", 40, 90);
        obs.span(8, "queue", 50, 20);
        let json = obs.chrome_trace();
        export::validate_json(&json).unwrap();
        assert!(json.contains("\"queue\"") && json.contains("\"execute\""));
    }

    #[test]
    fn trace_keeps_exactly_the_last_max_spans() {
        let obs = SharedObs::new(&SET);
        let extra = 10;
        for i in 0..(MAX_SPANS + extra) as u64 {
            obs.span(i, "execute", i * 10, i * 10 + 5);
        }
        let json = obs.chrome_trace();
        export::validate_json(&json).unwrap();
        assert_eq!(json.matches("\"ph\":\"B\"").count(), MAX_SPANS);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), MAX_SPANS);
        let mut spans = obs.spans.lock().unwrap();
        validate_events(spans.make_contiguous()).unwrap();
        let tids: Vec<u64> = spans.iter().step_by(2).map(|e| e.tid).collect();
        let want: Vec<u64> = (extra as u64..(MAX_SPANS + extra) as u64).collect();
        assert_eq!(tids, want, "the oldest spans go first");
        assert!(spans
            .iter()
            .step_by(2)
            .zip(spans.iter().skip(1).step_by(2))
            .all(|(b, e)| b.phase == SpanPhase::Begin
                && e.phase == SpanPhase::End
                && b.tid == e.tid));
    }

    #[test]
    fn http_reply_serves_metrics_and_trace_and_404s_the_rest() {
        let obs = SharedObs::new(&SET);
        obs.inc("t.requests");
        let text = String::from_utf8(http_reply(&obs, "/metrics")).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"));
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        assert!(text.contains(&format!("Content-Length: {}\r\n", body.len())));
        assert_eq!(
            export::parse_prometheus(body)
                .unwrap()
                .get("cedar_t_requests"),
            Some(&1.0)
        );
        let trace = String::from_utf8(http_reply(&obs, "/trace")).unwrap();
        export::validate_json(trace.split("\r\n\r\n").nth(1).unwrap()).unwrap();
        let miss = String::from_utf8(http_reply(&obs, "/nope")).unwrap();
        assert!(miss.starts_with("HTTP/1.1 404 Not Found\r\n"));
    }
}
