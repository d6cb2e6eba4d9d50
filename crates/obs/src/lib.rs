//! System-wide telemetry for the Cedar reproduction.
//!
//! The paper's Cedar machine carried dedicated monitoring hardware —
//! event tracers and histogrammers wired to backplane signals — that
//! observed the system without perturbing it. `cedar-sim::monitor`
//! models that hardware; this crate is the software layer above it:
//!
//! - a [`metrics::MetricsRegistry`] of named counters, gauges and
//!   histograms, hierarchical by dot-path, updated through interned
//!   handles cheap enough for the network's per-cycle loops;
//! - a [`trace::TraceSink`] of request-path spans, threading one
//!   request id from CE issue through the forward omega network, the
//!   memory module (queue and service, including bank-conflict
//!   stalls), and the return network, with fault-plan events (drops,
//!   stalls, retries, watchdog firings) interleaved on the same
//!   per-request track;
//! - two deterministic exporters: Chrome trace-event JSON
//!   ([`export::chrome_trace`], loadable in `chrome://tracing` or
//!   Perfetto) and Prometheus text exposition
//!   ([`export::prometheus`]);
//! - [`SharedObs`], the thread-safe registry, bounded span ring and
//!   HTTP scrape reply ([`http_reply`]) shared by the serving tier and
//!   the cluster coordinator.
//!
//! Everything in the simulator hangs off an [`Obs`] handle. A disabled
//! handle is a `None` — each instrumentation point costs one branch and
//! touches no shared state, so runs with [`ObsConfig::disabled`] reproduce
//! un-instrumented results bit for bit. The simulator is
//! single-threaded, so enabled handles share one
//! [`Rc<RefCell<ObsInner>>`].
//!
//! ```
//! use cedar_obs::{Obs, ObsConfig};
//!
//! let obs = Obs::new(ObsConfig::enabled());
//! let served = obs.counter("mem.module00.served").unwrap();
//! obs.inc(served);
//! obs.span_begin(0, 42, "request", 100);
//! obs.span_end(0, 42, "request", 131);
//! assert_eq!(obs.counter_value("mem.module00.served"), 1);
//! let json = obs.chrome_trace();
//! cedar_obs::export::validate_json(&json).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod export;
pub mod json;
pub mod metrics;
pub mod shared;
pub mod trace;

use std::cell::RefCell;
use std::rc::Rc;

pub use config::ObsConfig;
pub use metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry};
pub use shared::{http_reply, MetricSet, SharedObs};
pub use trace::{SpanPhase, TraceEvent, TraceSink};

/// The shared mutable telemetry state behind an enabled [`Obs`].
#[derive(Debug, Default)]
pub struct ObsInner {
    /// Which layers are live.
    pub config: ObsConfig,
    /// The metrics store (live when `config.metrics`).
    pub metrics: MetricsRegistry,
    /// The span stream (live when `config.tracing`).
    pub trace: TraceSink,
}

/// A cloneable telemetry handle.
///
/// Components store one and call the convenience methods below at
/// their instrumentation points. [`Obs::disabled`] carries no state at
/// all: every method is a single `Option` branch that does nothing, so
/// disabled runs are bit-identical to un-instrumented ones.
#[derive(Debug, Clone, Default)]
pub struct Obs(Option<Rc<RefCell<ObsInner>>>);

impl Obs {
    /// Creates a handle for `config`. A fully disabled config yields a
    /// stateless handle.
    #[must_use]
    pub fn new(config: ObsConfig) -> Self {
        if config.is_disabled() {
            return Obs(None);
        }
        Obs(Some(Rc::new(RefCell::new(ObsInner {
            config,
            metrics: MetricsRegistry::new(),
            trace: TraceSink::new(),
        }))))
    }

    /// The zero-overhead handle: no allocation, every call a no-op.
    #[must_use]
    pub fn disabled() -> Self {
        Obs(None)
    }

    /// Whether this handle records anything at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Whether span tracing is live on this handle.
    #[must_use]
    pub fn tracing_enabled(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|inner| inner.borrow().config.tracing)
    }

    /// Whether metrics collection is live on this handle.
    #[must_use]
    pub fn metrics_enabled(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|inner| inner.borrow().config.metrics)
    }

    // ---- metrics -----------------------------------------------------

    /// Interns a counter. `None` when metrics are off — callers cache
    /// the `Option<CounterId>` and the disabled case stays branch-only.
    pub fn counter(&self, name: &str) -> Option<CounterId> {
        let inner = self.0.as_ref()?;
        let mut inner = inner.borrow_mut();
        if !inner.config.metrics {
            return None;
        }
        Some(inner.metrics.counter(name))
    }

    /// Adds one to an interned counter.
    pub fn inc(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Adds `n` to an interned counter.
    pub fn add(&self, id: CounterId, n: u64) {
        if let Some(inner) = self.0.as_ref() {
            inner.borrow_mut().metrics.add(id, n);
        }
    }

    /// Adds `n` to the counter named `name`, interning on first use.
    /// For cold paths where caching a [`CounterId`] isn't worth it.
    pub fn bump(&self, name: &str, n: u64) {
        if let Some(inner) = self.0.as_ref() {
            let mut inner = inner.borrow_mut();
            if inner.config.metrics {
                let id = inner.metrics.counter(name);
                inner.metrics.add(id, n);
            }
        }
    }

    /// Current value of the counter named `name` (0 when disabled or
    /// absent).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |inner| inner.borrow().metrics.counter_value(name))
    }

    /// Interns a gauge (`None` when metrics are off).
    pub fn gauge(&self, name: &str) -> Option<GaugeId> {
        let inner = self.0.as_ref()?;
        let mut inner = inner.borrow_mut();
        if !inner.config.metrics {
            return None;
        }
        Some(inner.metrics.gauge(name))
    }

    /// Sets an interned gauge.
    pub fn set_gauge(&self, id: GaugeId, value: f64) {
        if let Some(inner) = self.0.as_ref() {
            inner.borrow_mut().metrics.set(id, value);
        }
    }

    /// Interns a histogram (`None` when metrics are off).
    pub fn histogram(&self, name: &str, bins: usize, bin_width: u64) -> Option<HistogramId> {
        let inner = self.0.as_ref()?;
        let mut inner = inner.borrow_mut();
        if !inner.config.metrics {
            return None;
        }
        Some(inner.metrics.histogram(name, bins, bin_width))
    }

    /// Records a sample into an interned histogram.
    pub fn record(&self, id: HistogramId, sample: u64) {
        if let Some(inner) = self.0.as_ref() {
            inner.borrow_mut().metrics.record(id, sample);
        }
    }

    // ---- tracing -----------------------------------------------------

    /// Opens a span on track `(pid, tid)` if tracing is live.
    pub fn span_begin(&self, pid: u64, tid: u64, name: &'static str, at: u64) {
        if let Some(inner) = self.0.as_ref() {
            let mut inner = inner.borrow_mut();
            if inner.config.tracing {
                inner.trace.begin(pid, tid, name, at);
            }
        }
    }

    /// Closes a span on track `(pid, tid)` if tracing is live.
    pub fn span_end(&self, pid: u64, tid: u64, name: &'static str, at: u64) {
        if let Some(inner) = self.0.as_ref() {
            let mut inner = inner.borrow_mut();
            if inner.config.tracing {
                inner.trace.end(pid, tid, name, at);
            }
        }
    }

    /// Records an instant marker if tracing is live.
    pub fn span_instant(
        &self,
        pid: u64,
        tid: u64,
        name: &'static str,
        at: u64,
        arg: Option<(&'static str, u64)>,
    ) {
        if let Some(inner) = self.0.as_ref() {
            let mut inner = inner.borrow_mut();
            if inner.config.tracing {
                inner.trace.instant(pid, tid, name, at, arg);
            }
        }
    }

    /// `(name, tid)` of the most recently opened span, for watchdog
    /// diagnostics.
    #[must_use]
    pub fn last_span(&self) -> Option<(&'static str, u64)> {
        self.0
            .as_ref()
            .and_then(|inner| inner.borrow().trace.last_span())
    }

    // ---- export ------------------------------------------------------

    /// Runs `f` over the inner state, if enabled.
    pub fn with<R>(&self, f: impl FnOnce(&ObsInner) -> R) -> Option<R> {
        self.0.as_ref().map(|inner| f(&inner.borrow()))
    }

    /// The Chrome trace-event JSON for everything recorded so far
    /// (an empty-but-valid document when disabled).
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        self.with(|inner| export::chrome_trace(inner.trace.events()))
            .unwrap_or_else(|| export::chrome_trace(&[]))
    }

    /// The Prometheus text exposition for the current registry (empty
    /// when disabled).
    #[must_use]
    pub fn prometheus(&self) -> String {
        self.with(|inner| export::prometheus(&inner.metrics))
            .unwrap_or_default()
    }

    /// Validates the recorded span stream (balanced, monotone per
    /// track). Trivially `Ok` when disabled.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation found.
    pub fn validate_trace(&self) -> Result<(), String> {
        self.with(|inner| trace::validate_events(inner.trace.events()))
            .unwrap_or(Ok(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        assert!(obs.counter("x").is_none());
        obs.bump("x", 5);
        assert_eq!(obs.counter_value("x"), 0);
        obs.span_begin(0, 1, "request", 0);
        assert_eq!(obs.last_span(), None);
        assert!(obs.validate_trace().is_ok());
        assert_eq!(obs.prometheus(), "");
        export::validate_json(&obs.chrome_trace()).unwrap();
    }

    #[test]
    fn disabled_config_allocates_nothing() {
        let obs = Obs::new(ObsConfig::disabled());
        assert!(!obs.is_enabled());
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::new(ObsConfig::enabled());
        let other = obs.clone();
        let id = obs.counter("shared").unwrap();
        other.add(id, 3);
        assert_eq!(obs.counter_value("shared"), 3);
    }

    #[test]
    fn metrics_only_suppresses_tracing() {
        let obs = Obs::new(ObsConfig::metrics_only());
        assert!(obs.metrics_enabled());
        assert!(!obs.tracing_enabled());
        obs.span_begin(0, 1, "request", 0);
        obs.span_end(0, 1, "request", 9);
        assert_eq!(obs.with(|i| i.trace.len()).unwrap(), 0);
        obs.bump("c", 2);
        assert_eq!(obs.counter_value("c"), 2);
    }

    #[test]
    fn spans_flow_through_to_export() {
        let obs = Obs::new(ObsConfig::enabled());
        obs.span_begin(1, 9, "request", 5);
        obs.span_instant(1, 9, "retry", 7, Some(("attempt", 1)));
        obs.span_end(1, 9, "request", 12);
        assert_eq!(obs.last_span(), Some(("request", 9)));
        obs.validate_trace().unwrap();
        let json = obs.chrome_trace();
        export::validate_json(&json).unwrap();
        assert!(json.contains("\"retry\""));
    }
}
