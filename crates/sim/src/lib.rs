//! `cedar-sim` — discrete-event simulation substrate for the Cedar
//! multiprocessor reproduction.
//!
//! The Cedar paper measures the machine with external hardware: event
//! tracers that time-stamp signals and histogrammers that count them.
//! This crate provides the software equivalents used by every other
//! crate in the workspace:
//!
//! * [`time`] — the cycle-based clock ([`Cycle`], [`CycleDelta`]) and
//!   conversions to wall-clock seconds for a given clock period
//!   (Cedar's CE cycle is 170 ns).
//! * [`event`] — a deterministic event queue ([`EventQueue`]) with
//!   FIFO tie-breaking, the heart of the cycle-level simulations in
//!   `cedar-net` and `cedar-mem`.
//! * [`rng`] — a small, dependency-free deterministic PRNG
//!   ([`SplitMix64`]) so that every simulated experiment is
//!   reproducible bit-for-bit.
//! * [`stats`] — running statistics, histograms and counters.
//! * [`monitor`] — a model of Cedar's performance-monitoring hardware:
//!   [`EventTracer`] (1M-event capture buffers) and
//!   [`Histogrammer`] (64K × 32-bit counters), cascadable exactly as
//!   the paper describes.
//! * [`watchdog`] — a no-progress detector ([`Watchdog`]) so degraded
//!   or fault-injected simulations abort with a diagnostic instead of
//!   spinning forever.
//!
//! # Examples
//!
//! ```
//! use cedar_sim::event::EventQueue;
//! use cedar_sim::time::Cycle;
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(Cycle::new(5), "late");
//! q.schedule(Cycle::new(2), "early");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (Cycle::new(2), "early"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod monitor;
pub mod rng;
pub mod stats;
pub mod time;
pub mod watchdog;

pub use event::EventQueue;
pub use monitor::{EventTracer, Histogrammer, PerformanceMonitor};
pub use rng::SplitMix64;
pub use stats::{Counter, Histogram, RunningStats};
pub use time::{ClockPeriod, Cycle, CycleDelta};
pub use watchdog::{Watchdog, WatchdogReport};
