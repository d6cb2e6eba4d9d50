//! Service configuration.

use std::path::PathBuf;
use std::time::Duration;

/// Tunables for one [`crate::server::Server`] instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Admission capacity of the job queue; pushes beyond it are shed
    /// with a typed rejection.
    pub queue_capacity: usize,
    /// Long-lived worker threads executing jobs, each taking its next
    /// tickets straight from the queue when it goes idle (0 means 1).
    pub workers: usize,
    /// Most tickets one worker takes per pop. A worker runs what it
    /// took one after another, so 1 spreads a burst across the
    /// workers; more keeps a burst on one thread.
    pub batch_max: usize,
    /// Simulated-network cycle budget per job.
    pub max_net_cycles: u64,
    /// Directory for cross-run memoization; `None` disables the disk
    /// cache (in-flight dedup still applies).
    pub cache_dir: Option<PathBuf>,
    /// How long a connection handler waits for its job's reply before
    /// giving up (a server-bug backstop, not a job deadline).
    pub reply_timeout: Duration,
    /// Budget for finishing a request line once its first byte has
    /// arrived. A connection holding a *partial* line open longer than
    /// this (a slow-loris, a wedged client) is answered with a typed
    /// `timeout` line and closed. Connections that are merely idle —
    /// zero bytes of a next request — are never reaped.
    pub line_timeout: Duration,
    /// Kernel send timeout for reply writes. A client that stops
    /// reading while the server owes it bytes is reaped once a write
    /// blocks this long.
    pub write_timeout: Duration,
    /// Readiness-loop threads multiplexing the connections. Reactor 0
    /// also owns the listener; two threads keep accept latency flat
    /// while one core's worth of connections churns.
    pub reactor_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            queue_capacity: 64,
            workers: 4,
            batch_max: 1,
            max_net_cycles: crate::job::MAX_NET_CYCLES,
            cache_dir: None,
            reply_timeout: Duration::from_secs(60),
            line_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            reactor_threads: 2,
        }
    }
}
