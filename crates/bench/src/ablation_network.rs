//! The \[Turn93\] network ablation.
//!
//! "We have shown via detailed simulations that this degradation is
//! not inherent in the type of network used but is a result of
//! specific implementation constraints." The ablation keeps the omega
//! topology fixed and varies only implementation parameters:
//!
//! * **buffer depth** — deepening the two-word crossbar queues and
//!   module buffers does *not* repair the 32-CE degradation (the
//!   backlog just queues deeper, raising latency at the same
//!   throughput), showing the bottleneck is not FIFO capacity;
//! * **memory-module service rate** — doubling the modules' service
//!   rate (an implementation constraint of the memory boards, not the
//!   shuffle-exchange network) removes the degradation entirely,
//!   returning 32-CE latency and interarrival to near their minima.
//!
//! Same topology, different implementation, no degradation — the
//! paper's claim.

use cedar_net::config::NetworkConfig;
use cedar_net::fabric::{FabricConfig, PrefetchTraffic, RoundTripFabric};

/// One operating point at 32 CEs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AblationPoint {
    /// Row label.
    pub label: &'static str,
    /// Crossbar queue depth in words.
    pub queue_words: usize,
    /// Module service time in network cycles.
    pub service_net_cycles: u64,
    /// Mean first-word latency (CE cycles).
    pub latency: f64,
    /// Mean interarrival (CE cycles).
    pub interarrival: f64,
    /// Delivered bandwidth (words per CE cycle).
    pub bandwidth: f64,
}

/// The swept configurations: Cedar, deeper buffers, faster modules.
pub const CONFIGS: [(&str, usize, u64); 5] = [
    ("Cedar (ships)", 2, 4),
    ("4-word queues", 4, 4),
    ("16-word queues", 16, 4),
    ("2x module rate", 2, 2),
    ("2x rate + 4w queues", 4, 2),
];

/// Runs the 32-CE stress test at each configuration, one fresh fabric
/// per point, fanned out over [`cedar_exec::run_sweep_on`].
#[must_use]
pub fn run() -> Vec<AblationPoint> {
    cedar_exec::run_sweep_on(
        cedar_exec::threads(),
        CONFIGS.to_vec(),
        |(label, queue_words, service)| {
            let mut cfg = FabricConfig::cedar();
            cfg.net = NetworkConfig::cedar_with_queue_words(queue_words);
            cfg.net.exit_fifo_words = queue_words;
            cfg.module_buffer_requests = queue_words;
            cfg.mem_service_net_cycles = service;
            let mut fabric = RoundTripFabric::new(cfg);
            let report =
                fabric.run_prefetch_experiment(32, PrefetchTraffic::rk_aggressive(6), 32_000_000);
            AblationPoint {
                label,
                queue_words,
                service_net_cycles: service,
                latency: report.mean_first_word_latency_ce(),
                interarrival: report.mean_interarrival_ce(),
                bandwidth: report.words_per_ce_cycle(),
            }
        },
    )
}

/// Prints the ablation.
pub fn print() {
    println!("[Turn93] ablation: implementation parameters vs 32-CE contention");
    println!("(omega topology fixed throughout; RK traffic on 32 CEs)");
    println!(
        "{:22} {:>7} {:>9} {:>9} {:>13} {:>12}",
        "configuration", "queues", "service", "latency", "interarrival", "words/cycle"
    );
    for p in run() {
        println!(
            "{:22} {:>7} {:>9} {:>9.1} {:>13.2} {:>12.2}",
            p.label, p.queue_words, p.service_net_cycles, p.latency, p.interarrival, p.bandwidth
        );
    }
    println!(
        "
Deeper FIFOs alone leave throughput pinned and *raise* latency;"
    );
    println!("faster memory modules (an implementation constraint, not the");
    println!("network type) remove the degradation — the paper's conclusion.");
}
