//! `cedar-net` — the Cedar global interconnection network.
//!
//! The paper (§2, "Global Network") describes the network this crate
//! simulates:
//!
//! > "It is a multistage shuffle-exchange network … self-routing,
//! > buffered and packet-switched. Routing is based on the tag control
//! > scheme proposed in \[Lawr75\] and provides a unique path between
//! > any pair of input/output ports. Each network packet consists of
//! > one to four 64-bit words … The network is constructed with 8×8
//! > crossbar switches with 64-bit wide data paths. A two word queue
//! > is used on each crossbar input and output port and flow control
//! > between stages prevents queue overflow."
//!
//! Two unidirectional copies exist: a *forward* network carrying
//! requests from computational elements (CEs) to the global-memory
//! modules, and a *reverse* network carrying data back.
//!
//! The crate provides:
//!
//! * [`config::NetworkConfig`] — radix/stage/queue parameters with the
//!   Cedar defaults;
//! * [`packet`] — packets of one to four 64-bit words and word-level
//!   flits;
//! * [`topology`] — the radix-`r` perfect-shuffle wiring and
//!   destination-tag routing digits;
//! * [`switch::Crossbar`] — an 8×8 crossbar with two-word input and
//!   output queues, round-robin arbitration and wormhole packet
//!   integrity;
//! * [`network::OmegaNetwork`] — the assembled unidirectional network
//!   with cycle-by-cycle flow control;
//! * [`fabric::RoundTripFabric`] — forward network + per-port memory
//!   servers + reverse network, the measurement engine behind the
//!   paper's Table 2 (first-word latency and interarrival time under
//!   contention);
//! * [`combining::CombiningFabric`] — the same stages with NYU
//!   Ultracomputer fetch-and-add combining switched on, the zoo's
//!   Ultra machine and its plain-omega hotspot control;
//! * [`cedar32`] — the production 32×32 dual-link variant the real
//!   machine shipped with (path diversity the regular omega lacks),
//!   used by the fidelity study.
//!
//! # Clocking
//!
//! The network is simulated in *network cycles*. Cedar's switches were
//! clocked faster than the 170 ns CE instruction cycle; the default
//! configuration uses two network cycles per CE cycle, which together
//! with the memory-module service time reproduces the paper's minimum
//! round-trip of 8 CE cycles and minimum interarrival of ~1 CE cycle.
//!
//! # Examples
//!
//! ```
//! use cedar_net::config::NetworkConfig;
//! use cedar_net::network::OmegaNetwork;
//! use cedar_net::packet::Packet;
//!
//! let cfg = NetworkConfig::cedar();
//! let mut net = OmegaNetwork::new(cfg);
//! let pkt = Packet::request(0, 17, 1);
//! assert!(net.try_inject(pkt));
//! let mut delivered = Vec::new();
//! for _ in 0..20 {
//!     net.step();
//!     delivered.extend(net.drain_delivered());
//! }
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].packet.dest, 17);
//! ```

#![warn(missing_docs)]

pub mod cedar32;
pub mod combining;
pub mod config;
pub mod fabric;
pub mod network;
pub mod packet;
pub mod switch;
pub mod topology;

pub use combining::{
    run_hotspot, CombiningConfig, CombiningFabric, CombiningReport, HotspotTraffic,
};
pub use config::NetworkConfig;
pub use fabric::specialized::{EngineKind, Phase, PhaseLedger, ENGINE_ENV};
pub use fabric::{AddressPattern, FabricReport, PrefetchTraffic, RoundTripFabric};
pub use network::{Delivery, OmegaNetwork};
pub use packet::{Packet, PacketId, PacketKind};
