//! Randomized property tests for the omega network: delivery,
//! conservation, and wormhole integrity under randomized traffic,
//! driven by the simulator's deterministic SplitMix64 generator.

use cedar_faults::{FaultConfig, FaultPlan, MachineShape, RetryPolicy};
use cedar_net::config::NetworkConfig;
use cedar_net::fabric::{
    FabricConfig, FabricReport, PrefetchTraffic, RequestRecord, RoundTripFabric,
};
use cedar_net::network::OmegaNetwork;
use cedar_net::packet::{Packet, PacketId, PacketKind};
use cedar_net::topology::Topology;
use cedar_sim::rng::SplitMix64;

fn cfg() -> NetworkConfig {
    NetworkConfig::cedar()
}

const CASES: usize = 64;

/// Every injected packet is delivered exactly once, at its
/// destination, with all its words, no matter the traffic mix.
#[test]
fn all_packets_delivered_to_their_destinations() {
    let mut rng = SplitMix64::new(0x0e71);
    for _ in 0..CASES {
        let n = 1 + rng.next_below(79) as usize;
        let specs: Vec<(usize, usize, u8)> = (0..n)
            .map(|_| {
                (
                    rng.next_below(64) as usize,
                    rng.next_below(64) as usize,
                    1 + rng.next_below(4) as u8,
                )
            })
            .collect();
        let mut net = OmegaNetwork::new(cfg());
        let mut pending: Vec<Packet> = specs
            .iter()
            .enumerate()
            .map(|(i, &(src, dest, words))| {
                Packet::new(PacketId(i as u64), src, dest, words, PacketKind::Write)
            })
            .collect();
        let total = pending.len();
        let mut delivered = Vec::new();
        let mut cycles = 0u64;
        while delivered.len() < total {
            pending.retain(|&p| !net.try_inject(p));
            net.step();
            delivered.extend(net.drain_delivered());
            cycles += 1;
            assert!(cycles < 200_000, "network livelocked");
        }
        assert_eq!(delivered.len(), total);
        let mut seen = vec![false; total];
        for d in &delivered {
            let idx = d.packet.id.0 as usize;
            assert!(!seen[idx], "duplicate delivery");
            seen[idx] = true;
            let (_, dest, words) = specs[idx];
            assert_eq!(d.packet.dest, dest);
            assert_eq!(d.packet.words, words);
            assert!(d.tail_exit >= d.head_exit);
        }
        assert!(net.is_idle(), "no residue after all deliveries");
        assert_eq!(net.words_injected(), net.words_exited());
    }
}

/// Tag routing agrees with the analytic route for every pair on every
/// supported geometry.
#[test]
fn analytic_route_terminates_at_destination() {
    let mut rng = SplitMix64::new(0x0e72);
    for _ in 0..CASES {
        let radix = 2usize.pow(1 + rng.next_below(3) as u32);
        let stages = match radix {
            2 => 6,
            4 => 3,
            _ => 2,
        };
        let t = Topology::new(radix, stages).unwrap();
        let src = rng.next_below(64) as usize % t.ports();
        let dest = rng.next_below(64) as usize % t.ports();
        let route = t.route(src, dest);
        assert_eq!(route.len(), stages);
        let (last_switch, _, last_out) = *route.last().unwrap();
        match t.next_hop(stages - 1, last_switch, last_out) {
            cedar_net::topology::Hop::Output(pos) => assert_eq!(pos, dest),
            cedar_net::topology::Hop::Switch { .. } => panic!("did not exit"),
        }
    }
}

/// The shuffle is always a permutation whose k-fold composition is the
/// identity (rotating k digits k times).
#[test]
fn shuffle_order_divides_stage_count() {
    for radix_pow in 1u32..=3 {
        let radix = 2usize.pow(radix_pow);
        let stages = match radix {
            2 => 6,
            4 => 3,
            _ => 2,
        };
        let t = Topology::new(radix, stages).unwrap();
        for p in 0..t.ports() {
            let mut q = p;
            for _ in 0..stages {
                q = t.shuffle(q);
            }
            assert_eq!(q, p, "k-fold shuffle must be identity");
        }
    }
}

/// Theory meets simulation: a pair of routes the topology calls
/// conflict-free travels with zero mutual interference — each packet's
/// exit time equals its solo exit time.
#[test]
fn conflict_free_pairs_do_not_interfere() {
    let topo = Topology::new(8, 2).unwrap();
    let mut rng = SplitMix64::new(0x0e73);
    let mut checked = 0;
    while checked < CASES {
        let (src_a, dest_a, src_b, dest_b) = (
            rng.next_below(64) as usize,
            rng.next_below(64) as usize,
            rng.next_below(64) as usize,
            rng.next_below(64) as usize,
        );
        if topo.routes_conflict(src_a, dest_a, src_b, dest_b) {
            continue;
        }
        checked += 1;
        let solo = |src: usize, dest: usize| {
            let mut net = OmegaNetwork::new(cfg());
            net.try_inject(Packet::request(src, dest, 0));
            for _ in 0..50 {
                net.step();
                if let Some(d) = net.drain_delivered().pop() {
                    return d.head_exit;
                }
            }
            panic!("packet lost");
        };
        let t_a = solo(src_a, dest_a);
        let t_b = solo(src_b, dest_b);
        let mut net = OmegaNetwork::new(cfg());
        net.try_inject(Packet::request(src_a, dest_a, 0));
        net.try_inject(Packet::request(src_b, dest_b, 1));
        let mut exits = std::collections::HashMap::new();
        for _ in 0..100 {
            net.step();
            for d in net.drain_delivered() {
                exits.insert(d.packet.id.0, d.head_exit);
            }
        }
        assert_eq!(exits.get(&0).copied(), Some(t_a), "packet A delayed");
        assert_eq!(exits.get(&1).copied(), Some(t_b), "packet B delayed");
    }
}

/// Determinism: the same injection schedule produces the identical
/// delivery schedule.
#[test]
fn network_is_deterministic() {
    let mut rng = SplitMix64::new(0x0e74);
    for _ in 0..CASES {
        let n = 1 + rng.next_below(39) as usize;
        let specs: Vec<(usize, usize)> = (0..n)
            .map(|_| (rng.next_below(64) as usize, rng.next_below(64) as usize))
            .collect();
        let run = || {
            let mut net = OmegaNetwork::new(cfg());
            let mut out = Vec::new();
            for (i, &(src, dest)) in specs.iter().enumerate() {
                let _ = net.try_inject(Packet::request(src, dest, i as u64));
            }
            for _ in 0..5_000 {
                net.step();
                out.extend(net.drain_delivered());
            }
            out
        };
        assert_eq!(run(), run());
    }
}

/// Packet conservation on the round-trip fabric, fault-free: every
/// request a source injects comes back as a reply exactly once — the
/// report resolves with zero retries, drops, or abandonments.
#[test]
fn fabric_returns_every_packet_exactly_once() {
    let mut rng = SplitMix64::new(0x0e75);
    for _ in 0..8 {
        let ces = [4usize, 8, 16][rng.next_below(3) as usize];
        let blocks = 2 + rng.next_below(3) as u32;
        let mut traffic = PrefetchTraffic::compiler_default(blocks);
        traffic.gap_ce_cycles = rng.next_below(3);
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        let report = fabric.run_prefetch_experiment(ces, traffic, 16_000_000);
        assert!(report.completed(), "run must drain");
        assert!(report.resolved());
        let expected = u64::from(blocks) * u64::from(traffic.block_len) * ces as u64;
        assert_eq!(report.request_count(), expected, "one reply per request");
        assert_eq!(report.retries(), 0);
        assert_eq!(report.words_dropped(), 0);
        assert_eq!(report.failed_requests(), 0);
    }
}

/// Packet conservation under injected link drops: with a lossy plan
/// attached, every request still resolves exactly once — recovered by
/// the timeout-and-retry machinery, never duplicated by late replies.
#[test]
fn fabric_recovers_every_dropped_packet_exactly_once() {
    let mut rng = SplitMix64::new(0x0e76);
    let mut saw_drops = false;
    for _ in 0..6 {
        let seed = rng.next_u64();
        let drop_prob = 0.01 + rng.next_f64() * 0.03;
        let plan = FaultPlan::generate(
            &FaultConfig::link_noise(seed, drop_prob),
            &MachineShape::cedar(),
        )
        .unwrap();
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        fabric.attach_faults(plan, RetryPolicy::fabric());
        let traffic = PrefetchTraffic::compiler_default(3);
        let report = fabric.run_prefetch_experiment(8, traffic, 64_000_000);
        assert!(report.resolved(), "every request resolves");
        let expected = 3 * u64::from(traffic.block_len) * 8;
        assert_eq!(
            report.request_count(),
            expected,
            "exactly one reply per request, retries notwithstanding"
        );
        assert_eq!(report.failed_requests(), 0, "these rates are recoverable");
        assert!(
            report.retries() >= report.words_dropped() / 2,
            "dropped requests come back only via reissue"
        );
        saw_drops |= report.words_dropped() > 0;
    }
    assert!(saw_drops, "the sweep should exercise at least one drop");
}

/// The interarrival reduction as first written: a per-CE `BTreeMap`
/// from block to that block's returns.
fn mean_interarrival_by_map(report: &FabricReport) -> f64 {
    let ratio = report.net_cycles_per_ce_cycle as f64;
    let mut n = 0u64;
    let mut sum = 0.0;
    for records in &report.per_ce {
        let mut by_block: std::collections::BTreeMap<u32, Vec<u64>> =
            std::collections::BTreeMap::new();
        for r in records {
            by_block.entry(r.block).or_default().push(r.ret);
        }
        for rets in by_block.values() {
            for w in rets.windows(2) {
                sum += (w[1] - w[0]) as f64 / ratio;
                n += 1;
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `mean_interarrival_ce` sums in the map's order (blocks ascending,
/// then return order), so it is bit-identical to the map reduction on
/// any report: random CE counts, blocks completing out of order, and
/// clock ratios 1 to 3.
#[test]
fn interarrival_reduction_matches_the_map_reduction_bit_for_bit() {
    let mut rng = SplitMix64::new(0x1a7e);
    let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
    let mut report =
        fabric.run_prefetch_experiment(2, PrefetchTraffic::compiler_default(1), 1 << 20);
    for case in 0..CASES {
        let ces = rng.next_below(6) as usize;
        let blocks = 1 + rng.next_below(5) as u32;
        report.per_ce = (0..ces)
            .map(|_| {
                let mut ret = rng.next_below(100);
                (0..rng.next_below(80))
                    .map(|i| {
                        // Returns arrive in completion order; blocks
                        // interleave as several are in flight.
                        ret += rng.next_below(7);
                        RequestRecord {
                            block: rng.next_below(u64::from(blocks)) as u32,
                            index_in_block: i as u32,
                            issue: 0,
                            ret,
                        }
                    })
                    .collect()
            })
            .collect();
        report.net_cycles_per_ce_cycle = 1 + rng.next_below(3);
        assert_eq!(
            report.mean_interarrival_ce().to_bits(),
            mean_interarrival_by_map(&report).to_bits(),
            "case {case}"
        );
    }
}
