//! The implicit complete graph is observationally the explicit one: a
//! fixed-seed simulation over either representation ends in byte-identical
//! node states, and the implicit graph runs at sizes whose explicit
//! adjacency (n(n−1) ids) would not fit in memory.

use std::sync::Arc;

use distclass::core::{CentroidInstance, Quantum};
use distclass::gossip::wire::WireSummary;
use distclass::gossip::{GossipConfig, RoundSim, SelectorKind};
use distclass::linalg::Vector;
use distclass::net::{CrashModel, NodeId, Topology};

fn values(n: usize) -> Vec<Vector> {
    (0..n)
        .map(|i| Vector::from([(i % 7) as f64, (i % 3) as f64 * 4.0]))
        .collect()
}

/// The complete graph built from its full directed edge set, which
/// stores one sorted neighbor list per node.
fn explicit_complete(n: usize) -> Topology {
    let edges: Vec<(NodeId, NodeId)> = (0..n)
        .flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)))
        .collect();
    Topology::from_directed_edges(n, &edges).expect("complete graph is connected")
}

/// Every node's classification after `rounds` rounds, as wire bytes.
fn wire_states(topology: Topology, config: &GossipConfig, rounds: u64) -> Vec<Vec<u8>> {
    let n = topology.len();
    let inst = Arc::new(CentroidInstance::new(3).expect("k = 3 is valid"));
    let mut sim = RoundSim::new(topology, inst, &values(n), config);
    sim.run_rounds(rounds);
    (0..n)
        .map(|i| {
            Vector::encode(sim.classification_of(i))
                .expect("centroid classifications encode")
                .to_vec()
        })
        .collect()
}

#[test]
fn implicit_and_explicit_complete_graphs_run_byte_identically() {
    let n = 64;
    assert_eq!(Topology::complete(n), explicit_complete(n));
    // Crashes with the failure detector on exercise the live-neighbor
    // fallbacks of both selectors, not just the first draw.
    for selector in [SelectorKind::RoundRobin, SelectorKind::UniformRandom] {
        for crash in [CrashModel::None, CrashModel::PerRound { prob: 0.05 }] {
            let config = GossipConfig {
                seed: 11,
                selector,
                crash: crash.clone(),
                ..GossipConfig::default()
            };
            assert_eq!(
                wire_states(Topology::complete(n), &config, 25),
                wire_states(explicit_complete(n), &config, 25),
                "{selector:?}, {crash:?}"
            );
        }
    }
}

#[test]
fn round_sim_on_twenty_thousand_nodes_conserves_every_grain() {
    // Explicit adjacency at this size would be 20 000 · 19 999 ids, 3.2 GB.
    let n = 20_000;
    let q = Quantum::new(1 << 10);
    let config = GossipConfig {
        quantum: q,
        ..GossipConfig::default()
    };
    let inst = Arc::new(CentroidInstance::new(2).expect("k = 2 is valid"));
    let mut sim = RoundSim::new(Topology::complete(n), inst, &values(n), &config);
    sim.run_round();
    assert_eq!(sim.metrics().messages_delivered, n as u64);
    assert_eq!(
        sim.total_live_weight().grains(),
        n as u64 * q.grains_per_unit()
    );
}
