//! Integration tests of the topology subsystem at the `Network` level:
//! the complete graph is bit-for-bit the pre-topology simulator, and
//! sparse graphs actually constrain where messages travel.

use noisy_channel::NoiseMatrix;
use pushsim::{
    AdoptionScope, DeliverySemantics, Network, Opinion, PushBackend, SimConfig, TopologySpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-style fold of the full phase-by-phase evolution of a seeded run:
/// every inbox count after every phase, and the population tallies after
/// every adoption step.
fn evolution_digest(config: SimConfig) -> u64 {
    let noise = NoiseMatrix::uniform(3, 0.2).unwrap();
    let mut net = Network::new(config, noise).unwrap();
    net.seed_counts(&[200, 100, 50]).unwrap();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |value: u64| {
        h ^= value;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for _ in 0..3 {
        net.begin_phase();
        for _ in 0..4 {
            net.push_round(|_, s| s.opinion());
        }
        net.end_phase();
        for node in 0..net.num_nodes() {
            for &c in net.inboxes().received(node) {
                fold(u64::from(c).wrapping_add(1));
            }
        }
        let mut decide = StdRng::seed_from_u64(42);
        net.resolve_uniform_adoption(AdoptionScope::UndecidedOnly, &mut decide);
        for &c in net.opinion_counts() {
            fold(c as u64);
        }
    }
    h
}

#[test]
fn complete_topology_is_bit_identical_to_the_pre_topology_code_path() {
    // The digests below were captured from the simulator *immediately
    // before* the topology subsystem was introduced (same seeds, same
    // run shape). The default complete topology must reproduce the exact
    // historical RNG streams under all three delivery processes — this is
    // what keeps every fixed-seed fixture in the workspace valid.
    let digest_for = |delivery| {
        evolution_digest(
            SimConfig::builder(500, 3)
                .seed(0xBEEF)
                .delivery(delivery)
                .build()
                .unwrap(),
        )
    };
    assert_eq!(digest_for(DeliverySemantics::Exact), 0x141e_3f19_b666_0616);
    assert_eq!(
        digest_for(DeliverySemantics::BallsIntoBins),
        0x6f78_4738_5a78_2242
    );
    assert_eq!(
        digest_for(DeliverySemantics::Poissonized),
        0xba04_649a_9748_04ed
    );
}

#[test]
fn explicit_complete_topology_matches_the_default() {
    let default_config = SimConfig::builder(500, 3).seed(0xBEEF).build().unwrap();
    let explicit = SimConfig::builder(500, 3)
        .seed(0xBEEF)
        .topology(TopologySpec::Complete)
        .build()
        .unwrap();
    assert_eq!(evolution_digest(default_config), evolution_digest(explicit));
}

fn sparse_net(topology: TopologySpec, n: usize, seed: u64) -> Network {
    let noise = NoiseMatrix::identity(3).unwrap();
    let config = SimConfig::builder(n, 3)
        .seed(seed)
        .topology(topology)
        .build()
        .unwrap();
    Network::new(config, noise).unwrap()
}

#[test]
fn ring_pushes_only_reach_ring_neighbors() {
    let mut net = sparse_net(TopologySpec::Ring, 40, 1);
    net.seed_rumor(10, Opinion::new(0)).unwrap();
    net.begin_phase();
    for _ in 0..50 {
        net.push_round(|_, s| s.opinion());
    }
    let inboxes = net.end_phase();
    assert_eq!(inboxes.total_messages(), 50);
    for node in 0..40 {
        let received = inboxes.received_total(node) > 0;
        assert_eq!(
            received,
            node == 9 || node == 11,
            "node {node}: ring messages from 10 may only land on 9 and 11"
        );
    }
}

#[test]
fn rumor_spreads_hop_by_hop_on_a_ring() {
    // One adoption step per phase: after p phases the rumor has travelled
    // at most p hops from the source in each direction.
    let mut net = sparse_net(TopologySpec::Ring, 30, 2);
    net.seed_rumor(0, Opinion::new(1)).unwrap();
    let mut decide = StdRng::seed_from_u64(9);
    for phase in 1..=5u32 {
        net.begin_phase();
        for _ in 0..20 {
            net.push_round(|_, s| s.opinion());
        }
        net.end_phase();
        net.resolve_uniform_adoption(AdoptionScope::UndecidedOnly, &mut decide);
        for node in 0..30usize {
            let hops = node.min(30 - node);
            if net.state(node).opinion().is_some() {
                assert!(
                    hops <= phase as usize,
                    "node {node} is {hops} hops out but adopted by phase {phase}"
                );
            }
        }
    }
    assert!(
        net.distribution().opinionated() > 5,
        "20 rounds per phase saturate the frontier"
    );
}

#[test]
fn isolated_nodes_stay_silent_under_er_zero() {
    // er(0) has no edges at all: decide offers an opinion but no message
    // can be sent, so the round reports zero pushes.
    let mut net = sparse_net(TopologySpec::ErdosRenyi { p: 0.0 }, 20, 3);
    net.seed_counts(&[10, 5, 0]).unwrap();
    net.begin_phase();
    let report = net.push_round(|_, s| s.opinion());
    assert_eq!(report.messages_sent(), 0);
    assert_eq!(net.end_phase().total_messages(), 0);
    assert_eq!(net.messages_sent(), 0);
}

#[test]
fn sparse_runs_are_reproducible_and_seed_sensitive() {
    let run = |seed| {
        let mut net = sparse_net(TopologySpec::RandomRegular { degree: 4 }, 60, seed);
        net.seed_counts(&[20, 10, 5]).unwrap();
        net.begin_phase();
        for _ in 0..10 {
            net.push_round(|_, s| s.opinion());
        }
        net.end_phase();
        (0..60)
            .map(|u| net.inboxes().received(u).to_vec())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

#[test]
fn backend_capability_matches_the_constructors() {
    let noise = NoiseMatrix::uniform(3, 0.2).unwrap();
    for spec in [
        TopologySpec::Ring,
        TopologySpec::Torus2D,
        TopologySpec::RandomRegular { degree: 8 },
        TopologySpec::ErdosRenyi { p: 0.1 },
    ] {
        // Sparse topologies run agent-level under exact delivery …
        let config = SimConfig::builder(49, 3).topology(spec).build().unwrap();
        assert!(Network::new(config.clone(), noise.clone()).is_ok(), "{spec}");
        // … never on the count-based backend, whose reformulation needs
        // the complete graph's global exchangeability …
        assert!(matches!(
            pushsim::CountingNetwork::new(config, noise.clone()),
            Err(pushsim::SimError::UnsupportedTopology { .. })
        ));
        // … and deferred delivery (a uniform scatter that would silently
        // ignore the graph) is refused before any backend is built.
        for delivery in [DeliverySemantics::BallsIntoBins, DeliverySemantics::Poissonized] {
            assert!(matches!(
                SimConfig::builder(49, 3).topology(spec).delivery(delivery).build(),
                Err(pushsim::SimError::UnsupportedTopology { .. })
            ));
        }
    }
}
