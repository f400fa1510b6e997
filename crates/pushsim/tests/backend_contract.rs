//! The backend contract: one generic property suite, instantiated for
//! every `PushBackend` implementation.
//!
//! Every assertion below is written once against the trait (dyn-free —
//! the suite is a generic function monomorphized per backend) and must hold
//! identically for the agent-level `Network` and the count-based
//! `CountingNetwork`: population conservation,
//! seeding round-trips, phase and message counters, observation totals,
//! and conservation through every decision operator. This is the seam the
//! whole protocol stack builds on; if the backends ever diverge on one of
//! these observable contracts, this file is where it shows up.

use noisy_channel::NoiseMatrix;
use pushsim::{
    AdoptionScope, CountingNetwork, DeliverySemantics, Network, Opinion, PhaseObservation,
    PushBackend, SimConfig, SimError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 240;
const K: usize = 3;

fn config(seed: u64, delivery: DeliverySemantics) -> SimConfig {
    SimConfig::builder(N, K)
        .seed(seed)
        .delivery(delivery)
        .build()
        .unwrap()
}

fn noise() -> NoiseMatrix {
    NoiseMatrix::uniform(K, 0.2).unwrap()
}

fn agent(seed: u64) -> Network {
    Network::new(config(seed, DeliverySemantics::Exact), noise()).unwrap()
}

fn counting(seed: u64) -> CountingNetwork {
    CountingNetwork::new(config(seed, DeliverySemantics::Poissonized), noise()).unwrap()
}

/// Seeding round-trips: `seed_counts` is reflected exactly in the
/// distribution, `clear_opinions` resets to all-undecided, `seed_rumor_at`
/// leaves exactly one opinionated agent, and invalid inputs are rejected
/// without corrupting state.
fn check_seeding_roundtrip<B: PushBackend>(net: &mut B) {
    assert_eq!(net.num_nodes(), N);
    assert_eq!(net.num_opinions(), K);
    assert_eq!(net.config().num_nodes(), N);
    assert_eq!(net.noise().num_opinions(), K);

    net.seed_counts(&[100, 50, 20]).unwrap();
    let dist = net.distribution();
    assert_eq!(dist.counts(), &[100, 50, 20]);
    assert_eq!(dist.undecided(), N - 170);
    assert_eq!(dist.num_nodes(), N);
    assert!(!net.is_consensus());

    // Invalid requests fail and leave the distribution untouched.
    assert!(net.seed_counts(&[N + 1, 0, 0]).is_err());
    assert!(net.seed_counts(&[1, 1]).is_err());
    assert!(matches!(
        net.seed_rumor_at(N, Opinion::new(0)),
        Err(SimError::NodeOutOfRange { .. })
    ));
    assert!(net.seed_rumor_at(0, Opinion::new(K)).is_err());

    net.seed_rumor_at(3, Opinion::new(2)).unwrap();
    let dist = net.distribution();
    assert_eq!(dist.opinionated(), 1);
    assert_eq!(dist.count(Opinion::new(2)), 1);

    net.clear_opinions();
    let dist = net.distribution();
    assert_eq!(dist.opinionated(), 0);
    assert_eq!(dist.undecided(), N);

    // Full single-opinion population is a consensus, and is O(k)-visible.
    net.seed_counts(&[0, N, 0]).unwrap();
    assert!(net.is_consensus());
    assert!(net.distribution().is_consensus_on(Opinion::new(1)));
}

/// Phase counters: `rounds_executed` / `messages_sent` advance exactly with
/// the pushed rounds, and the observation's total matches the pushed volume
/// for conserving semantics (process O delivers every message; the
/// counting tally records every pushed message pre-thinning).
fn check_phase_counters<B: PushBackend>(net: &mut B) {
    net.seed_counts(&[80, 40, 10]).unwrap();
    assert_eq!(net.rounds_executed(), 0);
    assert_eq!(net.messages_sent(), 0);

    let rounds = 5u64;
    net.begin_phase();
    let mut pushed = 0u64;
    for round in 0..rounds {
        let report = net.push_opinionated_round();
        assert_eq!(report.round(), round);
        assert_eq!(report.messages_sent(), 130);
        pushed += report.messages_sent();
    }
    let total = net.end_phase().total_received();
    assert_eq!(pushed, rounds * 130);
    assert_eq!(net.rounds_executed(), rounds);
    assert_eq!(net.messages_sent(), pushed);
    assert_eq!(total, pushed, "phase observation must conserve pushes");
    assert_eq!(net.observation().total_received(), pushed);
    assert_eq!(
        net.observation().received_totals().iter().sum::<u64>(),
        pushed
    );
    // The inbox ceiling is positive whenever messages flowed.
    assert!(net.observation().max_inbox() > 0);

    // Counters survive clear_opinions.
    net.clear_opinions();
    assert_eq!(net.rounds_executed(), rounds);
    assert_eq!(net.messages_sent(), pushed);
}

/// Every decision operator conserves the population exactly, and the
/// uniform-adoption operator with `UndecidedOnly` scope never shrinks an
/// opinionated group.
fn check_decision_operators_conserve<B: PushBackend>(net: &mut B, rng: &mut StdRng) {
    net.seed_counts(&[90, 60, 30]).unwrap();
    for (i, sample_size) in [1u64, 3, 7].into_iter().enumerate() {
        net.begin_phase();
        for _ in 0..4 {
            net.push_opinionated_round();
        }
        net.end_phase();

        let before = net.distribution();
        match i {
            0 => {
                net.resolve_uniform_adoption(AdoptionScope::UndecidedOnly, rng);
                let after = net.distribution();
                for o in 0..K {
                    assert!(
                        after.counts()[o] >= before.counts()[o],
                        "UndecidedOnly adoption shrank opinion {o}: {before} -> {after}"
                    );
                }
                assert!(after.undecided() <= before.undecided());
            }
            1 => net.resolve_uniform_adoption(AdoptionScope::AllAgents, rng),
            _ => net.resolve_sample_majority(sample_size, rng),
        }
        assert_eq!(
            net.distribution().num_nodes(),
            N,
            "operator {i} must conserve the population"
        );
    }

    net.begin_phase();
    net.push_opinionated_round();
    net.end_phase();
    net.resolve_undecided_state(rng);
    assert_eq!(net.distribution().num_nodes(), N);

    net.begin_phase();
    net.push_opinionated_round();
    net.end_phase();
    net.resolve_median(rng);
    assert_eq!(net.distribution().num_nodes(), N);
}

/// Fixed seeds give identical runs through the trait surface; different
/// seeds diverge.
fn check_reproducibility<B: PushBackend>(mut make: impl FnMut(u64) -> B) {
    let mut run = |net_seed: u64, rng_seed: u64| {
        let mut net = make(net_seed);
        net.seed_counts(&[70, 50, 30]).unwrap();
        let mut rng = StdRng::seed_from_u64(rng_seed);
        for _ in 0..3 {
            net.begin_phase();
            for _ in 0..4 {
                net.push_opinionated_round();
            }
            net.end_phase();
            net.resolve_sample_majority(3, &mut rng);
        }
        (
            net.observation().received_totals(),
            net.distribution(),
            net.messages_sent(),
        )
    };
    assert_eq!(run(11, 21), run(11, 21));
    assert_ne!(run(11, 21).1, run(12, 22).1);
}

#[test]
fn agent_backend_honours_the_contract() {
    check_seeding_roundtrip(&mut agent(1));
    check_phase_counters(&mut agent(2));
    check_decision_operators_conserve(&mut agent(3), &mut StdRng::seed_from_u64(103));
    check_reproducibility(agent);
}

#[test]
fn counting_backend_honours_the_contract() {
    check_seeding_roundtrip(&mut counting(1));
    check_phase_counters(&mut counting(2));
    check_decision_operators_conserve(&mut counting(3), &mut StdRng::seed_from_u64(103));
    check_reproducibility(counting);
}

/// The agent backend's O(k) cached distribution agrees with a fresh
/// state-scan tally after a workload that exercises every mutation path.
#[test]
fn agent_cached_distribution_matches_a_state_scan() {
    let mut net = agent(9);
    let mut rng = StdRng::seed_from_u64(42);
    net.seed_counts(&[100, 70, 30]).unwrap();
    for _ in 0..5 {
        net.begin_phase();
        for _ in 0..3 {
            net.push_opinionated_round();
        }
        net.end_phase();
        net.resolve_sample_majority(2, &mut rng);
        net.resolve_uniform_adoption(AdoptionScope::UndecidedOnly, &mut rng);
        assert_eq!(
            PushBackend::distribution(&net),
            pushsim::OpinionDistribution::from_states(net.states(), net.num_opinions()),
            "cached tallies diverged from the agent states"
        );
    }
}
