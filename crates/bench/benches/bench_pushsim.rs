//! Criterion micro-benchmarks for the push-model simulator: cost of one
//! round and one phase under each delivery semantics, and of the batched
//! count-based delivery engine at n = 10⁵. These numbers are the cost model behind
//! the experiment binaries' runtime estimates; `BENCH_pushsim.json` at the
//! workspace root archives a baseline run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noisy_bench::biased_counts;
use noisy_channel::NoiseMatrix;
use noisy_channel::sampling::majority_pmf;
use pushsim::{CountingNetwork, DeliverySemantics, Network, PushBackend, SimConfig, TopologySpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn bench_round_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("pushsim_round");
    for &n in &[1_000usize, 10_000] {
        for semantics in [DeliverySemantics::Exact, DeliverySemantics::BallsIntoBins] {
            group.bench_with_input(
                BenchmarkId::new(format!("process_{}", semantics.label()), n),
                &n,
                |b, &n| {
                    let noise = NoiseMatrix::uniform(3, 0.2).expect("valid noise");
                    let config = SimConfig::builder(n, 3)
                        .seed(1)
                        .delivery(semantics)
                        .build()
                        .expect("valid config");
                    let mut net = Network::new(config, noise).expect("valid network");
                    net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
                    b.iter(|| {
                        net.begin_phase();
                        net.push_round(|_, s| s.opinion());
                        net.end_phase().total_messages()
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_poissonized_phase(c: &mut Criterion) {
    c.bench_function("pushsim_poissonized_phase_n10000", |b| {
        let noise = NoiseMatrix::uniform(3, 0.2).expect("valid noise");
        let config = SimConfig::builder(10_000, 3)
            .seed(2)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .expect("valid config");
        let mut net = Network::new(config, noise).expect("valid network");
        net.seed_counts(&[5_000, 2_500, 2_500]).expect("valid counts");
        b.iter(|| {
            net.begin_phase();
            for _ in 0..4 {
                net.push_round(|_, s| s.opinion());
            }
            net.end_phase().total_messages()
        });
    });
}

/// End-phase delivery at n = 10⁵ with full participation
/// (`Network::end_phase`): the batched path applies the noise with O(k²)
/// multinomial draws and only pays a bare uniform scatter per message.
fn bench_end_phase_batched(c: &mut Criterion) {
    let n = 100_000usize;
    let k = 3usize;
    let noise = NoiseMatrix::uniform(k, 0.2).expect("valid noise");

    let mut group = c.benchmark_group("pushsim_end_phase_n1e5");

    for semantics in [DeliverySemantics::BallsIntoBins, DeliverySemantics::Poissonized] {
        group.bench_function(format!("batched_{}", semantics.label()), |b| {
            let config = SimConfig::builder(n, k)
                .seed(5)
                .delivery(semantics)
                .build()
                .expect("valid config");
            let mut net = Network::new(config, noise.clone()).expect("valid network");
            net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
            b.iter(|| {
                net.begin_phase();
                net.push_round(|_, s| s.opinion());
                net.end_phase().total_messages()
            });
        });
    }
    group.finish();
}

/// Whole phases across population scales: the agent-level backend (batched
/// deliveries, but still O(n) state) vs the counting backend (O(k²) per
/// phase). At n = 10⁷ only the counting backend is practical.
fn bench_backend_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pushsim_phase_scaling");
    group.measurement_time(Duration::from_secs(2));
    for &n in &[1_000usize, 100_000, 10_000_000] {
        if n <= 100_000 {
            group.bench_with_input(BenchmarkId::new("agent_batched_B", n), &n, |b, &n| {
                let noise = NoiseMatrix::uniform(3, 0.2).expect("valid noise");
                let config = SimConfig::builder(n, 3)
                    .seed(6)
                    .delivery(DeliverySemantics::BallsIntoBins)
                    .build()
                    .expect("valid config");
                let mut net = Network::new(config, noise).expect("valid network");
                net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
                b.iter(|| {
                    net.begin_phase();
                    net.push_round(|_, s| s.opinion());
                    net.end_phase().total_messages()
                });
            });
        }
        group.bench_with_input(BenchmarkId::new("counting_P", n), &n, |b, &n| {
            let noise = NoiseMatrix::uniform(3, 0.2).expect("valid noise");
            let config = SimConfig::builder(n, 3)
                .seed(7)
                .delivery(DeliverySemantics::Poissonized)
                .build()
                .expect("valid config");
            let mut net = CountingNetwork::new(config, noise).expect("valid network");
            net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
            b.iter(|| {
                net.begin_phase();
                net.push_round_all_opinionated();
                net.end_phase().total()
            });
        });
    }
    group.finish();
}

/// The topology cost guard: one exact-delivery push round at n = 10⁵ with
/// full participation, on the complete graph (destination is a bare
/// `gen_range(0..n)`, the pre-topology hot path) vs the ring and a random
/// 8-regular graph (destination is a CSR neighbor-list lookup). Sparse
/// topologies add one offset indirection per message; the group documents
/// that the whole topology subsystem costs nothing when it is not used
/// and only a small constant when it is.
fn bench_topology_round(c: &mut Criterion) {
    let n = 100_000usize;
    let k = 3usize;
    let mut group = c.benchmark_group("pushsim_topology_round_n1e5");
    for topology in [
        TopologySpec::Complete,
        TopologySpec::Ring,
        TopologySpec::RandomRegular { degree: 8 },
    ] {
        group.bench_function(topology.to_string(), |b| {
            let noise = NoiseMatrix::uniform(k, 0.2).expect("valid noise");
            let config = SimConfig::builder(n, k)
                .seed(12)
                .topology(topology)
                .build()
                .expect("valid config");
            let mut net = Network::new(config, noise).expect("valid network");
            net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
            b.iter(|| {
                net.begin_phase();
                net.push_round(|_, s| s.opinion());
                net.end_phase().total_messages()
            });
        });
    }
    group.finish();
}

/// Sparse-topology phases at scale: one full phase (push round +
/// end-phase delivery) on the agent backend (exact process O over the
/// materialized graph, O(n) per round) at n = 10⁶ and 10⁷. The arm at
/// 10⁷ runs the ring only (a random 8-regular graph at that size spends
/// gigabytes on the CSR and minutes in construction for no extra
/// information — the per-message cost is already visible at 10⁶).
fn bench_topology_phase_scaling(c: &mut Criterion) {
    let k = 3usize;
    let mut group = c.benchmark_group("pushsim_topology_phase");
    group.measurement_time(Duration::from_secs(3));

    let agent_arms: [(TopologySpec, usize); 3] = [
        (TopologySpec::Ring, 1_000_000),
        (TopologySpec::RandomRegular { degree: 8 }, 1_000_000),
        (TopologySpec::Ring, 10_000_000),
    ];
    for (topology, n) in agent_arms {
        group.bench_with_input(
            BenchmarkId::new(format!("agent_{topology}"), n),
            &n,
            |b, &n| {
                let noise = NoiseMatrix::uniform(k, 0.2).expect("valid noise");
                let config = SimConfig::builder(n, k)
                    .seed(15)
                    .topology(topology)
                    .build()
                    .expect("valid config");
                let mut net = Network::new(config, noise).expect("valid network");
                net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
                b.iter(|| {
                    net.begin_phase();
                    net.push_round(|_, s| s.opinion());
                    net.end_phase().total_messages()
                });
            },
        );
    }

    group.finish();
}

/// A counting network at n = 10⁶ after one Stage 2 phase of `sample_size`
/// (2ℓ rounds), from a 0.2-biased start under uniform(0.25) noise.
fn post_stage2_phase(k: usize, sample_size: u64) -> CountingNetwork {
    let n = 1_000_000usize;
    let noise = NoiseMatrix::uniform(k, 0.25).expect("valid noise");
    let config = SimConfig::builder(n, k)
        .seed(8)
        .delivery(DeliverySemantics::Poissonized)
        .build()
        .expect("valid config");
    let mut net = CountingNetwork::new(config, noise).expect("valid network");
    net.seed_counts(&biased_counts(n, k, 0.2))
        .expect("valid counts");
    net.begin_phase();
    for _ in 0..2 * sample_size {
        net.push_round_all_opinionated();
    }
    net.end_phase();
    net
}

/// The layer that dominates counting-backend runs: one
/// `resolve_sample_majority` (Stage 2's decision operator) at n = 10⁶
/// against the tally of a finished Stage 2 phase. `k{k}` is ℓ = 129,
/// Stage 2's sample size at ε = 0.25; `l885_k{k}` is ℓ = 885, its final
/// phase at n = 10⁶. `k2`, `k8` and `l885_k2` take the exact-law route
/// (one multinomial over the sample-majority pmf); `k32`, `k64` and
/// `l885_k64` sample 65 536 compositions, message by message or by the
/// conditional chain. Every iteration resolves a clone of the same
/// post-phase network (a clone is O(k)), so every sample sees the same
/// weights. `pmf_*` times the law alone (`majority_pmf`) on the same
/// tallies.
fn bench_counting_majority(c: &mut Criterion) {
    let mut group = c.benchmark_group("pushsim_counting_majority");
    group.measurement_time(Duration::from_secs(2));
    let label = |sample_size: u64, k: usize| match sample_size {
        129 => format!("k{k}"),
        _ => format!("l{sample_size}_k{k}"),
    };
    for (sample_size, k) in [
        (129u64, 2usize),
        (129, 8),
        (129, 32),
        (129, 64),
        (885, 2),
        (885, 64),
    ] {
        let net = post_stage2_phase(k, sample_size);
        let mut rng = StdRng::seed_from_u64(9);
        group.bench_function(label(sample_size, k), |b| {
            b.iter(|| {
                let mut resolved = net.clone();
                resolved.resolve_sample_majority(sample_size, &mut rng);
                black_box(resolved.undecided())
            })
        });
    }
    for (sample_size, k) in [(129u64, 2usize), (129, 8), (885, 2)] {
        let net = post_stage2_phase(k, sample_size);
        let weights: Vec<f64> = net.tally().post_noise().iter().map(|&h| h as f64).collect();
        group.bench_function(format!("pmf_{}", label(sample_size, k)), |b| {
            b.iter(|| black_box(majority_pmf(sample_size, &weights)))
        });
    }
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_round_throughput, bench_poissonized_phase,
              bench_end_phase_batched, bench_backend_scaling,
              bench_topology_round, bench_topology_phase_scaling,
              bench_counting_majority
}
criterion_main!(benches);
