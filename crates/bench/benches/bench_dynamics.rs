//! Criterion benchmarks for the baseline dynamics: cost of one update step
//! at a fixed network size, per dynamics.

use criterion::{criterion_group, criterion_main, Criterion};
use noisy_channel::NoiseMatrix;
use opinion_dynamics::{Dynamics, HMajority, MedianRule, ThreeMajority, UndecidedState, Voter};
use pushsim::{Network, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn bench_steps(c: &mut Criterion) {
    let n = 5_000usize;
    let mut group = c.benchmark_group("dynamics_step_n5000");

    let mut bench_one = |name: &str, mut dynamics: Box<dyn Dynamics>| {
        group.bench_function(name, |b| {
            let noise = NoiseMatrix::uniform(3, 0.2).expect("valid noise");
            let config = SimConfig::builder(n, 3).seed(1).build().expect("valid config");
            let mut net = Network::new(config, noise).expect("valid network");
            net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| {
                dynamics.step(&mut net, &mut rng);
                black_box(net.rounds_executed())
            });
        });
    };

    bench_one("voter", Box::new(Voter::new()));
    bench_one("three_majority", Box::new(ThreeMajority::new()));
    bench_one("h_majority_15", Box::new(HMajority::new(15)));
    bench_one("undecided_state", Box::new(UndecidedState::new()));
    bench_one("median_rule", Box::new(MedianRule::new()));
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
    targets = bench_steps
}
criterion_main!(benches);
