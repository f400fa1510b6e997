//! Criterion micro-benchmarks for the noise layer: per-message sampling,
//! distribution application and the LP-based majority-preservation test.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noisy_channel::NoiseMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("noise_sample");
    for &k in &[2usize, 8, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let matrix = NoiseMatrix::uniform(k, 0.5 * (1.0 - 1.0 / k as f64)).expect("valid");
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| black_box(matrix.sample(black_box(k / 2), &mut rng)));
        });
    }
    group.finish();
}

fn bench_apply(c: &mut Criterion) {
    c.bench_function("noise_apply_k32", |b| {
        let k = 32;
        let matrix = NoiseMatrix::uniform(k, 0.5).expect("valid");
        let dist = vec![1.0 / k as f64; k];
        b.iter(|| black_box(matrix.apply(black_box(&dist))));
    });
}

fn bench_mp_test(c: &mut Criterion) {
    let mut group = c.benchmark_group("noise_mp_lp");
    for &k in &[3usize, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let matrix = NoiseMatrix::uniform(k, 0.1).expect("valid");
            b.iter(|| {
                matrix
                    .majority_preservation(black_box(0), black_box(0.05))
                    .expect("analysis runs")
                    .worst_margin()
            });
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
    targets = bench_sampling, bench_apply, bench_mp_test
}
criterion_main!(benches);
