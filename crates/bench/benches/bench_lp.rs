//! Criterion micro-benchmarks for the simplex solver on LP shapes used by
//! the majority-preservation test and on dense random covering problems.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noisy_lp::{LinearProgram, Relation};
use std::hint::black_box;
use std::time::Duration;

/// The exact LP shape of the m.p. test: minimize a linear function over the
/// δ-biased sub-simplex in dimension k.
fn mp_shaped_lp(k: usize, delta: f64) -> LinearProgram {
    let objective: Vec<f64> = (0..k).map(|j| (j as f64 * 0.37).sin() / 3.0).collect();
    let mut lp = LinearProgram::minimize(objective);
    lp.add_constraint(vec![1.0; k], Relation::Eq, 1.0).expect("valid");
    for j in 1..k {
        let mut row = vec![0.0; k];
        row[0] = 1.0;
        row[j] = -1.0;
        lp.add_constraint(row, Relation::Ge, delta).expect("valid");
    }
    lp
}

fn bench_mp_shape(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_mp_shape");
    for &k in &[4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let lp = mp_shaped_lp(k, 0.05);
            b.iter(|| black_box(lp.solve().expect("feasible").objective_value()));
        });
    }
    group.finish();
}

fn bench_covering(c: &mut Criterion) {
    c.bench_function("lp_covering_20x30", |b| {
        // min sum x  s.t.  A x >= 1 with a dense positive matrix.
        let vars = 30;
        let rows = 20;
        let mut lp = LinearProgram::minimize(vec![1.0; vars]);
        for r in 0..rows {
            let row: Vec<f64> = (0..vars)
                .map(|v| 0.05 + ((r * 31 + v * 17) % 97) as f64 / 97.0)
                .collect();
            lp.add_constraint(row, Relation::Ge, 1.0).expect("valid");
        }
        b.iter(|| black_box(lp.solve().expect("feasible").objective_value()));
    });
}

fn configured() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_mp_shape, bench_covering
}
criterion_main!(benches);
