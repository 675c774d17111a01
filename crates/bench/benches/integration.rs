//! Micro-benchmarks of the Phase-3 integrators — the cost that the
//! paper's whole contribution exists to avoid paying per candidate.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gprq_gaussian::cloud::{CloudGrid, SampleCloud};
use gprq_gaussian::integrate::{importance_sampling_probability, quadrature_probability_2d};
use gprq_gaussian::Gaussian;
use gprq_linalg::{Matrix, Vector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::num::NonZeroUsize;

fn gaussian2() -> Gaussian<2> {
    let s3 = 3.0f64.sqrt();
    Gaussian::new(
        Vector::from([500.0, 500.0]),
        Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0),
    )
    .unwrap()
}

fn gaussian9() -> Gaussian<9> {
    let mut m = Matrix::<9>::identity();
    for i in 0..9 {
        m[(i, i)] = 0.4 + 0.2 * i as f64;
    }
    Gaussian::new(Vector::<9>::splat(0.0), m).unwrap()
}

fn bench_importance_sampling(c: &mut Criterion) {
    let g = gaussian2();
    let target = Vector::from([515.0, 508.0]);
    let mut group = c.benchmark_group("integrate/importance_sampling_2d");
    for &samples in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(samples), &samples, |b, &n| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| importance_sampling_probability(&g, black_box(&target), 25.0, n, &mut rng));
        });
    }
    group.finish();

    let g9 = gaussian9();
    let t9 = Vector::<9>::splat(0.3);
    let mut group = c.benchmark_group("integrate/importance_sampling_9d");
    for &samples in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(samples), &samples, |b, &n| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| importance_sampling_probability(&g9, black_box(&t9), 2.0, n, &mut rng));
        });
    }
    group.finish();
}

fn bench_shared_samples(c: &mut Criterion) {
    let g = gaussian2();
    let mut rng = StdRng::seed_from_u64(2);
    let budget = NonZeroUsize::new(100_000).expect("nonzero");
    let cloud = SampleCloud::draw(g.cholesky(), budget, &mut rng);
    let grid = CloudGrid::build(&cloud);
    // Clouds hold offsets from the mean: probe with `target − mean`.
    let target = Vector::from([515.0, 508.0]) - *g.mean();
    c.bench_function("integrate/shared_cloud_draw_100k", |b| {
        b.iter(|| CloudGrid::draw(g.cholesky(), budget, &mut rng).len())
    });
    c.bench_function("integrate/shared_cloud_linear_probe_100k", |b| {
        b.iter(|| cloud.probability(black_box(&target), 25.0))
    });
    c.bench_function("integrate/shared_cloud_grid_probe_100k", |b| {
        b.iter(|| grid.probability(black_box(&target), 25.0))
    });
}

fn bench_quadrature(c: &mut Criterion) {
    let g = gaussian2();
    let target = Vector::from([515.0, 508.0]);
    c.bench_function("integrate/quadrature_64x128", |b| {
        b.iter(|| quadrature_probability_2d(&g, black_box(&target), 25.0, 64, 128))
    });
}

fn bench_quasi_monte_carlo(c: &mut Criterion) {
    use gprq_gaussian::quasi::quasi_monte_carlo_probability;
    let g = gaussian2();
    let target = Vector::from([515.0, 508.0]);
    let mut group = c.benchmark_group("integrate/qmc_2d");
    for &samples in &[1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::from_parameter(samples), &samples, |b, &n| {
            b.iter(|| quasi_monte_carlo_probability(&g, black_box(&target), 25.0, n));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_importance_sampling,
    bench_shared_samples,
    bench_quadrature,
    bench_quasi_monte_carlo
);
criterion_main!(benches);
