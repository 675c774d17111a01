//! Exact-equality and round-trip guarantees of the shared-sample
//! Phase-3 engine: the grid index must count *precisely* the hits a
//! linear scan of the same cloud counts (the two paths share one SoA
//! kernel, so this is bitwise, not statistical), the SoA layout must
//! store the `sample_batch` draws bitwise (as offsets from the mean),
//! and the fused `CloudGrid::draw` must equal building over a drawn
//! cloud. Clouds live in offset space, so every probe is converted to
//! `center − mean` exactly as the evaluators do.

use gprq_gaussian::cloud::{CloudGrid, SampleCloud};
use gprq_gaussian::{Gaussian, GaussianSampler};
use gprq_linalg::{Matrix, Vector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::num::NonZeroUsize;

fn correlated_2d() -> Gaussian<2> {
    let s3 = 3.0f64.sqrt();
    Gaussian::new(
        Vector::from([100.0, -50.0]),
        Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0),
    )
    .unwrap()
}

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("positive sample count")
}

/// Grid and linear scan agree exactly for random (center, δ) pairs —
/// including δ = 0, δ spanning the whole cloud, and centers far outside
/// the grid's bounding box.
#[test]
fn grid_matches_linear_scan_exactly() {
    let g = correlated_2d();
    let mut rng = StdRng::seed_from_u64(0xC10D);
    let cloud = SampleCloud::draw(g.cholesky(), nz(50_000), &mut rng);
    let grid = CloudGrid::build(&cloud);

    let mut probe = StdRng::seed_from_u64(7);
    for case in 0..400 {
        let (center, delta) = match case % 5 {
            // Random center near the distribution, random radius.
            0 | 1 => (
                Vector::from([
                    100.0 + (probe.gen::<f64>() - 0.5) * 60.0,
                    -50.0 + (probe.gen::<f64>() - 0.5) * 40.0,
                ]),
                probe.gen::<f64>() * 30.0,
            ),
            // δ = 0: only samples exactly at the center may count.
            2 => (
                Vector::from([100.0 + probe.gen::<f64>(), -50.0 + probe.gen::<f64>()]),
                0.0,
            ),
            // δ spanning the whole cloud: every sample must count.
            3 => (Vector::from([100.0, -50.0]), 1.0e6),
            // Center far outside the grid (all axis ranges empty).
            _ => (
                Vector::from([
                    100.0 + (probe.gen::<f64>() - 0.5) * 1.0e5,
                    -50.0 + (probe.gen::<f64>() - 0.5) * 1.0e5,
                ]),
                probe.gen::<f64>() * 20.0,
            ),
        };
        let center = center - *g.mean();
        let linear = cloud.count_within(&center, delta);
        let via_grid = grid.count_within(&center, delta);
        assert_eq!(
            via_grid, linear,
            "case {case}: center {center:?}, delta {delta}"
        );
        if case % 5 == 3 {
            assert_eq!(linear, cloud.len(), "whole-cloud δ must count everything");
        }
    }
}

/// The same exact parity in 3-D, where the odometer walks a cube of
/// cells instead of a rectangle.
#[test]
fn grid_matches_linear_scan_exactly_3d() {
    let mut m = Matrix::<3>::identity();
    m[(0, 0)] = 4.0;
    m[(1, 1)] = 0.5;
    m[(2, 2)] = 2.5;
    let g = Gaussian::new(Vector::from([0.0, 5.0, -5.0]), m).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let cloud = SampleCloud::draw(g.cholesky(), nz(20_000), &mut rng);
    let grid = CloudGrid::build(&cloud);
    let mut probe = StdRng::seed_from_u64(3);
    for _ in 0..100 {
        let center = Vector::from([
            (probe.gen::<f64>() - 0.5) * 10.0,
            5.0 + (probe.gen::<f64>() - 0.5) * 4.0,
            -5.0 + (probe.gen::<f64>() - 0.5) * 8.0,
        ]) - *g.mean();
        let delta = probe.gen::<f64>() * 5.0;
        assert_eq!(
            grid.count_within(&center, delta),
            cloud.count_within(&center, delta)
        );
    }
}

/// Degenerate cloud: every sample identical (zero covariance is not
/// representable, so collapse one axis numerically instead via a tiny
/// variance) — the grid must still agree with the linear scan.
#[test]
fn grid_handles_near_degenerate_axes() {
    let mut m = Matrix::<2>::identity();
    m[(0, 0)] = 1.0e-6;
    m[(1, 1)] = 9.0;
    let g = Gaussian::new(Vector::from([1.0, 2.0]), m).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let cloud = SampleCloud::draw(g.cholesky(), nz(4_096), &mut rng);
    let grid = CloudGrid::build(&cloud);
    let mut probe = StdRng::seed_from_u64(11);
    for _ in 0..50 {
        let center = Vector::from([1.0, 2.0 + (probe.gen::<f64>() - 0.5) * 12.0]) - *g.mean();
        let delta = probe.gen::<f64>() * 6.0;
        assert_eq!(
            grid.count_within(&center, delta),
            cloud.count_within(&center, delta)
        );
    }
}

proptest! {
    /// The SoA cloud stores exactly the offsets of the vectors
    /// `sample_batch` produces from the same seed: `mean + w_i` is the
    /// sampled vector — bitwise, coordinate by coordinate.
    #[test]
    fn soa_roundtrips_sample_batch_bitwise(seed in 0u64..1_000, n in 1usize..300) {
        let g = correlated_2d();
        let mut rng = StdRng::seed_from_u64(seed);
        let cloud = SampleCloud::draw(g.cholesky(), nz(n), &mut rng);

        let mut rng = StdRng::seed_from_u64(seed);
        let mut batch = vec![Vector::<2>::ZERO; n];
        GaussianSampler::new(&g).sample_batch(&mut rng, &mut batch);

        prop_assert_eq!(cloud.len(), n);
        for (i, expect) in batch.iter().enumerate() {
            let got = *g.mean() + cloud.get(i).expect("index in range");
            for d in 0..2 {
                prop_assert_eq!(
                    got.as_slice()[d].to_bits(),
                    expect.as_slice()[d].to_bits(),
                    "sample {} coordinate {} drifted", i, d
                );
            }
        }
        prop_assert!(cloud.get(n).is_none());
    }

    /// `extend` leaves the existing prefix bitwise intact and the grid
    /// rebuilt over the longer cloud still matches its linear scan.
    #[test]
    fn extend_preserves_prefix_and_parity(seed in 0u64..500, n in 8usize..200, extra in 1usize..200) {
        let g = correlated_2d();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cloud = SampleCloud::draw(g.cholesky(), nz(n), &mut rng);
        let before: Vec<Vector<2>> = (0..n).map(|i| cloud.get(i).expect("in range")).collect();
        cloud.extend(g.cholesky(), extra, &mut rng);
        prop_assert_eq!(cloud.len(), n + extra);
        for (i, b) in before.iter().enumerate() {
            let a = cloud.get(i).expect("in range");
            prop_assert_eq!(a.as_slice()[0].to_bits(), b.as_slice()[0].to_bits());
            prop_assert_eq!(a.as_slice()[1].to_bits(), b.as_slice()[1].to_bits());
        }
        let grid = CloudGrid::build(&cloud);
        let center = Vector::from([100.0, -50.0]) - *g.mean();
        prop_assert_eq!(
            grid.count_within(&center, 15.0),
            cloud.count_within(&center, 15.0)
        );
    }
}

/// `CloudGrid::draw` fuses the draw with the index build; it must agree
/// with drawing a `SampleCloud` from the same seed and building over it
/// — same structure, and bitwise-equal probabilities at every probe, in
/// 2-D and in 9-D.
#[test]
fn fused_draw_matches_build_over_drawn_cloud_bitwise() {
    let g = correlated_2d();
    let n = nz(20_000);
    let fused = CloudGrid::draw(g.cholesky(), n, &mut StdRng::seed_from_u64(0x0FF5));
    let built = CloudGrid::build(&SampleCloud::draw(
        g.cholesky(),
        n,
        &mut StdRng::seed_from_u64(0x0FF5),
    ));
    assert_eq!(fused.len(), built.len());
    assert_eq!(fused.cells(), built.cells());
    assert_eq!(fused.resolution(), built.resolution());
    let mut probe = StdRng::seed_from_u64(99);
    for _ in 0..200 {
        let center = Vector::from([
            (probe.gen::<f64>() - 0.5) * 80.0,
            (probe.gen::<f64>() - 0.5) * 80.0,
        ]);
        let delta = probe.gen::<f64>() * 25.0;
        assert_eq!(
            fused.probability(&center, delta).to_bits(),
            built.probability(&center, delta).to_bits(),
            "fused build diverged at {center:?}, δ = {delta}"
        );
    }

    let mut m = Matrix::<9>::identity();
    for i in 0..9 {
        m[(i, i)] = 0.05 + 0.1 * i as f64;
    }
    let g9 = Gaussian::new(Vector::<9>::ZERO, m).unwrap();
    let n9 = nz(5_000);
    let fused = CloudGrid::draw(g9.cholesky(), n9, &mut StdRng::seed_from_u64(9));
    let cloud = SampleCloud::draw(g9.cholesky(), n9, &mut StdRng::seed_from_u64(9));
    let built = CloudGrid::build(&cloud);
    assert_eq!(fused.resolution(), built.resolution());
    for k in 0..50 {
        let center = Vector::from_fn(|d| ((k * 7 + d) % 11) as f64 * 0.1 - 0.5);
        let delta = 0.3 + 0.02 * k as f64;
        let linear = cloud.count_within(&center, delta);
        assert_eq!(fused.count_within(&center, delta), linear, "9-D probe {k}");
        assert_eq!(built.count_within(&center, delta), linear, "9-D probe {k}");
    }
}
