//! Nine-dimensional image-feature generator — the Corel Color Moments
//! substitute.
//!
//! The paper's experiment II uses the Color Moments table of the UCI KDD
//! Corel Image Features archive: 68,040 nine-dimensional vectors (three
//! moments for each of three color channels), queried with the Euclidean
//! distance (§VI-A). What the experiment exercises is:
//!
//! * a medium-dimensional real-valued dataset with strong cluster
//!   structure (images of similar scenes share features);
//! * anisotropic, correlated local neighborhoods — the 20-NN sample
//!   covariances of Eq. 35 come out *narrow* (`λ⊥/λ∥ ≫ 1`), driving
//!   Table III's observations about OR and BF;
//! * a scale where a `δ = 0.7` Euclidean range around a random object
//!   holds ≈ 15 objects on average.
//!
//! This generator draws from a seeded mixture of anisotropic Gaussians
//! calibrated to those properties.

use gprq_gaussian::StandardNormal;
use gprq_linalg::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of mixture components.
const COMPONENTS: usize = 32;

/// Generates `n` Corel-like 9-D feature vectors.
///
/// Deterministic under `seed`. Use `n = `[`crate::COREL_SIZE`] for the
/// paper's cardinality.
pub fn corel_like_9d(n: usize, seed: u64) -> Vec<Vector<9>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sn = StandardNormal::new();

    // Component centers spread like color-moment features: first three
    // dims (means) larger scale, later dims (higher moments) tighter.
    let dim_scale = [3.0, 3.0, 3.0, 1.5, 1.5, 1.5, 1.0, 1.0, 1.0];
    let centers: Vec<Vector<9>> = (0..COMPONENTS)
        .map(|_| Vector::from_fn(|i| (rng.gen::<f64>() - 0.5) * 2.0 * dim_scale[i]))
        .collect();

    // Per-component anisotropic axis scales (axis-aligned plus a random
    // rotation applied through pairwise Givens mixing for correlation).
    //
    // Image-feature collections are locally **low-dimensional**: the
    // points of a scene type vary along a handful of directions and are
    // nearly flat in the rest. This is what makes the paper's Eq. 35
    // covariances behave as §VI-B describes — a 20-NN sample covariance
    // comes out near-singular, so `κ = |Σ̃|^{1/9}` is tiny, the blended
    // Σ stays narrow, and the query center's own qualification
    // probability is high (the paper reports 70 % on average). Each
    // component therefore gets 2–4 "live" axes and thin remaining ones.
    let component_axes: Vec<[f64; 9]> = (0..COMPONENTS)
        .map(|_| {
            let live = 2 + rng.gen_range(0..3); // 2–4 extended directions
            let mut axes = [0.0; 9];
            for (k, a) in axes.iter_mut().enumerate() {
                *a = if k < live {
                    // Live axes: log-uniform in [0.5, 2.5].
                    0.5 * (5.0f64).powf(rng.gen::<f64>())
                } else {
                    // Flat axes: log-uniform in [0.02, 0.08].
                    0.02 * (4.0f64).powf(rng.gen::<f64>())
                };
            }
            axes
        })
        .collect();
    // Random correlation structure per component: a handful of Givens
    // rotations (angle, axis pair) applied to the axis-aligned sample.
    let component_rotations: Vec<Vec<(usize, usize, f64)>> = (0..COMPONENTS)
        .map(|_| {
            (0..12)
                .map(|_| {
                    let i = rng.gen_range(0..9);
                    let mut j = rng.gen_range(0..9);
                    if j == i {
                        j = (j + 1) % 9;
                    }
                    (i, j, rng.gen::<f64>() * std::f64::consts::TAU)
                })
                .collect()
        })
        .collect();
    // Mixture weights: skewed (some scene types are common).
    let mut weights: Vec<f64> = (0..COMPONENTS).map(|_| rng.gen::<f64>().powi(2)).collect();
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    let cumulative: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();

    (0..n)
        .map(|_| {
            let u = rng.gen::<f64>();
            let c = cumulative.partition_point(|&cw| cw < u).min(COMPONENTS - 1);
            // Axis-aligned anisotropic Gaussian sample…
            let mut v = Vector::<9>::from_fn(|i| sn.sample(&mut rng) * component_axes[c][i]);
            // …rotated by the component's Givens sequence…
            for &(i, j, angle) in &component_rotations[c] {
                let (s, co) = angle.sin_cos();
                let (vi, vj) = (v[i], v[j]);
                v[i] = co * vi - s * vj;
                v[j] = s * vi + co * vj;
            }
            // …translated to the component center, and globally scaled
            // to calibrate the δ = 0.7 neighborhood size to the paper's
            // "15.3 objects on average" anchor (§VI-A).
            (v + centers[c]) * GLOBAL_SCALE
        })
        .collect()
}

/// Global coordinate scale (see the calibration note above).
const GLOBAL_SCALE: f64 = 2.5;

/// Average number of points within Euclidean distance `delta` of
/// `trials` randomly chosen points of `data` — the paper's calibration
/// statistic ("15.3 objects are retrieved on average" at δ = 0.7).
pub fn mean_range_count<const D: usize>(
    data: &[Vector<D>],
    delta: f64,
    trials: usize,
    seed: u64,
) -> f64 {
    assert!(!data.is_empty() && trials > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0usize;
    for _ in 0..trials {
        let center = &data[rng.gen_range(0..data.len())];
        total += data.iter().filter(|p| p.distance(center) <= delta).count();
    }
    total as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_and_determinism() {
        let a = corel_like_9d(5_000, 3);
        assert_eq!(a.len(), 5_000);
        assert_eq!(a, corel_like_9d(5_000, 3));
        assert_ne!(a, corel_like_9d(5_000, 4));
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn paper_scale_stream_is_frozen() {
        // The benchmark's 9-D data set is `corel_like_9d(COREL_SIZE, 42)`,
        // drawn from the frozen `StandardNormal` stream; this checksum
        // catches any drift in that stream or in this generator. The
        // tolerances only absorb last-ulp libm differences across
        // platforms.
        let pts = corel_like_9d(crate::COREL_SIZE, 42);
        assert_eq!(pts.len(), 68_040);
        let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
        for p in &pts {
            for &x in p.as_slice() {
                sum += x;
                sum_sq += x * x;
            }
        }
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs();
        assert!(close(sum, -172_616.363_408_791_75), "sum {sum}");
        assert!(
            close(sum_sq, 7_683_346.982_634_104),
            "sum of squares {sum_sq}"
        );
        let first = [
            2.664_889_657_675_751_3,
            2.321_487_321_714_255_5,
            -6.530_852_274_566_267,
        ];
        for (d, &want) in first.iter().enumerate() {
            assert!(close(pts[0][d], want), "first point, axis {d}");
        }
    }

    #[test]
    fn clustered_not_uniform() {
        // Nearest-neighbor distances in clustered data are much smaller
        // than in a uniform scatter of the same bounding volume.
        let pts = corel_like_9d(4_000, 1);
        let mut nn_sum = 0.0;
        for i in (0..400).map(|k| k * 10) {
            let mut best = f64::INFINITY;
            for (j, p) in pts.iter().enumerate() {
                if j != i {
                    best = best.min(pts[i].distance(p));
                }
            }
            nn_sum += best;
        }
        let mean_nn = nn_sum / 400.0;
        // Data spans roughly [-8, 8]^9; uniform NN distance would be
        // on the order of the extent; clustered data sits well below 2.
        assert!(mean_nn < 2.0, "mean NN distance {mean_nn}");
    }

    #[test]
    fn range_count_calibration() {
        // The paper's anchor: at full cardinality and δ = 0.7, a random
        // object has ≈ 15 neighbors. Check the calibration at reduced
        // cardinality by scaling: with n = 17,010 (quarter size) expect
        // roughly a quarter of the neighbors; assert the full-size
        // extrapolation lands within a factor ~3 of 15.3.
        let n = 17_010;
        let pts = corel_like_9d(n, 1);
        let mean = mean_range_count(&pts, 0.7, 30, 9);
        let extrapolated = mean * (crate::COREL_SIZE as f64 / n as f64);
        assert!(
            (5.0..60.0).contains(&extrapolated),
            "extrapolated δ=0.7 count {extrapolated}, paper says 15.3"
        );
    }

    #[test]
    fn moments_dims_have_different_scales() {
        let pts = corel_like_9d(10_000, 1);
        let var = |dim: usize| {
            let mean: f64 = pts.iter().map(|p| p[dim]).sum::<f64>() / pts.len() as f64;
            pts.iter().map(|p| (p[dim] - mean).powi(2)).sum::<f64>() / pts.len() as f64
        };
        // First-moment dims should be more spread than third-moment dims.
        let first: f64 = (0..3).map(var).sum();
        let third: f64 = (6..9).map(var).sum();
        assert!(first > third, "first {first} vs third {third}");
    }
}
