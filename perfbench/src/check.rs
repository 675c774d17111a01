//! The answer check, run outside the timed region.
//!
//! Every object of the data set is classified against θ from a reference
//! computed apart from the code under test:
//!
//! 1. Cheap, exact bounds. In the eigenbasis of Σ the coordinates of
//!    `x − q` are independent normals, the ball `B(o, δ)` lies inside the
//!    axis box of half-width δ and contains the box of half-width δ/√D,
//!    so the product of the 1-D box probabilities bounds
//!    `Pr(‖x − o‖ ≤ δ)` from above and below. The eigen decomposition,
//!    the normal CDF and the Cholesky factor are the benchmark's own.
//! 2. Objects the bounds leave undecided get a reference probability:
//!    deterministic quadrature in 2-D (exact along the minor axis,
//!    Gauss–Legendre along the major one), an independent-seed Monte
//!    Carlo run in higher dimensions.
//!
//! An object is *clearly in* (or *clearly out*) when its reference is
//! clear of θ by more than `Z` standard deviations of the Monte Carlo
//! estimators involved; a query fails if it drops a clearly-in object
//! or reports a clearly-out one. Objects within the tolerance may go
//! either way.

use std::sync::OnceLock;

use gprq_linalg::{Matrix, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Standard deviations by which a reference must clear θ to be decided.
const Z: f64 = 6.0;
/// Absolute slack for quadrature and normal-CDF rounding.
const SLACK: f64 = 1e-6;

/// One query as the check sees it.
#[derive(Debug, Clone)]
pub struct QuerySpec<const D: usize> {
    pub center: Vector<D>,
    pub sigma: Matrix<D>,
    pub delta: f64,
    pub theta: f64,
    /// Monte Carlo samples the library drew for this query.
    pub samples: usize,
}

/// A reference estimate: the probability and the samples behind it
/// (`None` for a deterministic one).
pub type Estimate = (f64, Option<usize>);

/// A reference probability for the objects the bounds leave undecided.
pub trait Reference<const D: usize> {
    /// Reference `Pr(‖x − o‖ ≤ δ)` for each object in `objects`. A
    /// sampling reference may stop refining an object once
    /// `settled(estimate)` holds.
    fn probabilities(
        &mut self,
        spec: &QuerySpec<D>,
        basis: &Basis<D>,
        objects: &[Vector<D>],
        settled: &dyn Fn(Estimate) -> bool,
    ) -> Vec<Estimate>;
}

/// Deterministic 2-D quadrature in the eigenbasis of Σ. With `u` the
/// major-axis and `v` the minor-axis coordinate of `x − o`, the ball is
/// `u = δ·sin t`, `|v| ≤ δ·cos t`; the `v` integral is exact and the `t`
/// integral uses Gauss–Legendre nodes.
pub struct Quadrature;

/// Gauss–Legendre nodes of the 2-D reference: at the benchmark's Σ and δ
/// they agree with the library's oracle within 10⁻⁷ (see the tests).
const QUADRATURE_NODES: usize = 96;

static NODES: OnceLock<Vec<(f64, f64)>> = OnceLock::new();

impl Reference<2> for Quadrature {
    fn probabilities(
        &mut self,
        spec: &QuerySpec<2>,
        basis: &Basis<2>,
        objects: &[Vector<2>],
        _settled: &dyn Fn(Estimate) -> bool,
    ) -> Vec<Estimate> {
        let (major, minor) = if basis.sd[0] >= basis.sd[1] {
            (0, 1)
        } else {
            (1, 0)
        };
        let (su, sv) = (basis.sd[major], basis.sd[minor]);
        let delta = spec.delta;
        let norm = 1.0 / (su * (std::f64::consts::TAU).sqrt());
        objects
            .iter()
            .map(|o| {
                let y = basis.coordinates(&spec.center, o);
                let (a, b) = (y[major], y[minor].abs());
                let half_pi = std::f64::consts::FRAC_PI_2;
                let p = NODES
                    .get_or_init(|| gauss_legendre(QUADRATURE_NODES))
                    .iter()
                    .map(|&(s, w)| {
                        let t = half_pi * s;
                        let (sin, cos) = t.sin_cos();
                        let u = (a + delta * sin) / su;
                        let density = norm * (-0.5 * u * u).exp();
                        w * half_pi
                            * delta
                            * cos
                            * density
                            * interval_probability(b, delta * cos, sv)
                    })
                    .sum::<f64>()
                    .clamp(0.0, 1.0);
                (p, None)
            })
            .collect()
    }
}

/// Monte Carlo with the benchmark's own sampler and seeds independent
/// of the library's, in stages of growing sample counts: an object leaves
/// once its estimate is settled, so only borderline objects pay for the
/// largest stage.
pub struct IndependentMonteCarlo {
    pub stages: [usize; 2],
    pub seed: u64,
}

impl<const D: usize> Reference<D> for IndependentMonteCarlo {
    fn probabilities(
        &mut self,
        spec: &QuerySpec<D>,
        _basis: &Basis<D>,
        objects: &[Vector<D>],
        settled: &dyn Fn(Estimate) -> bool,
    ) -> Vec<Estimate> {
        let mut out: Vec<Estimate> = vec![(0.0, None); objects.len()];
        let mut pending: Vec<usize> = (0..objects.len()).collect();
        let l = cholesky(&spec.sigma);
        let d2 = spec.delta * spec.delta;
        for (stage, &n) in self.stages.iter().enumerate() {
            if pending.is_empty() {
                break;
            }
            let mut rng = StdRng::seed_from_u64(
                self.seed ^ (stage as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            // Samples x = q + L·z, one column per coordinate.
            let mut z = vec![0.0f64; n * D];
            for pair in z.chunks_mut(2) {
                let (a, b) = normal_pair(&mut rng);
                pair[0] = a;
                if let Some(second) = pair.get_mut(1) {
                    *second = b;
                }
            }
            let cols: Vec<Vec<f64>> = (0..D)
                .map(|r| {
                    (0..n)
                        .map(|j| {
                            let zj = &z[j * D..j * D + D];
                            spec.center[r] + (0..=r).map(|c| l[r][c] * zj[c]).sum::<f64>()
                        })
                        .collect()
                })
                .collect();
            let last = stage + 1 == self.stages.len();
            let mut dist = vec![0.0f64; n];
            pending.retain(|&i| {
                let o = &objects[i];
                dist.fill(0.0);
                for (col, ok) in cols.iter().zip(o.as_slice()) {
                    for (acc, x) in dist.iter_mut().zip(col) {
                        let d = x - ok;
                        *acc += d * d;
                    }
                }
                let hits = dist.iter().filter(|&&s| s <= d2).count();
                out[i] = (hits as f64 / n as f64, Some(n));
                !last && !settled(out[i])
            });
        }
        out
    }
}

/// Classification of one object against θ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    In,
    Out,
    Borderline,
}

/// What checking one answer set found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Clearly-in objects missing from the answers, and clearly-out
    /// objects reported as answers.
    pub misclassified: Vec<u32>,
    /// A clearly-in object, for the check's self-test.
    pub some_in: Option<u32>,
    /// The clearly-out object with the largest upper bound, for the
    /// check's self-test.
    pub some_out: Option<u32>,
    /// Objects that needed a reference probability.
    pub reference_evals: usize,
}

impl Verdict {
    pub fn ok(&self) -> bool {
        self.misclassified.is_empty()
    }
}

/// The eigenbasis of one query's Σ, with the per-axis standard deviations.
pub struct Basis<const D: usize> {
    vectors: [[f64; D]; D],
    sd: [f64; D],
}

impl<const D: usize> Basis<D> {
    pub fn new(sigma: &Matrix<D>) -> Self {
        let (values, vectors) = jacobi_eigen(sigma);
        Basis {
            vectors,
            sd: values.map(|v| v.max(0.0).sqrt()),
        }
    }

    /// The coordinates of `o − q` along the eigenvectors.
    fn coordinates(&self, q: &Vector<D>, o: &Vector<D>) -> [f64; D] {
        std::array::from_fn(|k| (0..D).map(|r| self.vectors[r][k] * (o[r] - q[r])).sum())
    }

    /// Lower and upper bounds on `Pr(‖x − o‖ ≤ δ)` for `x ~ N(q, Σ)`;
    /// the upper bound alone when it is already below `stop`.
    fn bounds(&self, q: &Vector<D>, o: &Vector<D>, delta: f64, stop: f64) -> (f64, f64) {
        let y = self.coordinates(q, o).map(f64::abs);
        // The most selective axis first: most objects stop there.
        let mut order: [usize; D] = std::array::from_fn(|k| k);
        order.sort_by(|&a, &b| {
            let ka = (y[a] - delta) / self.sd[a];
            let kb = (y[b] - delta) / self.sd[b];
            kb.total_cmp(&ka)
        });
        let mut upper = 1.0;
        for &k in &order {
            upper *= interval_probability(y[k], delta, self.sd[k]);
            if upper < stop {
                return (0.0, upper);
            }
        }
        let inner = delta / (D as f64).sqrt();
        let lower = order
            .iter()
            .map(|&k| interval_probability(y[k], inner, self.sd[k]))
            .product();
        (lower, upper)
    }
}

/// `Pr(|X − y| ≤ h)` for `X ~ N(0, sd²)` and `y ≥ 0`, from upper tails so
/// that far intervals keep their relative accuracy.
fn interval_probability(y: f64, h: f64, sd: f64) -> f64 {
    if sd == 0.0 {
        return if y <= h { 1.0 } else { 0.0 };
    }
    (upper_tail((y - h) / sd) - upper_tail((y + h) / sd)).max(0.0)
}

/// Standard-deviation of the difference between the library's estimate
/// and the reference, at probability `p`.
fn noise(p: f64, library_samples: usize, reference_samples: Option<usize>) -> f64 {
    let p = p.clamp(0.0, 1.0);
    let inv = 1.0 / library_samples as f64 + reference_samples.map_or(0.0, |n| 1.0 / n as f64);
    (p * (1.0 - p) * inv).sqrt()
}

/// Checks one sorted answer set against every object in `objects`
/// (object id = index).
pub fn check_query<const D: usize, R: Reference<D>>(
    spec: &QuerySpec<D>,
    basis: &Basis<D>,
    objects: &[Vector<D>],
    answers: &[u32],
    reference: &mut R,
) -> Verdict {
    let theta = spec.theta;
    let lib_only = |p: f64| Z * noise(p, spec.samples, None) + SLACK;
    // Below this upper bound an object is out whatever the other axes
    // say: the tolerance only shrinks as the bound falls below θ ≤ 1/2.
    let stop = theta - lib_only(theta);
    // A coarser box first: the ball also lies in the coordinate box of
    // half-width δ, so an object whose coordinate k is farther than
    // `reach[k]` from the centre has `Pr ≤ 2·Q(z_stop) = stop` and is out.
    let z_stop = upper_tail_inverse(stop / 2.0);
    let reach: [f64; D] =
        std::array::from_fn(|k| spec.delta + z_stop * spec.sigma[(k, k)].max(0.0).sqrt());
    let mut class = vec![Class::Out; objects.len()];
    let mut undecided: Vec<u32> = Vec::new();
    let mut verdict = Verdict::default();
    let mut best_out = f64::NEG_INFINITY;
    for (id, o) in objects.iter().enumerate() {
        if (0..D).any(|k| (o[k] - spec.center[k]).abs() > reach[k]) {
            continue;
        }
        let (lower, upper) = basis.bounds(&spec.center, o, spec.delta, stop);
        if theta - upper > lib_only(upper) {
            if upper > best_out {
                best_out = upper;
                verdict.some_out = Some(id as u32);
            }
        } else if lower - theta > lib_only(lower) {
            class[id] = Class::In;
        } else {
            undecided.push(id as u32);
        }
    }
    let points: Vec<Vector<D>> = undecided.iter().map(|&id| objects[id as usize]).collect();
    let tol = |(p, n): Estimate| Z * noise(p, spec.samples, n) + SLACK;
    let settled = |e: Estimate| (e.0 - theta).abs() > tol(e);
    let estimates = reference.probabilities(spec, basis, &points, &settled);
    verdict.reference_evals = undecided.len();
    for (&id, &(p, n)) in undecided.iter().zip(&estimates) {
        let tol = tol((p, n));
        class[id as usize] = if p - theta > tol {
            Class::In
        } else if theta - p > tol {
            if p > best_out {
                best_out = p;
                verdict.some_out = Some(id);
            }
            Class::Out
        } else {
            Class::Borderline
        };
    }
    for &id in answers {
        if class[id as usize] == Class::Out {
            verdict.misclassified.push(id);
        }
    }
    for (id, c) in class.iter().enumerate() {
        if *c == Class::In {
            if answers.binary_search(&(id as u32)).is_ok() {
                verdict.some_in.get_or_insert(id as u32);
            } else {
                verdict.misclassified.push(id as u32);
            }
        }
    }
    verdict.misclassified.sort_unstable();
    verdict
}

/// The `z` with `Q(z) = p` for `0 < p < 1/2` (bisection).
fn upper_tail_inverse(p: f64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 40.0f64);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if upper_tail(mid) > p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Cyclic Jacobi eigen decomposition of a symmetric matrix: eigenvalues
/// and eigenvectors (as columns).
fn jacobi_eigen<const D: usize>(m: &Matrix<D>) -> ([f64; D], [[f64; D]; D]) {
    let mut a = [[0.0f64; D]; D];
    let mut v = [[0.0f64; D]; D];
    for r in 0..D {
        for c in 0..D {
            a[r][c] = 0.5 * (m[(r, c)] + m[(c, r)]);
        }
        v[r][r] = 1.0;
    }
    for _sweep in 0..100 {
        let off: f64 = (0..D)
            .flat_map(|r| (0..D).filter(move |&c| c != r).map(move |c| (r, c)))
            .map(|(r, c)| a[r][c] * a[r][c])
            .sum();
        let diag: f64 = (0..D).map(|r| a[r][r] * a[r][r]).sum();
        if off <= 1e-30 * diag.max(f64::MIN_POSITIVE) {
            break;
        }
        for p in 0..D {
            for q in p + 1..D {
                if a[p][q] == 0.0 {
                    continue;
                }
                let tau = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                for row in a.iter_mut() {
                    let (akp, akq) = (row[p], row[q]);
                    row[p] = c * akp - s * akq;
                    row[q] = s * akp + c * akq;
                }
                let (rp, rq) = (a[p], a[q]);
                a[p] = std::array::from_fn(|k| c * rp[k] - s * rq[k]);
                a[q] = std::array::from_fn(|k| s * rp[k] + c * rq[k]);
                for row in v.iter_mut() {
                    let (vp, vq) = (row[p], row[q]);
                    row[p] = c * vp - s * vq;
                    row[q] = s * vp + c * vq;
                }
            }
        }
    }
    (std::array::from_fn(|k| a[k][k]), v)
}

/// Gauss–Legendre nodes and weights on `[−1, 1]` (Newton iteration on
/// the Legendre polynomial).
fn gauss_legendre(n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|i| {
            let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
            let mut dp = 1.0;
            for _ in 0..100 {
                // p1 = P_n(x), p0 = P_{n-1}(x) by the three-term recurrence.
                let (mut p0, mut p1) = (1.0, x);
                for k in 2..=n {
                    let p2 = ((2 * k - 1) as f64 * x * p1 - (k - 1) as f64 * p0) / k as f64;
                    p0 = p1;
                    p1 = p2;
                }
                dp = n as f64 * (x * p1 - p0) / (x * x - 1.0);
                let step = p1 / dp;
                x -= step;
                if step.abs() < 1e-15 {
                    break;
                }
            }
            (x, 2.0 / ((1.0 - x * x) * dp * dp))
        })
        .collect()
}

/// Lower Cholesky factor `L` with `Σ = L·Lᵀ`.
fn cholesky<const D: usize>(m: &Matrix<D>) -> [[f64; D]; D] {
    let mut l = [[0.0f64; D]; D];
    for r in 0..D {
        for c in 0..=r {
            let dot: f64 = l[r][..c].iter().zip(&l[c][..c]).map(|(a, b)| a * b).sum();
            let s = m[(r, c)] - dot;
            l[r][c] = if r == c {
                s.max(0.0).sqrt()
            } else {
                s / l[c][c]
            };
        }
    }
    l
}

/// Two independent standard normal draws (Box–Muller).
fn normal_pair(rng: &mut StdRng) -> (f64, f64) {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    let r = (-2.0 * u1.ln()).sqrt();
    let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
    (r * cos, r * sin)
}

/// `Pr(X > x)` for a standard normal `X`.
fn upper_tail(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Complementary error function (Chebyshev fit, relative error below
/// 1.2·10⁻⁷ everywhere).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let r = t * poly.exp();
    if x >= 0.0 {
        r
    } else {
        2.0 - r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprq_gaussian::integrate::quadrature_probability_2d;
    use gprq_gaussian::Gaussian;

    fn spec2(gamma: f64, heading: f64) -> QuerySpec<2> {
        QuerySpec {
            center: Vector::from([500.0, 400.0]),
            sigma: gprq_workloads::rotated_covariance_2d(3.0 * gamma.sqrt(), gamma.sqrt(), heading),
            delta: 25.0,
            theta: 0.01,
            samples: 100_000,
        }
    }

    #[test]
    fn erfc_matches_known_values() {
        for (x, want) in [
            (0.0, 1.0),
            (0.5, 0.479_500_122_186_953_5),
            (1.0, 0.157_299_207_050_285_1),
            (2.0, 0.004_677_734_981_047_266),
            (-1.0, 1.842_700_792_949_715),
        ] {
            assert!((erfc(x) - want).abs() <= 1.2e-7 * want, "erfc({x})");
        }
    }

    #[test]
    fn quadrature_matches_the_library_oracle() {
        let mut worst: f64 = 0.0;
        for gamma in [1.0, 10.0, 100.0] {
            for heading in [0.0, 0.5, 2.0] {
                let spec = spec2(gamma, heading);
                let basis = Basis::new(&spec.sigma);
                let g = Gaussian::new(spec.center, spec.sigma).unwrap();
                let scale = 3.0 * gamma.sqrt() + spec.delta;
                let objects: Vec<Vector<2>> = (0..40)
                    .map(|i| {
                        let a = i as f64 * 0.77;
                        let r = scale * (i % 10) as f64 / 6.0;
                        spec.center + Vector::from([r * a.cos(), r * a.sin()])
                    })
                    .collect();
                let ours = Quadrature.probabilities(&spec, &basis, &objects, &|_| true);
                for (o, (p, _)) in objects.iter().zip(ours) {
                    let oracle = quadrature_probability_2d(&g, o, spec.delta, 512, 1024);
                    worst = worst.max((p - oracle).abs());
                }
            }
        }
        assert!(worst < 1e-7, "largest difference {worst}");
    }

    #[test]
    fn box_bounds_enclose_the_reference() {
        for gamma in [1.0, 10.0, 100.0] {
            let spec = spec2(gamma, 0.3);
            let basis = Basis::new(&spec.sigma);
            for i in 0..60 {
                let a = i as f64 * 1.3;
                let r = i as f64 * 0.02 * (3.0 * gamma.sqrt() + spec.delta);
                let o = spec.center + Vector::from([r * a.cos(), r * a.sin()]);
                let p = Quadrature.probabilities(&spec, &basis, &[o], &|_| true)[0].0;
                let (lo, hi) = basis.bounds(&spec.center, &o, spec.delta, -1.0);
                assert!(lo <= p + 1e-9 && p <= hi + 1e-9, "{lo} ≤ {p} ≤ {hi}");
            }
        }
    }

    #[test]
    fn independent_monte_carlo_agrees_with_quadrature() {
        let spec = spec2(10.0, 1.0);
        let basis = Basis::new(&spec.sigma);
        let objects: Vec<Vector<2>> = (0..6)
            .map(|i| spec.center + Vector::from([4.0 * i as f64, -3.0 * i as f64]))
            .collect();
        let exact = Quadrature.probabilities(&spec, &basis, &objects, &|_| true);
        let mut mc = IndependentMonteCarlo {
            stages: [200_000, 200_000],
            seed: 7,
        };
        let est = mc.probabilities(&spec, &basis, &objects, &|_| true);
        for ((e, _), (m, n)) in exact.iter().zip(est) {
            assert_eq!(n, Some(200_000));
            let sd = (e * (1.0 - e) / 200_000.0).sqrt();
            assert!((e - m).abs() <= 5.0 * sd + 1e-9, "{e} vs {m}");
        }
    }

    #[test]
    fn corrupted_answers_are_caught() {
        let spec = spec2(10.0, 0.7);
        let basis = Basis::new(&spec.sigma);
        let objects: Vec<Vector<2>> = (0..400)
            .map(|i| {
                let a = i as f64 * 2.399;
                let r = (i as f64).sqrt() * 6.0;
                spec.center + Vector::from([r * a.cos(), r * a.sin()])
            })
            .collect();
        let probs = Quadrature.probabilities(&spec, &basis, &objects, &|_| true);
        let truth: Vec<u32> = (0..objects.len() as u32)
            .filter(|&i| probs[i as usize].0 >= spec.theta)
            .collect();
        let v = check_query(&spec, &basis, &objects, &truth, &mut Quadrature);
        assert!(v.ok(), "{:?}", v.misclassified);
        let (keep, add) = (v.some_in.unwrap(), v.some_out.unwrap());
        let dropped: Vec<u32> = truth.iter().copied().filter(|&i| i != keep).collect();
        assert_eq!(
            check_query(&spec, &basis, &objects, &dropped, &mut Quadrature).misclassified,
            [keep]
        );
        let mut added = truth.clone();
        added.push(add);
        added.sort_unstable();
        assert_eq!(
            check_query(&spec, &basis, &objects, &added, &mut Quadrature).misclassified,
            [add]
        );
    }
}
