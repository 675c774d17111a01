//! Random sampling from Gaussian distributions.
//!
//! The paper's experiments use RANDLIB to draw Gaussian variates for the
//! importance-sampling integrator (§V-A). This module substitutes two
//! from-scratch standard-normal generators over `rand`'s `u64` source,
//! each with one job:
//!
//! * [`Ziggurat`] — the exact 256-layer ziggurat of Marsaglia & Tsang
//!   (2000), tail and wedge steps included. On its fast path (≈ 98.5 % of
//!   draws) a variate costs one `u64` and no transcendental call. Every
//!   Monte-Carlo draw uses it: [`GaussianSampler`] (the Cholesky map
//!   `x = q + L·z` for `N(q, Σ)`) and the Phase-3 sample clouds of
//!   [`crate::cloud`].
//! * [`StandardNormal`] — the Box–Muller transform with spare caching.
//!   It is the **frozen data-generation stream**: `gprq-workloads`
//!   (`corel`, `synthetic`, `feedback`) draws the paper's data sets and
//!   the benchmark's inputs from it, so its output for a given seed must
//!   never change. Golden-value tests pin it; new sampling code uses the
//!   ziggurat instead.

use crate::mvn::Gaussian;
use crate::specfun::erfc;
use gprq_linalg::Vector;
use rand::Rng;
use std::sync::OnceLock;

/// A standard-normal variate generator using the Box–Muller transform.
///
/// Each transform produces two independent `N(0, 1)` values; the second is
/// cached so consecutive calls consume uniforms at the optimal rate.
///
/// This is the frozen data-generation stream (see the module docs): the
/// workload generators depend on its exact output, so it must not change.
///
/// ```
/// use gprq_gaussian::StandardNormal;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut sn = StandardNormal::new();
/// let z = sn.sample(&mut rng);
/// assert!(z.is_finite());
/// ```
#[derive(Debug, Clone, Default)]
pub struct StandardNormal {
    spare: Option<f64>,
}

impl StandardNormal {
    /// Creates a generator with an empty spare cache.
    pub fn new() -> Self {
        StandardNormal { spare: None }
    }

    /// Draws one `N(0, 1)` variate.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Box–Muller: u1 ∈ (0, 1] so ln(u1) is finite.
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let radius = (-2.0 * u1.ln()).sqrt();
        let angle = std::f64::consts::TAU * u2;
        self.spare = Some(radius * angle.sin());
        radius * angle.cos()
    }

    /// Fills a vector with independent `N(0, 1)` coordinates.
    pub fn sample_vector<const D: usize, R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vector<D> {
        Vector::from_fn(|_| self.sample(rng))
    }
}

/// Number of ziggurat layers; one byte of the random word picks a layer.
const ZIG_LAYERS: usize = 256;

/// Right edge `R` of the base layer of the 256-layer normal ziggurat
/// (Marsaglia & Tsang 2000). Draws beyond `R` come from the tail step.
const ZIG_R: f64 = 3.654_152_885_361_009;

/// `2⁻⁵²`: scales the top 53 bits of a word onto `[0, 2)`.
const TWO_POW_M52: f64 = 1.0 / (1u64 << 52) as f64;

/// One horizontal layer of the ziggurat: the strip
/// `[0, x_outer] × [f_outer, f_inner]` under `f(x) = e^{−x²/2}`.
#[derive(Debug, Clone, Copy, Default)]
struct ZigLayer {
    /// Half-width of the strip (for the base layer, the pseudo-width
    /// `V / f(R)` that accounts for the tail's area).
    x_outer: f64,
    /// Half-width of the layer above; `|x| < x_inner` lies under the
    /// curve for sure.
    x_inner: f64,
    /// `f(x_outer)`: the strip's lower edge.
    f_outer: f64,
    /// `f(x_inner)`: the strip's upper edge.
    f_inner: f64,
}

/// The layer table, computed once per process.
#[derive(Debug)]
struct ZigTable {
    layers: [ZigLayer; ZIG_LAYERS],
}

impl ZigTable {
    /// Builds the equal-area layers by the standard recurrence
    /// `f(x_{i+1}) = f(x_i) + V / x_i` from `x_1 = R`, where `V` is the
    /// common layer area: the base rectangle `R·f(R)` plus the tail
    /// `∫_R^∞ e^{−x²/2} dx = √(π/2)·erfc(R/√2)`. The top layer closes at
    /// `x = 0`, `f = 1`.
    fn compute() -> Self {
        let f_r = (-0.5 * ZIG_R * ZIG_R).exp();
        let area = ZIG_R * f_r
            + (0.5 * std::f64::consts::PI).sqrt() * erfc(ZIG_R / std::f64::consts::SQRT_2);
        // edges[i] = (x_i, f(x_i)) for i = 0..=256; the top edge stays
        // (0, 1) and the base edge carries the pseudo-width V / f(R).
        let mut edges = [(0.0f64, 1.0f64); ZIG_LAYERS + 1];
        let (mut x, mut f) = (ZIG_R, f_r);
        for edge in edges.iter_mut().take(ZIG_LAYERS).skip(1) {
            *edge = (x, f);
            f += area / x;
            x = (-2.0 * f.ln()).sqrt();
        }
        if let Some(base) = edges.first_mut() {
            let width = area / f_r;
            *base = (width, (-0.5 * width * width).exp());
        }
        let mut layers = [ZigLayer::default(); ZIG_LAYERS];
        for (layer, pair) in layers.iter_mut().zip(edges.windows(2)) {
            if let [(x_outer, f_outer), (x_inner, f_inner)] = *pair {
                *layer = ZigLayer {
                    x_outer,
                    x_inner,
                    f_outer,
                    f_inner,
                };
            }
        }
        ZigTable { layers }
    }
}

/// An exact standard-normal generator: the 256-layer ziggurat of
/// Marsaglia & Tsang (2000), with the exact wedge rejection and
/// Marsaglia's (1964) exact tail step beyond `R ≈ 3.654`.
///
/// Each attempt takes one `u64`: its low byte picks a layer, its top 53
/// bits a uniform `u ∈ [−1, 1)`. When `|u·x_i|` falls inside the layer
/// above — about 98.5 % of draws — it is returned with no further work and
/// no transcendental call. Otherwise the wedge test (one uniform, one
/// `exp`) or, for the base layer, the tail step decides.
///
/// The generator is stateless (there is no spare to carry), so `n + m`
/// draws in two runs consume the `rng` exactly like one run of `n + m`.
///
/// ```
/// use gprq_gaussian::Ziggurat;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let z = Ziggurat::new().sample(&mut rng);
/// assert!(z.is_finite());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Ziggurat {
    table: &'static ZigTable,
}

impl Default for Ziggurat {
    fn default() -> Self {
        Self::new()
    }
}

impl Ziggurat {
    /// A generator over the process-wide layer table (computed on first
    /// use).
    pub fn new() -> Self {
        static TABLE: OnceLock<ZigTable> = OnceLock::new();
        Ziggurat {
            table: TABLE.get_or_init(ZigTable::compute),
        }
    }

    /// Draws one `N(0, 1)` variate.
    // HOT-PATH: ziggurat normal draw (every Monte-Carlo sample)
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let bits = rng.next_u64();
            let [byte, ..] = bits.to_le_bytes();
            let Some(layer) = self.table.layers.get(usize::from(byte)) else {
                // Unreachable: a byte indexes one of the 256 layers.
                continue;
            };
            // The top 53 bits, disjoint from the layer byte.
            let u = (bits >> 11) as f64 * TWO_POW_M52 - 1.0;
            let x = u * layer.x_outer;
            if x.abs() < layer.x_inner {
                return x;
            }
            if byte == 0 {
                return zig_tail(rng, u < 0.0);
            }
            // Wedge: a uniform height in the strip, accepted under the
            // curve.
            let y = layer.f_outer + (layer.f_inner - layer.f_outer) * rng.gen::<f64>();
            if y < (-0.5 * x * x).exp() {
                return x;
            }
        }
    }

    /// Fills a vector with independent `N(0, 1)` coordinates, drawn in
    /// coordinate order.
    pub fn sample_vector<const D: usize, R: Rng + ?Sized>(&self, rng: &mut R) -> Vector<D> {
        Vector::from_fn(|_| self.sample(rng))
    }
}

/// The exact normal tail beyond `R` (Marsaglia 1964): with `x = −ln(u₁)/R`
/// and `y = −ln(u₂)`, accept `R + x` once `2y ≥ x²`.
fn zig_tail<R: Rng + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        // 1 − U ∈ (0, 1], so both logarithms are finite.
        let x = -(1.0 - rng.gen::<f64>()).ln() / ZIG_R;
        let y = -(1.0 - rng.gen::<f64>()).ln();
        if 2.0 * y >= x * x {
            let z = ZIG_R + x;
            return if negative { -z } else { z };
        }
    }
}

/// Sampler for a general Gaussian `N(q, Σ)` via `x = q + L·z`, with `z`
/// from the [`Ziggurat`].
///
/// Borrows the [`Gaussian`] so the Cholesky factor is computed once per
/// query, matching the paper's setting where thousands of integrations
/// share a single query distribution. `L·z` is formed before the single
/// component-wise add of `q`, so a sample is bitwise `q + w` for the
/// offset `w` a [`crate::cloud`] draw from the same `rng` state stores.
#[derive(Debug, Clone)]
pub struct GaussianSampler<'a, const D: usize> {
    gaussian: &'a Gaussian<D>,
    normal: Ziggurat,
}

impl<'a, const D: usize> GaussianSampler<'a, D> {
    /// Creates a sampler bound to `gaussian`.
    pub fn new(gaussian: &'a Gaussian<D>) -> Self {
        GaussianSampler {
            gaussian,
            normal: Ziggurat::new(),
        }
    }

    /// Draws one sample `x ~ N(q, Σ)`.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vector<D> {
        let z = self.normal.sample_vector::<D, R>(rng);
        *self.gaussian.mean() + self.gaussian.cholesky().apply(&z)
    }

    /// Fills `out` with samples (one per slot), in slot order.
    pub fn sample_batch<R: Rng + ?Sized>(&mut self, rng: &mut R, out: &mut [Vector<D>]) {
        for slot in out.iter_mut() {
            *slot = self.sample(rng);
        }
    }
}

/// Samples a point uniformly from the `D`-ball of radius `radius` centered
/// at `center`.
///
/// Uses the standard construction: an isotropic Gaussian direction scaled
/// to the sphere, then a radius drawn as `r = radius · u^{1/D}`. This is
/// the sampling primitive of the *uniform-ball* Monte-Carlo comparator
/// (the "standard Monte Carlo method" the paper contrasts with importance
/// sampling in §V-A).
pub fn sample_uniform_ball<const D: usize, R: Rng + ?Sized>(
    standard: &mut StandardNormal,
    rng: &mut R,
    center: &Vector<D>,
    radius: f64,
) -> Vector<D> {
    debug_assert!(radius >= 0.0);
    // Direction: normalized Gaussian vector (retry the astronomically
    // unlikely zero vector).
    let mut dir;
    loop {
        dir = standard.sample_vector::<D, R>(rng);
        if let Some(unit) = dir.normalized() {
            dir = unit;
            break;
        }
    }
    let u: f64 = rng.gen::<f64>();
    let r = radius * u.powf(1.0 / D as f64);
    *center + dir * r
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprq_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sigma_paper() -> Matrix<2> {
        let s3 = 3.0f64.sqrt();
        Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0)
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut sn = StandardNormal::new();
        let n = 200_000;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..n {
            let z = sn.sample(&mut rng);
            sum += z;
            sum_sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.02, "var = {var}");
    }

    #[test]
    fn standard_normal_tail_fractions() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sn = StandardNormal::new();
        let n = 100_000;
        let within_one =
            (0..n).filter(|_| sn.sample(&mut rng).abs() <= 1.0).count() as f64 / n as f64;
        // P(|Z| ≤ 1) = 0.6827.
        assert!((within_one - 0.6827).abs() < 0.01, "got {within_one}");
    }

    #[test]
    fn standard_normal_stream_is_frozen() {
        // StandardNormal generates the workload data sets, so its stream
        // must never drift: these are its first draws for seed 42. The
        // tolerance only absorbs last-ulp libm differences in ln/sin/cos
        // across platforms; any change to the transform fails it.
        let golden = [
            -0.303263064678738,
            0.28846173882942383,
            1.3438117634372806,
            -0.6879751798977497,
            0.3834617912676943,
            -3.0758989311988945,
        ];
        let mut rng = StdRng::seed_from_u64(42);
        let mut sn = StandardNormal::new();
        for (i, &expect) in golden.iter().enumerate() {
            let z = sn.sample(&mut rng);
            assert!(
                (z - expect).abs() <= 1e-12 * expect.abs().max(1.0),
                "draw {i}: {z} drifted from the frozen {expect}"
            );
        }
    }

    /// Pearson χ² of `counts` against the bin probabilities `probs`
    /// over `n` draws.
    fn chi_square(counts: &[usize], probs: &[f64], n: usize) -> f64 {
        counts
            .iter()
            .zip(probs)
            .map(|(&c, &p)| {
                let expected = p * n as f64;
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum()
    }

    /// Asserts a χ² statistic with `bins − 1` degrees of freedom lies
    /// within five standard deviations of its mean — generous enough to
    /// stay deterministic under a fixed seed, tight enough to catch a
    /// wrong layer, wedge or tail.
    fn assert_chi_square(stat: f64, bins: usize, what: &str) {
        let dof = (bins - 1) as f64;
        let spread = 5.0 * (2.0 * dof).sqrt();
        assert!(
            stat < dof + spread && stat > dof - spread,
            "{what}: χ² = {stat} for {dof} dof"
        );
    }

    /// Upper tail `P(Z > a)`, accurate far out (no `1 − Φ` cancellation).
    fn upper_tail(a: f64) -> f64 {
        if a.is_infinite() {
            return if a < 0.0 { 1.0 } else { 0.0 };
        }
        0.5 * erfc(a / std::f64::consts::SQRT_2)
    }

    #[test]
    fn ziggurat_matches_phi_chi_square() {
        // 10⁷ draws binned on edges that put bins on both sides of R
        // (the base layer's edge, beyond which the tail step runs) and
        // out to [4.5, ∞), which still expects ≈ 34 draws per side.
        let mut edges: Vec<f64> = vec![f64::NEG_INFINITY, -4.5, -4.0, -ZIG_R];
        edges.extend((-6..=6).map(|k| f64::from(k) * 0.5));
        edges.extend([ZIG_R, 4.0, 4.5, f64::INFINITY]);
        let probs: Vec<f64> = edges
            .windows(2)
            .map(|w| upper_tail(w[0]) - upper_tail(w[1]))
            .collect();
        let n = 10_000_000;
        let mut counts = vec![0usize; probs.len()];
        let zig = Ziggurat::new();
        let mut rng = StdRng::seed_from_u64(20_000_101);
        let mut beyond_five = 0usize;
        for _ in 0..n {
            let z = zig.sample(&mut rng);
            assert!(z.is_finite());
            // Bin b holds edges[b] ≤ z < edges[b + 1].
            let b = edges.partition_point(|&e| e <= z) - 1;
            counts[b] += 1;
            beyond_five += usize::from(z.abs() >= 5.0);
        }
        assert_chi_square(chi_square(&counts, &probs, n), probs.len(), "ziggurat vs Φ");
        // |Z| ≥ 5 expects 2·P(Z > 5)·n ≈ 5.7 draws: too few to bin, but
        // a Poisson count that far off (or zero tail at all) is a defect.
        let expect_five = 2.0 * upper_tail(5.0) * n as f64;
        assert!(
            (beyond_five as f64) < expect_five + 6.0 * expect_five.sqrt(),
            "{beyond_five} draws beyond 5σ, expected ≈ {expect_five}"
        );
    }

    #[test]
    fn ziggurat_tail_step_matches_phi_beyond_r() {
        // The tail step alone, against Z | Z > R: here bins beyond 5σ
        // hold thousands of draws ([5, 5.5) ≈ 2 100, [5.5, ∞) ≈ 150).
        let edges = [ZIG_R, 3.8, 4.0, 4.25, 4.5, 5.0, 5.5, f64::INFINITY];
        let base = upper_tail(ZIG_R);
        let probs: Vec<f64> = edges
            .windows(2)
            .map(|w| (upper_tail(w[0]) - upper_tail(w[1])) / base)
            .collect();
        let n = 1_000_000;
        let mut counts = vec![0usize; probs.len()];
        let mut rng = StdRng::seed_from_u64(365_412);
        for i in 0..n {
            // Alternate signs: the tail mirrors exactly.
            let negative = i % 2 == 1;
            let z = zig_tail(&mut rng, negative);
            assert_eq!(z < 0.0, negative);
            let a = z.abs();
            assert!(a >= ZIG_R, "tail draw {z} inside R");
            let b = edges.partition_point(|&e| e <= a) - 1;
            counts[b] += 1;
        }
        assert_chi_square(chi_square(&counts, &probs, n), probs.len(), "tail vs Φ");
    }

    #[test]
    fn ziggurat_is_symmetric() {
        let zig = Ziggurat::new();
        let mut rng = StdRng::seed_from_u64(77);
        let n = 2_000_000usize;
        let thresholds = [0.0, 1.0, 2.0, ZIG_R, 4.0];
        let mut above = [0usize; 5];
        let mut below = [0usize; 5];
        let mut sum = 0.0;
        for _ in 0..n {
            let z = zig.sample(&mut rng);
            sum += z;
            for (k, &t) in thresholds.iter().enumerate() {
                above[k] += usize::from(z > t);
                below[k] += usize::from(z < -t);
            }
        }
        for (k, &t) in thresholds.iter().enumerate() {
            // above − below has variance ≈ above + below under symmetry.
            let diff = above[k] as f64 - below[k] as f64;
            let sd = ((above[k] + below[k]) as f64).sqrt().max(1.0);
            assert!(
                diff.abs() < 5.0 * sd,
                "asymmetry beyond ±{t}: {} above vs {} below",
                above[k],
                below[k]
            );
        }
        let mean = sum / n as f64;
        assert!(mean.abs() < 5.0 / (n as f64).sqrt(), "mean {mean}");
    }

    #[test]
    fn ziggurat_layers_have_equal_area() {
        // Every layer (the base including its tail) must hold the same
        // area V, and the top layer must close at the mode.
        let table = Ziggurat::new().table;
        let base = table.layers[0];
        let area = base.x_outer * base.f_inner;
        assert_eq!(base.x_inner.to_bits(), ZIG_R.to_bits());
        for (i, layer) in table.layers.iter().enumerate().skip(1) {
            assert!(layer.x_inner < layer.x_outer, "layer {i} not nested");
            let a = layer.x_outer * (layer.f_inner - layer.f_outer);
            assert!(
                (a - area).abs() < 1e-9 * area,
                "layer {i}: area {a} vs {area}"
            );
        }
        let top = table.layers[ZIG_LAYERS - 1];
        assert_eq!(top.x_inner, 0.0);
        assert_eq!(top.f_inner, 1.0);
    }

    #[test]
    fn gaussian_sampler_matches_moments() {
        let g = Gaussian::new(Vector::from([500.0, 300.0]), sigma_paper()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut sampler = GaussianSampler::new(&g);
        let n = 200_000;
        let mut mean = Vector::<2>::ZERO;
        let mut m2 = Matrix::<2>::ZERO;
        for _ in 0..n {
            let x = sampler.sample(&mut rng) - *g.mean();
            mean += x;
            for i in 0..2 {
                for j in 0..2 {
                    m2[(i, j)] += x[i] * x[j];
                }
            }
        }
        let inv_n = 1.0 / n as f64;
        mean = mean * inv_n;
        assert!(mean.norm() < 0.1, "sample mean offset {mean}");
        for i in 0..2 {
            for j in 0..2 {
                let cov = m2[(i, j)] * inv_n;
                let expect = sigma_paper()[(i, j)];
                assert!(
                    (cov - expect).abs() < 0.03 * expect.abs().max(10.0),
                    "cov[{i}][{j}] = {cov}, expect {expect}"
                );
            }
        }
    }

    #[test]
    fn sample_batch_fills_all() {
        let g = Gaussian::<2>::standard();
        let mut rng = StdRng::seed_from_u64(3);
        let mut sampler = GaussianSampler::new(&g);
        let mut buf = vec![Vector::<2>::ZERO; 64];
        sampler.sample_batch(&mut rng, &mut buf);
        // All finite and (with overwhelming probability) distinct from zero.
        assert!(buf.iter().all(|v| v.is_finite()));
        assert!(buf.iter().any(|v| v.norm() > 1e-9));
    }

    #[test]
    fn deterministic_under_seed() {
        let g = Gaussian::<2>::standard();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = GaussianSampler::new(&g);
            s.sample(&mut rng)
        };
        assert_eq!(run(9).as_slice(), run(9).as_slice());
        assert_ne!(run(9).as_slice(), run(10).as_slice());
    }

    #[test]
    fn uniform_ball_stays_inside_and_fills() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut sn = StandardNormal::new();
        let center = Vector::from([10.0, -5.0, 2.0]);
        let radius = 4.0;
        let n = 50_000;
        let mut inside_half = 0usize;
        for _ in 0..n {
            let x = sample_uniform_ball(&mut sn, &mut rng, &center, radius);
            let dist = x.distance(&center);
            assert!(dist <= radius + 1e-12);
            if dist <= radius / 2.0 {
                inside_half += 1;
            }
        }
        // Volume ratio of half-radius ball in 3-D is 1/8.
        let frac = inside_half as f64 / n as f64;
        assert!((frac - 0.125).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn uniform_ball_radius_zero_returns_center() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut sn = StandardNormal::new();
        let center = Vector::from([1.0, 2.0]);
        let x = sample_uniform_ball(&mut sn, &mut rng, &center, 0.0);
        assert_eq!(x.as_slice(), center.as_slice());
    }
}
