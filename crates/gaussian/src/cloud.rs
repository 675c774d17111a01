//! Shared-sample Phase-3 engine: one sample cloud per query, spatially
//! indexed for grid-accelerated hit counting.
//!
//! The paper's integrator (§V-A) draws a fresh batch of `N(q, Σ)`
//! samples *per candidate*, even though the proposal distribution never
//! depends on the candidate. This module does the expensive
//! probabilistic work once and answers many membership tests cheaply:
//!
//! * [`SampleCloud`] draws the query's batch once into a
//!   structure-of-arrays layout (one `Vec<f64>` per dimension) so the
//!   distance kernel streams each coordinate column sequentially —
//!   cache-friendly and auto-vectorizable, with a branch-free
//!   hit-count inner loop.
//! * [`CloudGrid`] overlays a uniform grid on the cloud and reorders
//!   the samples cell by cell. A probe for `Pr(‖x − center‖ ≤ δ)`
//!   visits only cells intersecting `B(center, δ)`: cells whose tight
//!   sample bounding box lies fully inside the ball contribute their
//!   counts without a single distance test; boundary cells run the SoA
//!   kernel over their contiguous sample range. Per-candidate cost
//!   drops from `O(samples)` to `O(samples near the candidate)`.
//!
//! **Offset space.** Both types hold the mean-free offsets
//! `w_j = L·z_j` of a Cholesky factor `L` (with `z_j` from the
//! [`Ziggurat`]), never the samples `q + w_j` themselves. Since
//! `‖(q + w) − o‖ = ‖w − (o − q)‖`, a probe for the object `o` passes
//! the offset `o − q`. A cloud therefore depends only on
//! `(L, n, rng)`: one grid serves every query that shares Σ, whatever
//! its mean, which is what lets the batch executor cache whole grids.
//! [`CloudGrid::draw`] builds a grid in one fused pass over fresh
//! draws — the bounding box is tracked during the draw, one pass
//! computes `u32` cell ids and the cell histogram together, and one
//! scatter places each sample and widens its cell's tight bounds.
//!
//! **Estimator caveat** (why conformance, not bit-parity, is the
//! correctness gate): sharing one cloud across every candidate of a
//! query makes the per-candidate estimation errors *positively
//! correlated across candidates*. Each individual estimate is still
//! unbiased with the same variance as a fresh batch of equal size —
//! only the joint distribution changes — so closed-form conformance
//! suites hold unchanged, while bit-parity with the per-candidate
//! estimator is neither expected nor meaningful.
//!
//! Grid and linear scans over the *same* cloud, however, agree
//! **exactly** (same hit count, bit for bit): both paths compute each
//! sample's squared distance `Σ_d (w_d − c_d)²` to the same offset
//! probe `c` with the identical summation order, and the fully-inside
//! shortcut only fires when the cell's farthest corner — evaluated with
//! that same ordering — already clears `δ²`. Rounding is monotone, so
//! no counted sample can escape and no uncounted one can sneak in. The
//! `cloud_grid` test suite pins this.

use crate::sampler::Ziggurat;
use gprq_linalg::{Cholesky, Vector};
use rand::Rng;
use std::num::NonZeroUsize;

/// Aim for this many samples per occupied grid cell (sizing heuristic;
/// see [`CloudGrid::build`]).
const TARGET_PER_CELL: usize = 16;

/// Upper bound on the per-axis grid resolution, so cell bookkeeping
/// stays small next to the sample storage itself.
const MAX_RES: usize = 128;

/// Block width of the SoA distance kernel: small enough for the
/// accumulator to live on the stack, wide enough to amortize the
/// per-block column setup.
const KERNEL_BLOCK: usize = 256;

/// Counters describing the work a cloud-backed probe performed.
///
/// Evaluators accumulate these and the executors flush them into
/// `QueryStats` once per query (see `PipelineMetrics` in `gprq-core`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CloudStats {
    /// Sample clouds drawn (one per query on the shared-sample path).
    pub builds: usize,
    /// Samples behind the returned estimates: each
    /// [`CloudGrid::probability_with_stats`] call adds the cloud size,
    /// because every estimate is a hit fraction over the whole cloud.
    pub samples: usize,
    /// Grid cells visited across all probes.
    pub cells_scanned: usize,
    /// Visited cells classified fully-inside (counted without distance
    /// tests).
    pub cells_inside: usize,
    /// Samples that went through the distance kernel (boundary cells on
    /// the grid path, every sample on the linear path).
    pub samples_tested: usize,
}

impl CloudStats {
    /// Accumulates `other` into `self`, field by field.
    pub fn merge(&mut self, other: &CloudStats) {
        self.builds += other.builds;
        self.samples += other.samples;
        self.cells_scanned += other.cells_scanned;
        self.cells_inside += other.cells_inside;
        self.samples_tested += other.samples_tested;
    }
}

/// Draws one offset `w = L·z`, `z` from the ziggurat in coordinate order
/// — the single draw step of every cloud, so [`SampleCloud`] and
/// [`CloudGrid::draw`] consume identical streams.
fn draw_offset<const D: usize, R: Rng + ?Sized>(
    normal: &Ziggurat,
    chol: &Cholesky<D>,
    rng: &mut R,
) -> Vector<D> {
    chol.apply(&normal.sample_vector(rng))
}

/// One query's Monte-Carlo sample batch in offset space and
/// structure-of-arrays layout: coordinate `d` of offset `w_i = L·z_i`
/// lives at `coords[d][i]`. Probes pass `center − mean` (module docs).
///
/// Offsets are stored in draw order, so the first `k` column entries
/// are exactly the first `k` draws — the prefix property the budgeted
/// evaluator's blockwise early termination relies on. Sample `i` of the
/// distribution is bitwise `mean + w_i` as
/// [`GaussianSampler::sample_batch`](crate::GaussianSampler::sample_batch)
/// draws it from the same `rng` state (pinned by a proptest).
#[derive(Debug, Clone)]
pub struct SampleCloud<const D: usize> {
    coords: [Vec<f64>; D],
}

impl<const D: usize> SampleCloud<D> {
    /// Draws `n_samples` offsets `w_j = L·z_j` for the Cholesky factor
    /// `chol`.
    ///
    /// The count is a [`NonZeroUsize`], so an empty cloud — which would
    /// turn `0/0` into a silent rejection — is unrepresentable and this
    /// constructor cannot fail or panic.
    pub fn draw<R: Rng + ?Sized>(chol: &Cholesky<D>, n_samples: NonZeroUsize, rng: &mut R) -> Self {
        let n = n_samples.get();
        let mut cloud = SampleCloud {
            coords: std::array::from_fn(|_| Vec::with_capacity(n)),
        };
        cloud.extend(chol, n, rng);
        cloud
    }

    /// Appends `additional` fresh offsets, preserving draw order. The
    /// ziggurat carries no state between draws, so drawing `n` and then
    /// extending by `m` is bitwise identical to drawing `n + m` at once.
    pub fn extend<R: Rng + ?Sized>(&mut self, chol: &Cholesky<D>, additional: usize, rng: &mut R) {
        let normal = Ziggurat::new();
        for _ in 0..additional {
            let w = draw_offset(&normal, chol, rng);
            for (col, &v) in self.coords.iter_mut().zip(w.as_slice()) {
                col.push(v);
            }
        }
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.coords.first().map_or(0, Vec::len)
    }

    /// `true` only for `D == 0` degenerate instantiations; every cloud
    /// built by [`SampleCloud::draw`] holds at least one offset.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Offset `i` reassembled as a vector (`None` past the end).
    pub fn get(&self, i: usize) -> Option<Vector<D>> {
        if i < self.len() {
            Some(Vector::from_fn(|d| {
                self.coords
                    .get(d)
                    .and_then(|col| col.get(i))
                    .map_or(0.0, |v| *v)
            }))
        } else {
            None
        }
    }

    /// The raw coordinate columns (column `d` holds coordinate `d` of
    /// every offset, in draw order).
    pub fn columns(&self) -> &[Vec<f64>; D] {
        &self.coords
    }

    /// Counts offsets with `‖w − center‖ ≤ delta` by a linear scan of
    /// the whole cloud; `center` is the probe in offset space
    /// (`object − mean`). Debug-asserts `delta ≥ 0`.
    // HOT-PATH: shared-cloud linear hit count (Phase 3 inner loop)
    pub fn count_within(&self, center: &Vector<D>, delta: f64) -> usize {
        debug_assert!(delta >= 0.0);
        count_hits(&self.coords, 0, self.len(), center, delta * delta)
    }

    /// Counts hits among samples `start..end` (draw order, end-clamped)
    /// — the blockwise prefix primitive behind budgeted early
    /// termination: disjoint ranges sum to the full-scan count exactly.
    // HOT-PATH: shared-cloud prefix hit count (budgeted Phase 3)
    pub fn count_in_range(
        &self,
        center: &Vector<D>,
        delta: f64,
        start: usize,
        end: usize,
    ) -> usize {
        debug_assert!(delta >= 0.0);
        count_hits(
            &self.coords,
            start,
            end.min(self.len()),
            center,
            delta * delta,
        )
    }

    /// Estimates `Pr(‖w − center‖ ≤ delta)` (offset-space probe) as the
    /// hit fraction of the full cloud.
    pub fn probability(&self, center: &Vector<D>, delta: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.count_within(center, delta) as f64 / self.len() as f64
    }
}

/// The SoA distance kernel shared by the linear scan and the grid's
/// boundary cells, so both paths round identically per sample.
///
/// Processes `start..end` in blocks of [`KERNEL_BLOCK`]: per block, each
/// coordinate column streams once into a stack accumulator of squared
/// per-dimension differences (summed in ascending dimension order), then
/// a branch-free pass counts `dsq ≤ delta_sq`.
// HOT-PATH: SoA distance kernel (Phase 3 innermost loop)
fn count_hits<const D: usize>(
    cols: &[Vec<f64>; D],
    start: usize,
    end: usize,
    center: &Vector<D>,
    delta_sq: f64,
) -> usize {
    // `std::iter::zip` (not the `.iter()` adaptor) keeps this hot root
    // free of method names the workspace call-graph auditor would
    // over-approximate onto unrelated impls.
    let mut hits = 0usize;
    let mut at = start;
    while at < end {
        let take = KERNEL_BLOCK.min(end - at);
        let mut acc = [0.0f64; KERNEL_BLOCK];
        for (col, &c) in std::iter::zip(cols, center.as_slice()) {
            let Some(seg) = col.get(at..at + take) else {
                return hits;
            };
            for (a, &x) in std::iter::zip(&mut acc, seg) {
                let diff = x - c;
                *a += diff * diff;
            }
        }
        if let Some(head) = acc.get(..take) {
            for &dsq in head {
                hits += usize::from(dsq <= delta_sq);
            }
        }
        at += take;
    }
    hits
}

/// Clamped float→index conversion for grid coordinates: `t` is floored,
/// then clamped to `[0, max_index]`, so the cast is total (NaN and both
/// infinities land on a valid index).
///
/// Implemented as a saturating cast, which computes the same value
/// without the libm `floor` call: `as usize` maps NaN and negatives to
/// 0, truncates non-negative values (truncation = floor there), and
/// saturates +∞/overflow at `usize::MAX`, which the `min` then clamps —
/// case for case what floor-max-min-cast produced.
fn grid_slot(t: f64, max_index: usize) -> usize {
    (t as usize).min(max_index)
}

/// Widens the bounding box `[lo, hi]` to contain `w`.
fn widen_box<const D: usize>(lo: &mut [f64; D], hi: &mut [f64; D], w: &Vector<D>) {
    for ((l, h), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(w.as_slice()) {
        *l = l.min(v);
        *h = h.max(v);
    }
}

/// A uniform grid over an offset-space cloud, with the offsets
/// reordered cell by cell (CSR layout) and a tight per-cell bounding box
/// of the offsets it actually holds.
///
/// Cell sizing: the per-axis resolution is the largest `r ≤ 128` with
/// `r^D ≤ n / 16` — about `TARGET_PER_CELL` samples per cell if the
/// cloud were uniform; axes with zero extent collapse to one cell. A
/// probe enumerates the cells whose index range overlaps
/// `[center − δ, center + δ]` per axis (widened by one cell against
/// rounding slop), then classifies each: fully-inside cells contribute
/// `count` hits with no distance test, boundary cells run the SoA
/// kernel on their contiguous range. See the module docs for why this
/// matches the linear scan exactly.
///
/// The grid depends only on `(L, n, rng)`, never on a mean, so one grid
/// answers every query sharing the covariance: probes pass
/// `center − mean`. Two grids compare equal when their layout, cell
/// bounds and offsets all match — as for two draws from one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudGrid<const D: usize> {
    /// Cell-reordered offset columns.
    cols: [Vec<f64>; D],
    /// CSR ranges: cell `c` owns samples `cell_start[c]..cell_start[c+1]`.
    cell_start: Vec<usize>,
    /// Tight per-cell sample minima, `cells × D`, cell-major.
    cell_min: Vec<f64>,
    /// Tight per-cell sample maxima, `cells × D`, cell-major.
    cell_max: Vec<f64>,
    res: [usize; D],
    origin: [f64; D],
    inv_width: [f64; D],
    len: usize,
}

impl<const D: usize> CloudGrid<D> {
    /// Draws `n_samples` offsets `w_j = L·z_j` for the factor `chol` and
    /// indexes them, in one fused build: the bounding box is tracked
    /// while drawing, then one pass computes each sample's `u32` cell id
    /// together with the cell histogram, and one scatter places every
    /// sample in cell order while widening its cell's tight bounds.
    ///
    /// Consumes `rng` exactly like [`SampleCloud::draw`], and the result
    /// is bitwise identical to `CloudGrid::build(&SampleCloud::draw(chol,
    /// n_samples, rng))` — layout, bounds, and every probe — without the
    /// intermediate column copy. Infallible and panic-free.
    pub fn draw<R: Rng + ?Sized>(chol: &Cholesky<D>, n_samples: NonZeroUsize, rng: &mut R) -> Self {
        let n = n_samples.get();
        let normal = Ziggurat::new();
        let mut rows: Vec<Vector<D>> = Vec::with_capacity(n);
        let mut lo = [f64::INFINITY; D];
        let mut hi = [f64::NEG_INFINITY; D];
        for _ in 0..n {
            let w = draw_offset(&normal, chol, rng);
            widen_box(&mut lo, &mut hi, &w);
            rows.push(w);
        }
        Self::index(&rows, &lo, &hi)
    }

    /// Indexes an existing cloud (copying its offsets into cell order).
    /// Infallible and panic-free for every cloud [`SampleCloud::draw`]
    /// can build.
    pub fn build(cloud: &SampleCloud<D>) -> Self {
        let rows: Vec<Vector<D>> = (0..cloud.len()).filter_map(|i| cloud.get(i)).collect();
        let mut lo = [f64::INFINITY; D];
        let mut hi = [f64::NEG_INFINITY; D];
        for row in &rows {
            widen_box(&mut lo, &mut hi, row);
        }
        Self::index(&rows, &lo, &hi)
    }

    /// The shared build body over samples in draw order with their
    /// bounding box `[lo, hi]`. Min/max are exact and order-free, so the
    /// box — and with it every cell id — is the same however it was
    /// gathered.
    fn index(rows: &[Vector<D>], lo: &[f64; D], hi: &[f64; D]) -> Self {
        let n = rows.len();

        // Largest uniform per-axis resolution with res^D ≤ n / TARGET,
        // capped at MAX_RES and at u32::MAX cells (ids are u32) —
        // integer arithmetic only.
        let max_cells = usize::try_from(u32::MAX).unwrap_or(usize::MAX);
        let cells_target = (n / TARGET_PER_CELL).max(1).min(max_cells);
        let dim_exp = u32::try_from(D).unwrap_or(u32::MAX);
        let mut uniform_res = 1usize;
        while uniform_res < MAX_RES {
            let next = uniform_res + 1;
            match next.checked_pow(dim_exp) {
                Some(total) if total <= cells_target => uniform_res = next,
                _ => break,
            }
        }

        let mut res = [1usize; D];
        let mut inv_width = [0.0f64; D];
        let mut cells = 1usize;
        for d in 0..D {
            let extent = hi[d] - lo[d];
            if extent.is_finite() && extent > 0.0 {
                res[d] = uniform_res;
                let width = extent / uniform_res as f64;
                if width > f64::MIN_POSITIVE {
                    inv_width[d] = 1.0 / width;
                }
            }
            cells = cells.saturating_mul(res[d]);
        }
        let origin = *lo;

        // Pass 1: each sample's cell id (`cell = cell·res_d + slot_d`,
        // axis by axis) and the cell histogram, together. `cells` fits
        // in u32 by the sizing cap, so the narrowing never saturates.
        let mut ids: Vec<u32> = Vec::with_capacity(n);
        let mut cell_start = vec![0usize; cells + 1];
        for row in rows {
            let mut cell = 0usize;
            for (d, &x) in row.as_slice().iter().enumerate() {
                cell = cell * res[d] + grid_slot((x - origin[d]) * inv_width[d], res[d] - 1);
            }
            if let Some(count) = cell_start.get_mut(cell + 1) {
                *count += 1;
            }
            ids.push(u32::try_from(cell).unwrap_or(u32::MAX));
        }
        for c in 1..cell_start.len() {
            cell_start[c] += cell_start[c - 1];
        }

        // Pass 2: one scatter into cell order (stable: draw order within
        // a cell), widening the cell's tight bounds as each sample lands.
        let mut cursor = cell_start.clone();
        let mut cols: [Vec<f64>; D] = std::array::from_fn(|_| vec![0.0f64; n]);
        let mut cell_min = vec![f64::INFINITY; cells * D];
        let mut cell_max = vec![f64::NEG_INFINITY; cells * D];
        for (row, &id) in rows.iter().zip(&ids) {
            let c = usize::try_from(id).unwrap_or(usize::MAX);
            let Some(next) = cursor.get_mut(c) else {
                continue;
            };
            let p = *next;
            *next += 1;
            let base = c * D;
            for (d, (col, &v)) in cols.iter_mut().zip(row.as_slice()).enumerate() {
                if let Some(out) = col.get_mut(p) {
                    *out = v;
                }
                if let Some(m) = cell_min.get_mut(base + d) {
                    *m = m.min(v);
                }
                if let Some(m) = cell_max.get_mut(base + d) {
                    *m = m.max(v);
                }
            }
        }

        CloudGrid {
            cols,
            cell_start,
            cell_min,
            cell_max,
            res,
            origin,
            inv_width,
            len: n,
        }
    }

    /// Number of indexed samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the grid indexes no samples (unreachable via
    /// [`CloudGrid::draw`] or [`CloudGrid::build`] over a drawn cloud).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total grid cells (`∏ res`).
    pub fn cells(&self) -> usize {
        self.cell_start.len().saturating_sub(1)
    }

    /// Per-axis cell resolution.
    pub fn resolution(&self) -> [usize; D] {
        self.res
    }

    /// Counts offsets with `‖w − center‖ ≤ delta`, visiting only cells
    /// that can intersect the ball; `center` is the probe in offset
    /// space (`object − mean`). Exactly equals
    /// [`SampleCloud::count_within`] over the same offsets.
    // HOT-PATH: grid-indexed hit count (Phase 3 inner loop)
    pub fn count_within(&self, center: &Vector<D>, delta: f64) -> usize {
        let mut stats = CloudStats::default();
        self.count_within_stats(center, delta, &mut stats)
    }

    /// [`CloudGrid::count_within`] accumulating probe counters into
    /// `stats`. Debug-asserts `delta ≥ 0`.
    // HOT-PATH: grid-indexed hit count with probe counters (Phase 3)
    pub fn count_within_stats(
        &self,
        center: &Vector<D>,
        delta: f64,
        stats: &mut CloudStats,
    ) -> usize {
        debug_assert!(delta >= 0.0);
        let delta_sq = delta * delta;
        let mut lo = [0usize; D];
        let mut hi = [0usize; D];
        for (d, &c) in std::iter::zip(0..D, center.as_slice()) {
            match self.lookup_axis_range(d, c, delta) {
                Some((l, h)) => {
                    lo[d] = l;
                    hi[d] = h;
                }
                None => return 0,
            }
        }

        let mut idx = lo;
        let mut hits = 0usize;
        loop {
            let mut cell = 0usize;
            for (&r, &i) in std::iter::zip(&self.res, &idx) {
                cell = cell * r + i;
            }
            stats.cells_scanned += 1;
            let start = self.cell_start.get(cell).copied().unwrap_or(0);
            let end = self.cell_start.get(cell + 1).copied().unwrap_or(start);
            if end > start {
                // Farthest corner of the cell's *tight sample box*,
                // summed in the same dimension order as the kernel:
                // per-sample dsq ≤ this bound under monotone rounding,
                // so "corner inside ⇒ every sample inside" is exact.
                let base = cell * D;
                let mut corner = 0.0f64;
                for (d, &c) in std::iter::zip(0..D, center.as_slice()) {
                    let lo_diff = self.cell_min.get(base + d).copied().unwrap_or(0.0) - c;
                    let hi_diff = self.cell_max.get(base + d).copied().unwrap_or(0.0) - c;
                    let m = lo_diff.abs().max(hi_diff.abs());
                    corner += m * m;
                }
                if corner <= delta_sq {
                    stats.cells_inside += 1;
                    hits += end - start;
                } else {
                    stats.samples_tested += end - start;
                    hits += count_hits(&self.cols, start, end, center, delta_sq);
                }
            }
            // Odometer over the cell box, last axis fastest.
            let mut d = D;
            loop {
                if d == 0 {
                    return hits;
                }
                d -= 1;
                if idx[d] < hi[d] {
                    idx[d] += 1;
                    break;
                }
                idx[d] = lo[d];
            }
        }
    }

    /// Estimates `Pr(‖w − center‖ ≤ delta)` (offset-space probe) as the
    /// grid-counted hit fraction, accumulating probe counters — including
    /// the cloud size as this estimate's [`CloudStats::samples`] — into
    /// `stats`.
    // HOT-PATH: grid-indexed qualification probability (Phase 3)
    pub fn probability_with_stats(
        &self,
        center: &Vector<D>,
        delta: f64,
        stats: &mut CloudStats,
    ) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        stats.samples += self.len;
        self.count_within_stats(center, delta, stats) as f64 / self.len as f64
    }

    /// Estimates `Pr(‖w − center‖ ≤ delta)` (offset-space probe) as the
    /// grid-counted hit fraction of the cloud.
    pub fn probability(&self, center: &Vector<D>, delta: f64) -> f64 {
        let mut stats = CloudStats::default();
        self.probability_with_stats(center, delta, &mut stats)
    }

    // INVARIANT: the returned index range must cover every cell holding
    // a sample the linear kernel would count for (center, δ). The range
    // comes from the same floor((t − origin) · inv_width) transform that
    // assigned samples to cells — monotone in t — widened by one whole
    // cell on each side, which dwarfs the ≤ few-ulp slop between a
    // boundary sample's rounded distance and its rounded cell
    // coordinate. Over-covering only costs empty probes; under-covering
    // would drop hits, so the widening is never skipped.
    fn lookup_axis_range(&self, d: usize, center: f64, delta: f64) -> Option<(usize, usize)> {
        let max_index = self.res.get(d).copied().unwrap_or(1) - 1;
        let origin = self.origin.get(d).copied().unwrap_or(0.0);
        let inv_width = self.inv_width.get(d).copied().unwrap_or(0.0);
        let t_lo = ((center - delta) - origin) * inv_width;
        let t_hi = ((center + delta) - origin) * inv_width;
        if t_hi.floor() + 1.0 < 0.0 || t_lo.floor() - 1.0 > max_index as f64 {
            return None;
        }
        Some((
            grid_slot(t_lo - 1.0, max_index),
            grid_slot(t_hi + 1.0, max_index),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvn::Gaussian;
    use gprq_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    fn sigma_paper(gamma: f64) -> Matrix<2> {
        let s3 = 3.0f64.sqrt();
        Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(gamma)
    }

    #[test]
    fn cloud_matches_quadrature_oracle() {
        let g = Gaussian::new(Vector::from([100.0, 100.0]), sigma_paper(10.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(4242);
        let cloud = SampleCloud::draw(g.cholesky(), nz(200_000), &mut rng);
        assert_eq!(cloud.len(), 200_000);
        assert!(!cloud.is_empty());
        let center = Vector::from([110.0, 95.0]);
        let delta = 25.0;
        let exact = crate::integrate::quadrature_probability_2d(&g, &center, delta, 64, 128);
        let probe = center - *g.mean();
        let linear = cloud.probability(&probe, delta);
        assert!(
            (linear - exact).abs() < 0.006,
            "cloud {linear} vs exact {exact}"
        );
        let grid = CloudGrid::build(&cloud);
        assert_eq!(grid.probability(&probe, delta), linear);
    }

    #[test]
    fn cloud_monotone_in_delta() {
        let g = Gaussian::<2>::standard();
        let mut rng = StdRng::seed_from_u64(8);
        let grid = CloudGrid::draw(g.cholesky(), nz(50_000), &mut rng);
        let center = Vector::from([0.5, 0.5]);
        let mut prev = 0.0;
        for delta in [0.1, 0.5, 1.0, 2.0, 4.0] {
            let p = grid.probability(&center, delta);
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn prefix_ranges_sum_to_full_scan() {
        let g = Gaussian::new(Vector::from([5.0, -3.0]), sigma_paper(4.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let cloud = SampleCloud::draw(g.cholesky(), nz(10_000), &mut rng);
        let center = Vector::from([6.0, -2.0]) - *g.mean();
        let delta = 10.0;
        let full = cloud.count_within(&center, delta);
        for split in [0, 1, 255, 256, 257, 5_000, 9_999, 10_000] {
            let head = cloud.count_in_range(&center, delta, 0, split);
            let tail = cloud.count_in_range(&center, delta, split, 10_000);
            assert_eq!(head + tail, full, "split {split}");
        }
        // End clamping past the cloud is a no-op.
        assert_eq!(cloud.count_in_range(&center, delta, 0, usize::MAX), full);
    }

    #[test]
    fn draw_then_extend_equals_one_draw_bitwise() {
        // The ziggurat keeps no spare between draws, so splitting a draw
        // anywhere — including mid-vector in an odd dimension — consumes
        // the stream exactly like one draw of the total.
        let cov = Matrix::<3>::identity().scale(2.5);
        let g = Gaussian::new(Vector::from([1.0, 2.0, 3.0]), cov).unwrap();
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let whole = SampleCloud::draw(g.cholesky(), nz(2_001), &mut rng_a);
        let mut grown = SampleCloud::draw(g.cholesky(), nz(513), &mut rng_b);
        grown.extend(g.cholesky(), 1_488, &mut rng_b);
        assert_eq!(grown.len(), 2_001);
        for d in 0..3 {
            for i in 0..2_001 {
                assert_eq!(
                    whole.columns()[d][i].to_bits(),
                    grown.columns()[d][i].to_bits(),
                    "split draw diverges from one draw (d={d}, i={i})"
                );
            }
        }
    }

    #[test]
    fn get_roundtrips_samples() {
        let g = Gaussian::new(Vector::from([3.0, -1.0]), sigma_paper(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let cloud = SampleCloud::draw(g.cholesky(), nz(64), &mut rng);
        for i in 0..64 {
            let v = cloud.get(i).unwrap();
            for d in 0..2 {
                assert_eq!(v[d].to_bits(), cloud.columns()[d][i].to_bits());
            }
        }
        assert!(cloud.get(64).is_none());
    }

    #[test]
    fn grid_sizing_rule() {
        let g = Gaussian::<2>::standard();
        let mut rng = StdRng::seed_from_u64(5);
        // 100 000 samples / 16 per cell = 6 250 cells → res 79 in 2-D.
        let grid = CloudGrid::draw(g.cholesky(), nz(100_000), &mut rng);
        let res = grid.resolution();
        assert_eq!(res[0], res[1]);
        assert!(res[0] * res[0] <= 6_250);
        assert!((res[0] + 1) * (res[0] + 1) > 6_250);
        assert_eq!(grid.cells(), res[0] * res[1]);
        assert_eq!(grid.len(), 100_000);
        // Tiny clouds collapse to a single cell.
        let tiny = CloudGrid::draw(g.cholesky(), nz(3), &mut rng);
        assert_eq!(tiny.resolution(), [1, 1]);
    }

    #[test]
    fn inside_cells_skip_distance_tests_on_huge_delta() {
        let g = Gaussian::<2>::standard();
        let mut rng = StdRng::seed_from_u64(11);
        let grid = CloudGrid::draw(g.cholesky(), nz(20_000), &mut rng);
        let mut stats = CloudStats::default();
        let hits = grid.count_within_stats(&Vector::ZERO, 1e6, &mut stats);
        assert_eq!(hits, 20_000);
        assert!(stats.cells_inside > 0);
        assert_eq!(stats.samples_tested, 0, "no boundary cells at δ = 10⁶");
    }

    #[test]
    fn probability_counts_the_cloud_size_as_samples() {
        let g = Gaussian::<2>::standard();
        let mut rng = StdRng::seed_from_u64(12);
        let grid = CloudGrid::draw(g.cholesky(), nz(4_000), &mut rng);
        let mut stats = CloudStats::default();
        for delta in [0.5, 1.0, 2.0] {
            grid.probability_with_stats(&Vector::ZERO, delta, &mut stats);
        }
        assert_eq!(stats.samples, 3 * 4_000);
    }

    #[test]
    fn three_dimensional_grid_agrees_with_linear() {
        let g = Gaussian::new(
            Vector::from([1.0, -2.0, 0.5]),
            Matrix::<3>::identity().scale(4.0),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let cloud = SampleCloud::draw(g.cholesky(), nz(30_000), &mut rng);
        let grid = CloudGrid::build(&cloud);
        for (center, delta) in [
            (Vector::from([1.0, -2.0, 0.5]), 2.0),
            (Vector::from([0.0, 0.0, 0.0]), 4.5),
            (Vector::from([8.0, 3.0, -7.0]), 6.0),
        ] {
            let probe = center - *g.mean();
            assert_eq!(
                grid.count_within(&probe, delta),
                cloud.count_within(&probe, delta)
            );
        }
    }
}
