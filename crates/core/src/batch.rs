//! Batched query execution: N queries planned and run as **one unit**.
//!
//! The batch engine amortizes the three pipeline phases across queries
//! without changing a single answer bit:
//!
//! 1. **Fused Phase 1** — all Phase-1 rectangles descend the R\*-tree in
//!    one multi-rectangle traversal ([`Phase1Index::search_rects_into`]),
//!    probes sorted by rectangle origin so near-identical queries share
//!    node visits. Per-query candidates *and* [`SearchStats`] are
//!    bitwise identical to N solo descents (pinned by the rtree parity
//!    suite).
//! 2. **Fused Phase 2** — each query's candidates run through the same
//!    `PreparedQuery::filter_candidates` loop the solo executor uses.
//! 3. **Fused Phase 3** — queries sharing a covariance Σ share one
//!    finished [`CloudGrid`] over the mean-free offsets `w_j = L·z_j`
//!    from the [`SigmaFactorCache`] (a cache hit needs no draw and no
//!    grid build), and the whole batch's `(query, candidate)` work is
//!    flattened across the [`ParallelIntegrator`] worker pool.
//!
//! # The parity contract
//!
//! For every query `q` in the batch, the answer set, the qualification
//! probabilities, and the integer counters of [`QueryStats`] are
//! **bitwise identical** to the sequential
//!
//! ```ignore
//! PrqExecutor::execute(tree, q, &mut MonteCarloEvaluator::new(
//!     integrator.samples,
//!     cloud_seed(integrator.seed, q.gaussian()),
//! ))
//! ```
//!
//! run. This holds by construction, not by accident:
//!
//! * the per-query cloud seed ([`cloud_seed`]) mixes the base seed with
//!   the covariance bits only — so two same-Σ queries map to the same
//!   seed, hence the same `z`-stream, whether drawn fresh (solo) or once
//!   (cached grid);
//! * the grid lives in offset space: it is a pure function of
//!   `(L, samples, seed)` — the solo evaluator's `begin_query` runs the
//!   very same [`CloudGrid::draw`] — and never sees a mean, so a cached
//!   grid *is* the grid a solo run would build;
//! * both paths probe with the same offset `candidate − mean`, and grid
//!   probes are pure functions of (grid, offset, δ); the flattened
//!   worker partition never splits a sample stream.
//!
//! Estimator caveat (same as the PR-5 shared cloud, one level up):
//! same-Σ queries share one sample cloud, so their Monte-Carlo errors
//! are *correlated across queries*. Each per-candidate estimate is still
//! unbiased with unchanged variance.
//!
//! # Fault degradation
//!
//! Under the `fault-inject` feature, `QueryBatch::execute_with_faults`
//! consults `FaultSite::BatchAbort` once per query: a tripped query is
//! dropped from the fused Phase-3 pass and recovered through a solo
//! Phase-3 re-run with the same derived cloud seed — its answers are
//! bitwise identical, only its wall-clock differs — and is reported with
//! [`BatchOutcome::recovered`] set plus a `prq_batch_aborts_total` tick.
//! Unaffected queries never see the fault.
//!
//! [`SearchStats`]: gprq_rtree::SearchStats

use crate::error::PrqError;
use crate::executor::{PrqExecutor, QueryStats};
use crate::ext::parallel::{BatchPhase3Item, ParallelIntegrator};
use crate::metrics::{Phase, PipelineMetrics};
use crate::query::PrqQuery;
use gprq_gaussian::cloud::{CloudGrid, CloudStats};
use gprq_gaussian::Gaussian;
use gprq_linalg::Vector;
use gprq_rtree::{Phase1Index, Rect, SearchStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default Σ-group cache capacity (grids retained across batches). 32
/// grids of 50 000 samples ≈ 28 MB at D = 2 (offset columns plus cell
/// bounds) — small next to the tree, large enough that realistic
/// workloads (a handful of sensor models) never evict.
const DEFAULT_CACHE_CAPACITY: usize = 32;

/// Splitmix64 finalizer — the same mixer the fault planner and the
/// per-object seed derivation use, so seed streams stay decorrelated.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-query cloud seed: `base_seed` mixed with the bit patterns of
/// the covariance matrix — and **only** the covariance. The mean must
/// not enter: two queries sharing Σ must map to the same seed so the
/// cached grid is, bitwise, the grid a solo `MonteCarloEvaluator`
/// seeded with this value would build.
///
/// Consequence (documented, deliberate): same-Σ queries share one
/// `z`-stream, so their Monte-Carlo errors are correlated *across
/// queries* — the batch-level analogue of the PR-5 shared-cloud caveat.
pub fn cloud_seed<const D: usize>(base_seed: u64, gaussian: &Gaussian<D>) -> u64 {
    let cov = gaussian.covariance();
    let mut state = base_seed ^ 0x9E37_79B9_7F4A_7C15;
    for r in 0..D {
        for c in 0..D {
            state = splitmix(state ^ cov[(r, c)].to_bits());
        }
    }
    state
}

/// One cached Σ-group: the key (covariance bits, sample count, seed)
/// and the finished offset-space grid built from it.
#[derive(Debug)]
struct CacheEntry<const D: usize> {
    sigma_bits: Vec<u64>,
    samples: usize,
    seed: u64,
    grid: Arc<CloudGrid<D>>,
}

/// A keyed cache of finished offset-space cloud grids
/// ([`CloudGrid::draw`] over `w_j = L·z_j`), shared by every query whose
/// covariance matches bitwise.
///
/// Keying on the covariance *bits* (plus sample budget and seed) is
/// exact: identical Σ bits give an identical Cholesky factor (the
/// factorization is deterministic), hence an identical grid — the grid
/// never depends on a query mean. A hit hands out the cached grid
/// itself: no draw and no grid build. Eviction is FIFO and fully
/// deterministic; a rebuild after eviction reproduces the evicted grid
/// bitwise (same seed, same stream), so cache capacity can never change
/// an answer — only how often the draw and build are repeated.
#[derive(Debug)]
pub struct SigmaFactorCache<const D: usize> {
    capacity: usize,
    entries: Vec<CacheEntry<D>>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<const D: usize> SigmaFactorCache<D> {
    /// Creates a cache holding at most `capacity` grids (floored to 1 —
    /// a zero-capacity cache would still need one live grid to serve the
    /// current query).
    pub fn new(capacity: usize) -> Self {
        SigmaFactorCache {
            capacity: capacity.max(1),
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Cached grids currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no grid is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from a cached grid.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to draw and build a fresh grid.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Grids evicted by the FIFO policy.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The grid for `(Σ, samples, seed)`: the cached one on a hit (the
    /// same shared grid, with no draw and no build), or — on a miss —
    /// `CloudGrid::draw(L, samples, StdRng::seed_from_u64(seed))`,
    /// cached after a FIFO eviction if the cache is full. The returned
    /// handle outlives any later eviction.
    pub fn grid(
        &mut self,
        gaussian: &Gaussian<D>,
        samples: NonZeroUsize,
        seed: u64,
    ) -> Arc<CloudGrid<D>> {
        let cov = gaussian.covariance();
        let mut sigma_bits = Vec::with_capacity(D * D);
        for r in 0..D {
            for c in 0..D {
                sigma_bits.push(cov[(r, c)].to_bits());
            }
        }
        let n = samples.get();
        if let Some(entry) = self
            .entries
            .iter()
            .find(|e| e.sigma_bits == sigma_bits && e.samples == n && e.seed == seed)
        {
            self.hits += 1;
            return Arc::clone(&entry.grid);
        }
        self.misses += 1;
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
            self.evictions += 1;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let grid = Arc::new(CloudGrid::draw(gaussian.cholesky(), samples, &mut rng));
        self.entries.push(CacheEntry {
            sigma_bits,
            samples: n,
            seed,
            grid: Arc::clone(&grid),
        });
        grid
    }
}

/// Result of one query inside a batch — the batch analogue of
/// [`PrqOutcome`](crate::PrqOutcome), extended with the Phase-3 work
/// list and its probabilities so callers (and the parity suite) can see
/// exactly what was integrated.
#[derive(Debug)]
pub struct BatchOutcome<'t, const D: usize, T> {
    /// Objects satisfying `Pr(‖x − o‖ ≤ δ) ≥ θ` — BF sure-accepts first
    /// (candidate order), then Phase-3 qualifiers (work-list order),
    /// exactly as the solo executor emits them.
    pub answers: Vec<(&'t Vector<D>, &'t T)>,
    /// The Phase-3 work list (candidates that needed integration), in
    /// the order they were integrated.
    pub integrated: Vec<(&'t Vector<D>, &'t T)>,
    /// `probabilities[i]` is the qualification probability of
    /// `integrated[i]`.
    pub probabilities: Vec<f64>,
    /// Execution statistics. Integer counters match the solo run
    /// bitwise; phase times are the fused phase's wall-clock divided
    /// evenly across the batch (per-query attribution of shared work).
    pub stats: QueryStats,
    /// `true` when this query was dropped from the fused Phase-3 pass
    /// by a `FaultSite::BatchAbort` fault (`fault-inject`) and recovered
    /// through the solo re-run path (same seed — same answers).
    pub recovered: bool,
}

/// A batch execution engine: plans N queries and runs them as one unit
/// over a [`Phase1Index`], a [`ParallelIntegrator`], and a
/// [`SigmaFactorCache`], flushing per-query [`QueryStats`] into the
/// executor's [`PipelineMetrics`] exactly once
/// each (plus one `record_batch` per call).
///
/// ```
/// use gprq_core::ext::parallel::ParallelIntegrator;
/// use gprq_core::{PrqExecutor, PrqQuery, QueryBatch, StrategySet};
/// use gprq_linalg::{Matrix, Vector};
/// use gprq_rtree::{RStarParams, RTree};
///
/// let points: Vec<(Vector<2>, u32)> = (0..400)
///     .map(|i| (Vector::from([(i % 20) as f64 * 5.0, (i / 20) as f64 * 5.0]), i))
///     .collect();
/// let tree = RTree::bulk_load(points, RStarParams::paper_default(2));
/// let sigma = Matrix::identity().scale(15.0);
/// let queries: Vec<PrqQuery<2>> = (0..4)
///     .map(|i| {
///         PrqQuery::new(Vector::from([30.0 + i as f64 * 8.0, 40.0]), sigma, 12.0, 0.05).unwrap()
///     })
///     .collect();
/// let mut batch = QueryBatch::new(
///     PrqExecutor::new(StrategySet::ALL),
///     ParallelIntegrator::new(4_000, 7, 1).unwrap(),
/// );
/// let outcomes = batch.execute(&tree, &queries).unwrap();
/// assert_eq!(outcomes.len(), 4);
/// // Queries 1..4 share Σ with query 0: one cached grid serves all.
/// assert_eq!(batch.cache().misses(), 1);
/// assert_eq!(batch.cache().hits(), 3);
/// ```
#[derive(Debug)]
pub struct QueryBatch<'c, const D: usize> {
    executor: PrqExecutor<'c>,
    integrator: ParallelIntegrator,
    cache: SigmaFactorCache<D>,
}

impl<'c, const D: usize> QueryBatch<'c, D> {
    /// Creates a batch engine with the default Σ-cache capacity.
    ///
    /// The integrator's `samples`/`seed` define the sequential baseline
    /// the batch is parity-checked against (see the module docs); its
    /// `threads` only changes wall-clock, never bits.
    pub fn new(executor: PrqExecutor<'c>, integrator: ParallelIntegrator) -> Self {
        QueryBatch {
            executor,
            integrator,
            cache: SigmaFactorCache::new(DEFAULT_CACHE_CAPACITY),
        }
    }

    /// Overrides the Σ-cache capacity (floored to 1). Capacity affects
    /// only how often grids are re-built — never any answer.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = SigmaFactorCache::new(capacity);
        self
    }

    /// The Σ-group cache (hit/miss/eviction observability).
    pub fn cache(&self) -> &SigmaFactorCache<D> {
        &self.cache
    }

    /// The cloud seed this batch derives for `query` — the seed a solo
    /// `MonteCarloEvaluator` must use to reproduce the batched answer
    /// bitwise.
    pub fn cloud_seed_for(&self, query: &PrqQuery<D>) -> u64 {
        cloud_seed(self.integrator.seed, query.gaussian())
    }

    /// Executes `queries` as one batch. `outcomes[i]` answers
    /// `queries[i]`.
    ///
    /// # Errors
    ///
    /// Planning any query fails the whole batch (a misconfigured
    /// strategy set or θ-region is a caller bug, not a data condition):
    /// [`PrqError::NoPrimaryStrategy`],
    /// [`PrqError::ThetaRegionUndefined`], or
    /// [`PrqError::CatalogDimensionMismatch`] — the same preconditions
    /// as [`PrqExecutor::execute`].
    pub fn execute<'t, T, I>(
        &mut self,
        tree: &'t I,
        queries: &[PrqQuery<D>],
    ) -> Result<Vec<BatchOutcome<'t, D, T>>, PrqError>
    where
        I: Phase1Index<D, T>,
    {
        self.run(tree, queries, &mut || false)
    }

    /// [`QueryBatch::execute`] consulting `plan` at the
    /// [`FaultSite::BatchAbort`](crate::fault::FaultSite::BatchAbort)
    /// site once per query, in index order: tripped queries are dropped
    /// from the fused Phase-3 pass and recovered through the solo
    /// re-run path (same seed, bitwise-identical answers,
    /// [`BatchOutcome::recovered`] set). Untripped queries are
    /// unaffected.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`QueryBatch::execute`] — faults degrade
    /// individual queries, they never fail the batch.
    #[cfg(feature = "fault-inject")]
    pub fn execute_with_faults<'t, T, I>(
        &mut self,
        tree: &'t I,
        queries: &[PrqQuery<D>],
        plan: &mut crate::fault::FaultPlan,
    ) -> Result<Vec<BatchOutcome<'t, D, T>>, PrqError>
    where
        I: Phase1Index<D, T>,
    {
        self.run(tree, queries, &mut || {
            plan.trip(crate::fault::FaultSite::BatchAbort)
        })
    }

    /// The batch pipeline. `should_abort` is polled once per query, in
    /// index order, between Phase 2 and Phase 3 — the single
    /// fault-injection point — so fault scheduling never perturbs any
    /// seed stream.
    fn run<'t, T, I>(
        &mut self,
        tree: &'t I,
        queries: &[PrqQuery<D>],
        should_abort: &mut dyn FnMut() -> bool,
    ) -> Result<Vec<BatchOutcome<'t, D, T>>, PrqError>
    where
        I: Phase1Index<D, T>,
    {
        let n = queries.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let metrics = self.executor.metrics();
        let share = |total: Duration| total / u32::try_from(n).unwrap_or(u32::MAX);

        let plans = queries
            .iter()
            .map(|q| self.executor.plan(q))
            .collect::<Result<Vec<_>, _>>()?;

        // --- Fused Phase 1: one multi-rectangle descent. ---------------
        let span1 = metrics.map(|m| m.phase_span(Phase::Search));
        let t0 = Instant::now();
        let mut probes: Vec<(usize, Rect<D>)> = Vec::with_capacity(n);
        for (q, plan) in plans.iter().enumerate() {
            if let Some(rect) = plan.search_rect(&queries[q])? {
                probes.push((q, rect));
            }
        }
        // Sort probes by rectangle origin (lexicographic, total order)
        // so overlapping queries sit adjacently in the active set during
        // the shared descent; index tie-break keeps the order total and
        // deterministic. Per-query results are order-independent.
        probes.sort_by(|(qa, ra), (qb, rb)| {
            for d in 0..D {
                match ra.lo[d].total_cmp(&rb.lo[d]) {
                    Ordering::Equal => {}
                    other => return other,
                }
            }
            qa.cmp(qb)
        });
        let probe_rects: Vec<Rect<D>> = probes.iter().map(|&(_, r)| r).collect();
        let mut probe_stats = vec![SearchStats::default(); probes.len()];
        let mut probe_out: Vec<Vec<(&'t Vector<D>, &'t T)>> = vec![Vec::new(); probes.len()];
        tree.search_rects_into(&probe_rects, &mut probe_stats, &mut probe_out);

        let mut stats = vec![QueryStats::default(); n];
        let mut candidates: Vec<Vec<(&'t Vector<D>, &'t T)>> = (0..n).map(|_| Vec::new()).collect();
        for (slot, &(q, _)) in probes.iter().enumerate() {
            stats[q].absorb_search(&probe_stats[slot]);
            candidates[q] = std::mem::take(&mut probe_out[slot]);
        }
        let phase1_each = share(t0.elapsed());
        for (st, cand) in stats.iter_mut().zip(&candidates) {
            st.phase1_candidates = cand.len();
            st.phase1_time = phase1_each;
        }
        if let Some(span) = span1 {
            span.finish();
        }

        // --- Fused Phase 2: the solo filter loop, per query. -----------
        let span2 = metrics.map(|m| m.phase_span(Phase::Filter));
        let t1 = Instant::now();
        let mut answers: Vec<Vec<(&'t Vector<D>, &'t T)>> = (0..n).map(|_| Vec::new()).collect();
        let mut work: Vec<Vec<(&'t Vector<D>, &'t T)>> = (0..n).map(|_| Vec::new()).collect();
        for q in 0..n {
            plans[q].filter_candidates(
                &queries[q],
                &candidates[q],
                &mut stats[q],
                &mut answers[q],
                &mut work[q],
            );
        }
        let phase2_each = share(t1.elapsed());
        for st in &mut stats {
            st.phase2_time = phase2_each;
        }
        if let Some(span) = span2 {
            span.finish();
        }

        // --- Fault gate: one poll per query, in index order. -----------
        let aborted: Vec<bool> = (0..n).map(|_| should_abort()).collect();

        // --- Fused Phase 3: Σ-grouped clouds, flattened fan-out. -------
        let span3 = metrics.map(|m| m.phase_span(Phase::Integrate));
        let t2 = Instant::now();
        let budget = NonZeroUsize::new(self.integrator.samples).unwrap_or(NonZeroUsize::MIN);
        let live: Vec<usize> = (0..n).filter(|&q| !aborted[q]).collect();
        // Every live query consults the cache even with an empty work
        // list — the solo evaluator's `begin_query` builds
        // unconditionally, and `cloud_builds == 1` parity (plus
        // deterministic hit/miss accounting) depends on matching that.
        let hits_before = self.cache.hits();
        let misses_before = self.cache.misses();
        let grids: Vec<Arc<CloudGrid<D>>> = live
            .iter()
            .map(|&q| {
                let gaussian = queries[q].gaussian();
                let seed = cloud_seed(self.integrator.seed, gaussian);
                self.cache.grid(gaussian, budget, seed)
            })
            .collect();
        let count = |after: u64, before: u64| usize::try_from(after - before).unwrap_or(usize::MAX);
        let batch_hits = count(self.cache.hits(), hits_before);
        let batch_misses = count(self.cache.misses(), misses_before);
        let fused = self.probe(queries, &work, &live, &grids, metrics);
        drop(grids);

        // --- Recovery: aborted queries re-run on a fresh grid. ---------
        // Same seed, so the same grid as the cached one; the worker
        // pool's probes are pure, so the same bits as the fused pass.
        let recovering: Vec<usize> = (0..n).filter(|&q| aborted[q]).collect();
        let fresh: Vec<Arc<CloudGrid<D>>> = recovering
            .iter()
            .map(|&q| {
                if let Some(m) = metrics {
                    m.record_batch_abort();
                }
                let gaussian = queries[q].gaussian();
                let mut rng = StdRng::seed_from_u64(cloud_seed(self.integrator.seed, gaussian));
                Arc::new(CloudGrid::draw(gaussian.cholesky(), budget, &mut rng))
            })
            .collect();
        let recovered = self.probe(queries, &work, &recovering, &fresh, metrics);

        let mut probabilities: Vec<Vec<f64>> = (0..n).map(|_| Vec::new()).collect();
        let runs = live
            .iter()
            .zip(fused)
            .chain(recovering.iter().zip(recovered));
        for (&q, (pvec, mut cs)) in runs {
            stats[q].integrations = work[q].len();
            // The solo evaluator counts its one grid build in
            // `begin_query`; attribute the (possibly cached) grid here.
            cs.builds = 1;
            stats[q].absorb_cloud(&cs);
            stats[q].phase3_samples = cs.samples;
            for (j, &(point, data)) in work[q].iter().enumerate() {
                if pvec[j] >= queries[q].theta() {
                    answers[q].push((point, data));
                }
            }
            probabilities[q] = pvec;
        }
        let phase3_each = share(t2.elapsed());
        for st in &mut stats {
            st.phase3_time = phase3_each;
        }
        if let Some(span) = span3 {
            span.finish();
        }

        // --- Flush: once per query, in index order, plus the batch. ----
        let mut outcomes = Vec::with_capacity(n);
        for (q, ((st, ans), (intg, prob))) in stats
            .iter_mut()
            .zip(answers)
            .zip(work.into_iter().zip(probabilities))
            .enumerate()
        {
            st.answers = ans.len();
            if let Some(m) = metrics {
                m.record_query(st);
                m.record_phase3_objects(budget.get(), st.integrations);
            }
            outcomes.push(BatchOutcome {
                answers: ans,
                integrated: intg,
                probabilities: prob,
                stats: *st,
                recovered: aborted[q],
            });
        }
        if let Some(m) = metrics {
            m.record_batch(n, batch_hits, batch_misses);
        }
        Ok(outcomes)
    }

    /// Probes the grid of each query in `listed` (`grids[i]` serves
    /// `listed[i]`) with that query's work list, fanned out over the
    /// worker pool in one [`ParallelIntegrator::batch_probabilities`]
    /// call: per listed query, the probabilities in work-list order and
    /// the probe statistics.
    fn probe<T>(
        &self,
        queries: &[PrqQuery<D>],
        work: &[Vec<(&Vector<D>, &T)>],
        listed: &[usize],
        grids: &[Arc<CloudGrid<D>>],
        metrics: Option<&PipelineMetrics>,
    ) -> impl Iterator<Item = (Vec<f64>, CloudStats)> {
        // Probes run in offset space: `candidate − mean`, exactly as the
        // solo evaluator forms them.
        let centers: Vec<Vec<Vector<D>>> = listed
            .iter()
            .map(|&q| {
                let mean = *queries[q].gaussian().mean();
                work[q].iter().map(|&(p, _)| *p - mean).collect()
            })
            .collect();
        let items: Vec<BatchPhase3Item<'_, D>> = listed
            .iter()
            .zip(grids.iter().zip(&centers))
            .map(|(&q, (grid, candidates))| BatchPhase3Item {
                grid,
                candidates,
                delta: queries[q].delta(),
            })
            .collect();
        let (probs, stats) = self.integrator.batch_probabilities(&items, metrics);
        probs.into_iter().zip(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::MonteCarloEvaluator;
    use crate::strategy::StrategySet;
    use gprq_linalg::Matrix;
    use gprq_rtree::{RStarParams, RTree};
    use rand::Rng;

    fn random_tree(n: usize, seed: u64) -> RTree<2, usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let points = (0..n)
            .map(|i| {
                (
                    Vector::from([rng.gen::<f64>() * 1000.0, rng.gen::<f64>() * 1000.0]),
                    i,
                )
            })
            .collect();
        RTree::bulk_load(points, RStarParams::paper_default(2))
    }

    fn sigma(gamma: f64) -> Matrix<2> {
        let s3 = 3.0f64.sqrt();
        Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(gamma)
    }

    #[test]
    fn cloud_seed_depends_on_covariance_only() {
        let a = Gaussian::new(Vector::from([1.0, 2.0]), sigma(5.0)).unwrap();
        let b = Gaussian::new(Vector::from([-900.0, 431.5]), sigma(5.0)).unwrap();
        let c = Gaussian::new(Vector::from([1.0, 2.0]), sigma(5.000001)).unwrap();
        assert_eq!(
            cloud_seed(42, &a),
            cloud_seed(42, &b),
            "mean must not enter"
        );
        assert_ne!(cloud_seed(42, &a), cloud_seed(42, &c), "Σ must enter");
        assert_ne!(
            cloud_seed(42, &a),
            cloud_seed(43, &a),
            "base seed must enter"
        );
    }

    #[test]
    fn cache_fifo_eviction_is_deterministic_and_rebuilds_bitwise() {
        let mut cache: SigmaFactorCache<2> = SigmaFactorCache::new(2);
        let n = NonZeroUsize::new(64).unwrap();
        let gauss = |g: f64| Gaussian::new(Vector::from([0.0, 0.0]), sigma(g)).unwrap();
        let first = cache.grid(&gauss(1.0), n, 7);
        assert_eq!(cache.misses(), 1);
        let again = cache.grid(&gauss(1.0), n, 7);
        assert_eq!(cache.hits(), 1, "second lookup hits");
        assert!(Arc::ptr_eq(&first, &again), "a hit serves the cached grid");
        cache.grid(&gauss(2.0), n, 8);
        cache.grid(&gauss(3.0), n, 9); // evicts γ=1.0 (FIFO)
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        let rebuilt = cache.grid(&gauss(1.0), n, 7);
        assert!(!Arc::ptr_eq(&first, &rebuilt), "evicted entry must miss");
        assert!(
            *first == *rebuilt,
            "rebuild after eviction must be identical"
        );
        assert_eq!((cache.hits(), cache.misses()), (1, 4));
    }

    #[test]
    fn batch_matches_solo_executor_bitwise() {
        let tree = random_tree(5_000, 21);
        let shared = sigma(10.0);
        let queries: Vec<PrqQuery<2>> = vec![
            PrqQuery::new(Vector::from([500.0, 500.0]), shared, 25.0, 0.01).unwrap(),
            PrqQuery::new(Vector::from([480.0, 510.0]), shared, 25.0, 0.05).unwrap(),
            PrqQuery::new(Vector::from([200.0, 800.0]), sigma(4.0), 30.0, 0.10).unwrap(),
            // Far-off-grid query: empty work list, still builds one cloud.
            PrqQuery::new(Vector::from([-5_000.0, -5_000.0]), shared, 10.0, 0.20).unwrap(),
        ];
        let executor = PrqExecutor::new(StrategySet::ALL);
        let integrator = ParallelIntegrator::new(10_000, 99, 2).unwrap();
        let mut batch = QueryBatch::new(executor, integrator);
        let outcomes = batch.execute(&tree, &queries).unwrap();

        for (q, (query, outcome)) in queries.iter().zip(&outcomes).enumerate() {
            let seed = batch.cloud_seed_for(query);
            let mut eval = MonteCarloEvaluator::new(10_000, seed);
            let solo = executor.execute(&tree, query, &mut eval).unwrap();
            let batch_ids: Vec<usize> = outcome.answers.iter().map(|(_, d)| **d).collect();
            let solo_ids: Vec<usize> = solo.answers.iter().map(|(_, d)| **d).collect();
            assert_eq!(batch_ids, solo_ids, "answer sets diverge for query {q}");
            assert_eq!(outcome.stats.integrations, solo.stats.integrations);
            assert_eq!(outcome.stats.cloud_builds, solo.stats.cloud_builds);
            assert_eq!(
                outcome.stats.cloud_samples_tested,
                solo.stats.cloud_samples_tested
            );
            assert_eq!(outcome.stats.node_accesses, solo.stats.node_accesses);
            assert_eq!(outcome.stats.answers, solo.stats.answers);
            assert!(!outcome.recovered);
        }
        // Queries 0, 1, 3 share Σ: one miss serves three lookups.
        assert_eq!(batch.cache().misses(), 2);
        assert_eq!(batch.cache().hits(), 2);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let tree = random_tree(100, 31);
        let mut batch: QueryBatch<'_, 2> = QueryBatch::new(
            PrqExecutor::new(StrategySet::ALL),
            ParallelIntegrator::new(100, 1, 1).unwrap(),
        );
        let outcomes: Vec<BatchOutcome<'_, 2, usize>> = batch.execute(&tree, &[]).unwrap();
        assert!(outcomes.is_empty());
        assert!(batch.cache().is_empty());
    }
}
