//! The three-phase query executor (paper §III-B, Algorithms 1 & 2).
//!
//! 1. **Index-based search** — an R\*-tree rectangle query over the
//!    Phase-1 region (RR's Minkowski box, or BF's `α∥` box when RR is not
//!    in the strategy set);
//! 2. **Filtering** — the RR fringe test, the OR oblique-box test, and
//!    the BF distance classification (reject beyond `α∥`, *accept without
//!    integration* within `α⊥`), in that order (cheapest first);
//! 3. **Probability computation** — numerical integration for the
//!    survivors, keeping those with probability `≥ θ`.
//!
//! [`QueryStats`] records everything the paper's tables report: per-phase
//! wall-clock times, candidate counts, and the number of numerical
//! integrations (the dominant cost, "at least 97% of the total processing
//! time", §V-B).

use crate::error::PrqError;
use crate::evaluator::{EvalFailure, ProbabilityEvaluator};
use crate::metrics::{Phase, PipelineMetrics};
use crate::query::PrqQuery;
use crate::resilience::{
    BudgetScope, DegradationReason, ResilientOutcome, Safeguards, TerminalStrategy, UncertainCause,
    UncertainObject, Verdict,
};
use crate::strategy::bf::{BfBounds, BfClass};
use crate::strategy::or::OrFilter;
use crate::strategy::rr::{FringeMode, RrFilter};
use crate::strategy::StrategySet;
use crate::theta_region::ThetaRegion;
use crate::ucatalog::{BfCatalog, RrCatalog};
use gprq_linalg::Vector;
use gprq_rtree::{Phase1Index, Rect, SearchStats, OLC_DEPTH_BUCKETS};
use std::time::{Duration, Instant};

#[cfg(feature = "fault-inject")]
use crate::fault::FaultSite;

/// Statistics for one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    /// Candidates returned by the Phase-1 index search.
    pub phase1_candidates: usize,
    /// R-tree nodes visited in Phase 1.
    pub node_accesses: usize,
    /// Leaf records tested against the Phase-1 rectangle
    /// (`SearchStats::entries_checked`) — the index's read amplification.
    pub leaf_hits: usize,
    /// Candidates pruned by the RR fringe filter.
    pub pruned_by_fringe: usize,
    /// Candidates the OR filter rotated into the covariance eigenbasis
    /// (every OR test costs one rotation, pass or prune).
    pub or_rotations: usize,
    /// Candidates pruned by the OR oblique-box filter.
    pub pruned_by_or: usize,
    /// Candidates pruned by the BF reject radius `α∥`.
    pub pruned_by_bf: usize,
    /// Candidates accepted by the BF accept radius `α⊥` **without**
    /// numerical integration.
    pub accepted_without_integration: usize,
    /// Numerical integrations performed (the paper's "number of
    /// candidates", Tables II–III).
    pub integrations: usize,
    /// Final answer-set size (the ANS column).
    pub answers: usize,
    /// Monte-Carlo samples behind the Phase-3 estimates, summed over
    /// integrated objects. A shared-cloud estimate is a hit fraction over
    /// the whole cloud, so each object counts the cloud size; the
    /// budgeted resilient path counts the samples it actually consumed,
    /// so the early-termination saving is measurable. Zero for
    /// deterministic evaluators.
    pub phase3_samples: usize,
    /// Phase-3 integrations that stopped before their full sample budget
    /// because the confidence interval already cleared `θ`.
    pub early_terminations: usize,
    /// Objects the budgeted path could not classify before exhausting
    /// its budget (reported as explicit [`Verdict::Uncertain`], never
    /// silently guessed).
    ///
    /// [`Verdict::Uncertain`]: crate::resilience::Verdict::Uncertain
    pub uncertain: usize,
    /// Shared sample clouds built for Phase 3 (normally one per query
    /// on the cloud path; zero for deterministic evaluators).
    pub cloud_builds: usize,
    /// Grid cells visited while answering cloud probabilities.
    pub cloud_cells_scanned: usize,
    /// Visited cells classified fully inside `B(center, δ)` — their
    /// samples counted without a distance test.
    pub cloud_cells_inside: usize,
    /// Cloud samples that ran the SoA distance kernel (boundary cells).
    pub cloud_samples_tested: usize,
    /// Optimistic (OLC) node-read attempts in Phase 1. Zero for the
    /// single-writer [`RTree`](gprq_rtree::RTree); the concurrent tree
    /// counts one per capture/validate round.
    pub olc_attempts: usize,
    /// OLC attempts that failed validation (or found the node
    /// write-locked) and were retried by the contention ladder.
    pub olc_retries: usize,
    /// Phase-1 traversals that exhausted the optimistic ladder and
    /// degraded to the pessimistic (writer-excluding) fallback path.
    pub olc_pessimistic_fallbacks: usize,
    /// Log₂ histogram of per-node retry depth: bucket 0 counts
    /// first-attempt validations, bucket `i ≥ 1` counts reads that
    /// needed `2^(i−1) ≤ retries < 2^i` (last bucket saturates).
    pub olc_retry_depth: [usize; OLC_DEPTH_BUCKETS],
    /// Phase-1 wall-clock time.
    pub phase1_time: Duration,
    /// Phase-2 wall-clock time.
    pub phase2_time: Duration,
    /// Phase-3 wall-clock time.
    pub phase3_time: Duration,
}

impl QueryStats {
    /// Total wall-clock time across the three phases.
    pub fn total_time(&self) -> Duration {
        self.phase1_time + self.phase2_time + self.phase3_time
    }

    /// Accumulates `other` into `self`, field by field — the single
    /// aggregation point for batch drivers and monitoring sessions.
    pub fn merge(&mut self, other: &QueryStats) {
        self.phase1_candidates += other.phase1_candidates;
        self.node_accesses += other.node_accesses;
        self.leaf_hits += other.leaf_hits;
        self.pruned_by_fringe += other.pruned_by_fringe;
        self.or_rotations += other.or_rotations;
        self.pruned_by_or += other.pruned_by_or;
        self.pruned_by_bf += other.pruned_by_bf;
        self.accepted_without_integration += other.accepted_without_integration;
        self.integrations += other.integrations;
        self.answers += other.answers;
        self.phase3_samples += other.phase3_samples;
        self.early_terminations += other.early_terminations;
        self.uncertain += other.uncertain;
        self.cloud_builds += other.cloud_builds;
        self.cloud_cells_scanned += other.cloud_cells_scanned;
        self.cloud_cells_inside += other.cloud_cells_inside;
        self.cloud_samples_tested += other.cloud_samples_tested;
        self.olc_attempts += other.olc_attempts;
        self.olc_retries += other.olc_retries;
        self.olc_pessimistic_fallbacks += other.olc_pessimistic_fallbacks;
        for (mine, theirs) in self.olc_retry_depth.iter_mut().zip(other.olc_retry_depth) {
            *mine += theirs;
        }
        self.phase1_time += other.phase1_time;
        self.phase2_time += other.phase2_time;
        self.phase3_time += other.phase3_time;
    }

    /// Flushes a Phase-1 [`SearchStats`] into the index-side fields
    /// (overwriting, not accumulating — the executor calls this once
    /// per query on freshly zeroed stats).
    pub(crate) fn absorb_search(&mut self, search: &SearchStats) {
        self.node_accesses = search.nodes_visited;
        self.leaf_hits = search.entries_checked;
        self.olc_attempts = search.olc_attempts;
        self.olc_retries = search.olc_retries;
        self.olc_pessimistic_fallbacks = search.olc_fallbacks;
        self.olc_retry_depth = search.olc_retry_depth;
    }

    /// Absorbs a drained [`CloudStats`] block into the cloud fields —
    /// the single bridge between the evaluator-side statistics and the
    /// per-query record.
    ///
    /// [`CloudStats`]: gprq_gaussian::cloud::CloudStats
    pub fn absorb_cloud(&mut self, cloud: &gprq_gaussian::cloud::CloudStats) {
        self.cloud_builds += cloud.builds;
        self.cloud_cells_scanned += cloud.cells_scanned;
        self.cloud_cells_inside += cloud.cells_inside;
        self.cloud_samples_tested += cloud.samples_tested;
    }
}

/// Result of a query: answer records (borrowed from the tree) plus stats.
#[derive(Debug)]
pub struct PrqOutcome<'t, const D: usize, T> {
    /// Objects satisfying `Pr(‖x − o‖ ≤ δ) ≥ θ`.
    pub answers: Vec<(&'t Vector<D>, &'t T)>,
    /// Execution statistics.
    pub stats: QueryStats,
}

/// Reusable intermediate buffers for [`PrqExecutor::execute_with_scratch`].
///
/// The executor's Phase-1 candidate set and Phase-3 work list are the
/// only per-query allocations besides the returned answer vector; a
/// batch driver (the experiment harness runs 30-query workloads per
/// table cell) keeps one scratch per tree borrow and amortizes them.
#[derive(Debug, Default)]
pub struct QueryScratch<'t, const D: usize, T> {
    candidates: Vec<(&'t Vector<D>, &'t T)>,
    to_integrate: Vec<(&'t Vector<D>, &'t T)>,
}

impl<'t, const D: usize, T> QueryScratch<'t, D, T> {
    /// Creates empty scratch buffers (no allocation until first use).
    pub fn new() -> Self {
        QueryScratch {
            candidates: Vec::new(),
            to_integrate: Vec::new(),
        }
    }

    /// The Phase-3 work list produced by
    /// [`PrqExecutor::collect_candidates`].
    pub(crate) fn work_list(&self) -> &[(&'t Vector<D>, &'t T)] {
        &self.to_integrate
    }

    /// Mutable access to the Phase-3 work list, for fallback paths that
    /// build it directly (the naive full scan).
    pub(crate) fn naive_work_list(&mut self) -> &mut Vec<(&'t Vector<D>, &'t T)> {
        &mut self.to_integrate
    }
}

/// Configured query executor.
///
/// ```
/// use gprq_core::{PrqExecutor, PrqQuery, StrategySet, MonteCarloEvaluator};
/// use gprq_linalg::{Matrix, Vector};
/// use gprq_rtree::{RTree, RStarParams};
///
/// let points: Vec<(Vector<2>, u32)> = (0..500)
///     .map(|i| (Vector::from([(i % 25) as f64 * 4.0, (i / 25) as f64 * 5.0]), i))
///     .collect();
/// let tree = RTree::bulk_load(points, RStarParams::paper_default(2));
/// let query = PrqQuery::new(
///     Vector::from([50.0, 50.0]),
///     Matrix::identity().scale(20.0),
///     10.0,
///     0.05,
/// ).unwrap();
/// let executor = PrqExecutor::new(StrategySet::ALL);
/// let mut eval = MonteCarloEvaluator::new(20_000, 42);
/// let outcome = executor.execute(&tree, &query, &mut eval).unwrap();
/// assert!(outcome.stats.integrations <= outcome.stats.phase1_candidates);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PrqExecutor<'c> {
    pub(crate) strategies: StrategySet,
    fringe_mode: FringeMode,
    pub(crate) rr_catalog: Option<&'c RrCatalog>,
    pub(crate) bf_catalog: Option<&'c BfCatalog>,
    metrics: Option<&'c PipelineMetrics>,
}

impl<'c> PrqExecutor<'c> {
    /// An executor computing all radii exactly (as the paper's own
    /// experiments do, §V-A).
    pub fn new(strategies: StrategySet) -> Self {
        PrqExecutor {
            strategies,
            fringe_mode: FringeMode::PaperFaithful,
            rr_catalog: None,
            bf_catalog: None,
            metrics: None,
        }
    }

    /// Attaches a [`PipelineMetrics`] handle: phase spans and per-query
    /// counter flushes record into it. Without one, execution carries no
    /// instrumentation cost at all.
    pub fn with_metrics(mut self, metrics: &'c PipelineMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Overrides the fringe-filter mode (see [`FringeMode`]).
    pub fn with_fringe_mode(mut self, mode: FringeMode) -> Self {
        self.fringe_mode = mode;
        self
    }

    /// Uses a U-catalog for the θ-region radius (paper Algorithm 1,
    /// line 4) instead of the exact chi quantile; falls back to exact
    /// when the catalog has no safe entry.
    pub fn with_rr_catalog(mut self, catalog: &'c RrCatalog) -> Self {
        self.rr_catalog = Some(catalog);
        self
    }

    /// Uses a U-catalog for the BF radii (paper Eqs. 32–33).
    pub fn with_bf_catalog(mut self, catalog: &'c BfCatalog) -> Self {
        self.bf_catalog = Some(catalog);
        self
    }

    /// The configured strategy set.
    pub fn strategies(&self) -> StrategySet {
        self.strategies
    }

    /// The attached metrics handle, if any — shared with the batch
    /// executor so fused phases record into the same pipeline.
    pub(crate) fn metrics(&self) -> Option<&'c PipelineMetrics> {
        self.metrics
    }

    /// Executes the query against a Phase-1 index of exact target
    /// objects — the single-writer [`RTree`](gprq_rtree::RTree) or the
    /// lock-free-read [`ConcurrentRTree`](gprq_rtree::ConcurrentRTree)
    /// (any [`Phase1Index`]).
    ///
    /// # Errors
    ///
    /// * [`PrqError::NoPrimaryStrategy`] for an OR-only strategy set,
    /// * [`PrqError::ThetaRegionUndefined`] if RR or OR is enabled with
    ///   `θ ≥ 1/2` (BF-only sets still work there).
    pub fn execute<'t, const D: usize, T, I, E>(
        &self,
        tree: &'t I,
        query: &PrqQuery<D>,
        evaluator: &mut E,
    ) -> Result<PrqOutcome<'t, D, T>, PrqError>
    where
        I: Phase1Index<D, T>,
        E: ProbabilityEvaluator<D>,
    {
        let mut scratch = QueryScratch::new();
        self.execute_with_scratch(tree, query, evaluator, &mut scratch)
    }

    /// [`PrqExecutor::execute`] reusing caller-owned intermediate
    /// buffers; results are identical. Use from per-query loops.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`PrqExecutor::execute`], plus
    /// [`PrqError::CatalogDimensionMismatch`] when a configured BF
    /// catalog was built for a different dimension.
    pub fn execute_with_scratch<'t, const D: usize, T, I, E>(
        &self,
        tree: &'t I,
        query: &PrqQuery<D>,
        evaluator: &mut E,
        scratch: &mut QueryScratch<'t, D, T>,
    ) -> Result<PrqOutcome<'t, D, T>, PrqError>
    where
        I: Phase1Index<D, T>,
        E: ProbabilityEvaluator<D>,
    {
        let mut stats = QueryStats::default();
        let mut answers: Vec<(&'t Vector<D>, &'t T)> = Vec::new();
        self.collect_candidates(tree, query, scratch, &mut stats, &mut answers)?;
        let mut outcome = ResilientOutcome::entering_phase3(
            TerminalStrategy::Filtered(self.strategies),
            stats,
            answers,
        );
        phase3(
            query,
            &scratch.to_integrate,
            evaluator,
            &mut Safeguards::default(),
            self.metrics,
            &mut outcome,
        );
        Ok(PrqOutcome {
            answers: outcome.answers,
            stats: outcome.stats,
        })
    }

    /// Phases 1 and 2 (index search + filtering), shared between the
    /// plain path above and the resilient path: fills
    /// `scratch.to_integrate` with the Phase-3 work list, appends BF
    /// sure-accepts to `answers`, and records Phase-1/2 statistics.
    ///
    /// # Errors
    ///
    /// Same preconditions as [`PrqExecutor::execute_with_scratch`]:
    /// [`PrqError::NoPrimaryStrategy`], [`PrqError::ThetaRegionUndefined`],
    /// or [`PrqError::CatalogDimensionMismatch`].
    pub(crate) fn collect_candidates<'t, const D: usize, T, I>(
        &self,
        tree: &'t I,
        query: &PrqQuery<D>,
        scratch: &mut QueryScratch<'t, D, T>,
        stats: &mut QueryStats,
        answers: &mut Vec<(&'t Vector<D>, &'t T)>,
    ) -> Result<(), PrqError>
    where
        I: Phase1Index<D, T>,
    {
        let plan = self.plan(query)?;

        // --- Phase 1: index-based search. ------------------------------
        let span1 = self.metrics.map(|m| m.phase_span(Phase::Search));
        let t0 = Instant::now();
        let search_rect = plan.search_rect(query)?;
        let QueryScratch {
            candidates,
            to_integrate,
        } = scratch;
        candidates.clear();
        to_integrate.clear();
        if let Some(rect) = search_rect {
            let mut search_stats = SearchStats::default();
            tree.search_rect_into(&rect, &mut search_stats, candidates);
            stats.absorb_search(&search_stats);
        }
        stats.phase1_candidates = candidates.len();
        stats.phase1_time = t0.elapsed();
        if let Some(span) = span1 {
            span.finish();
        }

        // --- Phase 2: filtering. ---------------------------------------
        let span2 = self.metrics.map(|m| m.phase_span(Phase::Filter));
        let t1 = Instant::now();
        plan.filter_candidates(query, candidates, stats, answers, to_integrate);
        stats.phase2_time = t1.elapsed();
        if let Some(span) = span2 {
            span.finish();
        }
        Ok(())
    }

    /// Builds the per-query [`PreparedQuery`] — strategy validation plus the
    /// owned θ-region and BF bounds — shared by the solo path above and
    /// the batch executor (`crate::batch`), so both run Phases 1–2
    /// through the identical code.
    ///
    /// # Errors
    ///
    /// [`PrqError::NoPrimaryStrategy`],
    /// [`PrqError::ThetaRegionUndefined`], or
    /// [`PrqError::CatalogDimensionMismatch`] — the same preconditions
    /// as [`PrqExecutor::execute`].
    pub(crate) fn plan<const D: usize>(
        &self,
        query: &PrqQuery<D>,
    ) -> Result<PreparedQuery<D>, PrqError> {
        self.strategies.validate()?;
        let needs_region = self.strategies.rr || self.strategies.or;
        let region: Option<ThetaRegion<D>> = if needs_region {
            let r_theta = match self.rr_catalog {
                Some(cat) => {
                    debug_assert_eq!(cat.dim(), D);
                    match cat.lookup(query.theta()) {
                        Some(r) => r,
                        None => crate::theta_region::r_theta_exact::<D>(query.theta())?,
                    }
                }
                None => crate::theta_region::r_theta_exact::<D>(query.theta())?,
            };
            Some(ThetaRegion::with_r_theta(query, r_theta)?)
        } else {
            None
        };
        let bf_bounds: Option<BfBounds<D>> = if self.strategies.bf {
            Some(match self.bf_catalog {
                Some(cat) => BfBounds::from_catalog(query, cat)?,
                None => BfBounds::exact(query),
            })
        } else {
            None
        };
        Ok(PreparedQuery {
            strategies: self.strategies,
            fringe_mode: self.fringe_mode,
            region,
            bf_bounds,
        })
    }
}

/// Phase 3 — probability computation (§III-B) — the one stage every
/// execution path runs: integrates each object of `work` through
/// [`ProbabilityEvaluator::evaluate`] and appends the accepted ones to
/// `out.answers`.
///
/// It owns the whole stage: one `begin_query`, the candidate and
/// total-sample caps of `safeguards.budget` (objects past a cap are
/// reported [`UncertainCause::NotEvaluated`], never dropped), the
/// uncertain list, the `SampleStarvation` and `Evaluator` fault sites,
/// one `take_cloud_stats` flush, the `phase3_samples` count, and the
/// per-query metrics writes (`record_query`, the per-object sample
/// histogram, `record_report`).
///
/// Samples reach the count by one of two routes: per object through
/// [`EvalReport::samples`](crate::evaluator::EvalReport) (sequential
/// evaluators; these are what the total cap meters), or per query
/// through the evaluator's cloud statistics (the shared cloud). Objects
/// that report none split the cloud's samples evenly, in one histogram
/// write per query, so the fixed-budget path stays uninstrumented per
/// object.
pub(crate) fn phase3<'t, const D: usize, T, E>(
    query: &PrqQuery<D>,
    work: &[(&'t Vector<D>, &'t T)],
    evaluator: &mut E,
    safeguards: &mut Safeguards,
    metrics: Option<&PipelineMetrics>,
    out: &mut ResilientOutcome<'t, D, T>,
) where
    E: ProbabilityEvaluator<D>,
{
    let budget = safeguards.budget;
    let span = metrics.map(|m| m.phase_span(Phase::Integrate));
    let t = Instant::now();
    evaluator.begin_query(query.gaussian());
    let (evaluated, skipped) = work.split_at(work.len().min(budget.max_candidates));
    // Samples reported per object, and the objects that reported none.
    let mut reported = 0usize;
    let mut unreported = 0usize;
    let mut faulted = 0usize;
    let mut starved = 0usize;
    let uncertain = |point, data, estimate, cause| UncertainObject {
        point,
        data,
        estimate,
        cause,
    };
    for &(point, data) in evaluated {
        // Per-object grant, capped by what is left of the total. An
        // evaluator may report more than it was granted, so the
        // subtraction saturates.
        #[cfg_attr(not(feature = "fault-inject"), allow(unused_mut))]
        let mut grant = budget
            .max_samples_per_object
            .min(budget.max_total_samples.saturating_sub(reported));
        #[cfg(feature = "fault-inject")]
        let injected = {
            if safeguards.trips(FaultSite::SampleStarvation) {
                grant = 0;
            }
            safeguards.trips(FaultSite::Evaluator)
        };
        #[cfg(not(feature = "fault-inject"))]
        let injected = false;
        let result = if injected {
            Err(EvalFailure::Injected)
        } else {
            evaluator.evaluate(query.gaussian(), point, query.delta(), query.theta(), grant)
        };
        match result {
            Ok(rep) => {
                out.stats.integrations += 1;
                reported = reported.saturating_add(rep.samples);
                if rep.samples == 0 {
                    unreported += 1;
                } else if let Some(m) = metrics {
                    m.record_phase3_object(rep.samples);
                }
                if rep.early {
                    out.stats.early_terminations += 1;
                }
                match rep.verdict {
                    Verdict::Accept => out.answers.push((point, data)),
                    Verdict::Reject => {}
                    Verdict::Uncertain => out.uncertain.push(uncertain(
                        point,
                        data,
                        Some(rep.estimate),
                        UncertainCause::IntervalStraddlesTheta,
                    )),
                }
            }
            Err(EvalFailure::NoBudget) => {
                starved += 1;
                out.uncertain
                    .push(uncertain(point, data, None, UncertainCause::NotEvaluated));
            }
            Err(EvalFailure::Injected) => {
                faulted += 1;
                out.uncertain
                    .push(uncertain(point, data, None, UncertainCause::EvaluatorFault));
            }
        }
    }
    if !skipped.is_empty() {
        for &(point, data) in skipped {
            out.uncertain
                .push(uncertain(point, data, None, UncertainCause::NotEvaluated));
        }
        out.report.record(DegradationReason::BudgetExhausted {
            scope: BudgetScope::Candidates,
            unresolved: skipped.len(),
        });
    }
    if faulted > 0 {
        out.report
            .record(DegradationReason::EvaluatorFaults { objects: faulted });
    }
    if starved > 0 {
        out.report.record(DegradationReason::BudgetExhausted {
            scope: BudgetScope::TotalSamples,
            unresolved: starved,
        });
    }
    let stats = &mut out.stats;
    stats.phase3_time = t.elapsed();
    let cloud = evaluator.take_cloud_stats();
    stats.absorb_cloud(&cloud);
    stats.phase3_samples = reported.saturating_add(cloud.samples);
    stats.uncertain = out.uncertain.len();
    stats.answers = out.answers.len();
    if let Some(span) = span {
        span.finish();
    }
    if let Some(m) = metrics {
        m.record_query(stats);
        let per_object = cloud.samples.checked_div(unreported).unwrap_or(0);
        m.record_phase3_objects(per_object, unreported);
        m.record_report(&out.report);
    }
}

/// The owned, query-specific part of Phases 1–2: the θ-region and BF
/// bounds an executor derived for one query, plus the strategy knobs
/// needed to rebuild the borrowing filters on demand.
///
/// [`RrFilter`]/[`OrFilter`] borrow the region, so the plan stores the
/// region and reconstructs the filters (cheap, deterministic) inside
/// each entry point instead of holding self-referential borrows. Both
/// the solo executor and the batch executor drive their Phase-1 probe
/// and Phase-2 loop through this type, which is what makes batch/solo
/// parity structural rather than coincidental.
#[derive(Debug)]
pub(crate) struct PreparedQuery<const D: usize> {
    strategies: StrategySet,
    fringe_mode: FringeMode,
    region: Option<ThetaRegion<D>>,
    bf_bounds: Option<BfBounds<D>>,
}

impl<const D: usize> PreparedQuery<D> {
    /// The Phase-1 search rectangle: RR's Minkowski box when RR is
    /// enabled, else BF's `α∥` box (Algorithm 2, line 6). `Ok(None)` is
    /// the provably-empty case — skip Phase 1 entirely.
    ///
    /// # Errors
    ///
    /// [`PrqError::NoPrimaryStrategy`] if neither RR nor BF is enabled
    /// (surfaced as an error rather than a panic per the panic-free
    /// audit rule; `StrategySet::validate` normally rejects this first).
    pub(crate) fn search_rect(&self, query: &PrqQuery<D>) -> Result<Option<Rect<D>>, PrqError> {
        if self.strategies.rr {
            if let Some(reg) = &self.region {
                let rr = RrFilter::new(query, reg, self.fringe_mode);
                return Ok(Some(rr.search_rect()));
            }
        }
        match &self.bf_bounds {
            Some(bf) => Ok(bf.search_rect()),
            None => Err(PrqError::NoPrimaryStrategy),
        }
    }

    /// The Phase-2 loop: runs every candidate through the enabled
    /// filters in cheapest-first order (RR fringe, OR oblique box, BF
    /// classification), appending BF sure-accepts to `answers` and
    /// survivors to `to_integrate`, with pruning counters in `stats`.
    pub(crate) fn filter_candidates<'t, T>(
        &self,
        query: &PrqQuery<D>,
        candidates: &[(&'t Vector<D>, &'t T)],
        stats: &mut QueryStats,
        answers: &mut Vec<(&'t Vector<D>, &'t T)>,
        to_integrate: &mut Vec<(&'t Vector<D>, &'t T)>,
    ) {
        // Binding the filters under one `match` ties their construction
        // to the region's existence: `region` is `Some` exactly when
        // `rr || or`, so neither arm can observe a missing region.
        let (rr_filter, or_filter): (Option<RrFilter<'_, D>>, Option<OrFilter<D>>) =
            match &self.region {
                Some(reg) => (
                    self.strategies
                        .rr
                        .then(|| RrFilter::new(query, reg, self.fringe_mode)),
                    self.strategies.or.then(|| OrFilter::new(query, reg)),
                ),
                None => (None, None),
            };
        'candidates: for &(point, data) in candidates {
            if let Some(rr) = &rr_filter {
                if !rr.passes(point) {
                    stats.pruned_by_fringe += 1;
                    continue 'candidates;
                }
            }
            if let Some(or) = &or_filter {
                stats.or_rotations += 1;
                if !or.passes(point) {
                    stats.pruned_by_or += 1;
                    continue 'candidates;
                }
            }
            if let Some(bf) = &self.bf_bounds {
                match bf.classify(point) {
                    BfClass::Reject => {
                        stats.pruned_by_bf += 1;
                        continue 'candidates;
                    }
                    BfClass::Accept => {
                        stats.accepted_without_integration += 1;
                        answers.push((point, data));
                        continue 'candidates;
                    }
                    BfClass::NeedsIntegration => {}
                }
            }
            to_integrate.push((point, data));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Quadrature2dEvaluator;
    use gprq_linalg::Matrix;
    use gprq_rtree::{RStarParams, RTree};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid_tree() -> RTree<2, usize> {
        // A 60 × 60 grid over [0, 1000]².
        let mut points = Vec::new();
        for i in 0..60 {
            for j in 0..60 {
                points.push((
                    Vector::from([i as f64 * 1000.0 / 59.0, j as f64 * 1000.0 / 59.0]),
                    i * 60 + j,
                ));
            }
        }
        RTree::bulk_load(points, RStarParams::paper_default(2))
    }

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

    fn paper_query(gamma: f64) -> PrqQuery<2> {
        let s3 = 3.0f64.sqrt();
        let sigma = Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(gamma);
        PrqQuery::new(Vector::from([500.0, 500.0]), sigma, 25.0, 0.01).unwrap()
    }

    fn answers_sorted(outcome: &PrqOutcome<'_, 2, usize>) -> Vec<usize> {
        let mut ids: Vec<usize> = outcome.answers.iter().map(|(_, d)| **d).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn all_strategy_sets_agree() {
        // With a deterministic evaluator, all six combinations must
        // return the identical answer set — the *filter safety*
        // invariant.
        let tree = random_tree(4_000, 11);
        let query = paper_query(10.0);
        let mut reference: Option<Vec<usize>> = None;
        for (name, set) in StrategySet::PAPER_COMBINATIONS {
            let mut eval = Quadrature2dEvaluator::default();
            let outcome = PrqExecutor::new(set)
                .execute(&tree, &query, &mut eval)
                .unwrap();
            let ids = answers_sorted(&outcome);
            match &reference {
                None => reference = Some(ids),
                Some(r) => assert_eq!(&ids, r, "strategy {name} disagrees"),
            }
        }
        assert!(!reference.unwrap().is_empty(), "query should match objects");
    }

    #[test]
    fn combinations_reduce_integrations() {
        // Table II's qualitative claim: ALL ≤ every pairwise combo ≤ the
        // better single strategy.
        let tree = random_tree(6_000, 3);
        let query = paper_query(10.0);
        let run = |set: StrategySet| {
            let mut eval = Quadrature2dEvaluator::default();
            PrqExecutor::new(set)
                .execute(&tree, &query, &mut eval)
                .unwrap()
                .stats
        };
        let rr = run(StrategySet::RR);
        let bf = run(StrategySet::BF);
        let rr_bf = run(StrategySet::RR_BF);
        let rr_or = run(StrategySet::RR_OR);
        let bf_or = run(StrategySet::BF_OR);
        let all = run(StrategySet::ALL);
        assert!(rr_bf.integrations <= rr.integrations.min(bf.integrations));
        assert!(rr_or.integrations <= rr.integrations);
        assert!(bf_or.integrations <= bf.integrations);
        assert!(all.integrations <= rr_bf.integrations);
        assert!(all.integrations <= rr_or.integrations);
        assert!(all.integrations <= bf_or.integrations);
        // Answers count is identical everywhere.
        for s in [&rr, &bf, &rr_bf, &rr_or, &bf_or, &all] {
            assert_eq!(s.answers, rr.answers);
        }
    }

    #[test]
    fn bf_accepts_without_integration() {
        // Dense grid near the query center: some objects sit within α⊥.
        let tree = grid_tree();
        let query = paper_query(1.0);
        let mut eval = Quadrature2dEvaluator::default();
        let outcome = PrqExecutor::new(StrategySet::BF)
            .execute(&tree, &query, &mut eval)
            .unwrap();
        assert!(
            outcome.stats.accepted_without_integration > 0,
            "expected sure-accepts inside α⊥: {:?}",
            outcome.stats
        );
        // Sure-accepts + integrations cover all non-pruned candidates.
        assert_eq!(
            outcome.stats.phase1_candidates,
            outcome.stats.pruned_by_bf
                + outcome.stats.accepted_without_integration
                + outcome.stats.integrations
        );
    }

    #[test]
    fn or_only_is_rejected() {
        let tree = grid_tree();
        let query = paper_query(10.0);
        let mut eval = Quadrature2dEvaluator::default();
        let set = StrategySet {
            rr: false,
            or: true,
            bf: false,
        };
        assert!(matches!(
            PrqExecutor::new(set).execute(&tree, &query, &mut eval),
            Err(PrqError::NoPrimaryStrategy)
        ));
    }

    #[test]
    fn rr_with_large_theta_is_rejected_bf_still_works() {
        let tree = grid_tree();
        let s3 = 3.0f64.sqrt();
        let sigma = Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]);
        let query = PrqQuery::new(Vector::from([500.0, 500.0]), sigma, 50.0, 0.6).unwrap();
        let mut eval = Quadrature2dEvaluator::default();
        assert!(matches!(
            PrqExecutor::new(StrategySet::RR).execute(&tree, &query, &mut eval),
            Err(PrqError::ThetaRegionUndefined(_))
        ));
        let outcome = PrqExecutor::new(StrategySet::BF)
            .execute(&tree, &query, &mut eval)
            .unwrap();
        // Objects very close to the center qualify with θ = 0.6 and
        // δ = 50 for the small covariance.
        assert!(outcome.stats.answers > 0);
    }

    #[test]
    fn provably_empty_query_short_circuits() {
        let tree = grid_tree();
        // δ far too small for θ: BF proves emptiness with zero work.
        let query = PrqQuery::new(
            Vector::from([500.0, 500.0]),
            Matrix::identity().scale(100.0),
            0.5,
            0.9,
        )
        .unwrap();
        let mut eval = Quadrature2dEvaluator::default();
        let outcome = PrqExecutor::new(StrategySet::BF)
            .execute(&tree, &query, &mut eval)
            .unwrap();
        assert_eq!(outcome.stats.answers, 0);
        assert_eq!(outcome.stats.phase1_candidates, 0);
        assert_eq!(outcome.stats.integrations, 0);
        assert_eq!(outcome.stats.node_accesses, 0);
    }

    #[test]
    fn catalogs_preserve_answers() {
        let tree = random_tree(3_000, 21);
        let query = paper_query(10.0);
        let mut eval = Quadrature2dEvaluator::default();
        let exact = PrqExecutor::new(StrategySet::ALL)
            .execute(&tree, &query, &mut eval)
            .unwrap();
        let rr_cat = RrCatalog::new(2);
        let bf_cat = BfCatalog::new(2);
        let approx = PrqExecutor::new(StrategySet::ALL)
            .with_rr_catalog(&rr_cat)
            .with_bf_catalog(&bf_cat)
            .execute(&tree, &query, &mut eval)
            .unwrap();
        assert_eq!(answers_sorted(&exact), answers_sorted(&approx));
        // Catalog radii are conservative → never fewer candidates.
        assert!(
            approx.stats.integrations + approx.stats.accepted_without_integration
                >= exact.stats.integrations + exact.stats.accepted_without_integration
        );
    }

    #[test]
    fn stats_are_consistent() {
        let tree = random_tree(5_000, 8);
        let query = paper_query(100.0);
        let mut eval = Quadrature2dEvaluator::default();
        let outcome = PrqExecutor::new(StrategySet::ALL)
            .execute(&tree, &query, &mut eval)
            .unwrap();
        let s = outcome.stats;
        assert_eq!(
            s.phase1_candidates,
            s.pruned_by_fringe
                + s.pruned_by_or
                + s.pruned_by_bf
                + s.accepted_without_integration
                + s.integrations
        );
        assert!(s.answers >= s.accepted_without_integration);
        assert!(s.answers <= s.accepted_without_integration + s.integrations);
        assert!(s.node_accesses > 0);
        assert_eq!(s.answers, outcome.answers.len());
        assert!(s.total_time() >= s.phase3_time);
    }

    #[test]
    fn matches_brute_force_oracle() {
        // Ground truth: quadrature over every object in the database.
        let tree = random_tree(1_500, 30);
        let query = paper_query(10.0);
        let mut oracle = Quadrature2dEvaluator::default();
        let mut expect: Vec<usize> = tree
            .iter()
            .filter(|(p, _)| {
                oracle.probability(query.gaussian(), p, query.delta()) >= query.theta()
            })
            .map(|(_, d)| *d)
            .collect();
        expect.sort_unstable();
        let mut eval = Quadrature2dEvaluator::default();
        let outcome = PrqExecutor::new(StrategySet::ALL)
            .execute(&tree, &query, &mut eval)
            .unwrap();
        assert_eq!(answers_sorted(&outcome), expect);
    }
}
