//! The resilient query pipeline: admission/sanitization, budgeted
//! evaluation with graceful degradation, and strategy fallback.
//!
//! The plain [`PrqExecutor`] is faithful to the paper and therefore
//! brittle by design: its strategies have hard preconditions (the
//! θ-region needs `θ < 1/2`, catalogs must match the query dimension, Σ
//! must be well-conditioned SPD) and its Phase 3 spends a fixed sample
//! budget per candidate. A serving path cannot afford either property —
//! one degenerate query must neither error out nor hog the integrator.
//!
//! [`ResilientExecutor`] wraps a configured [`PrqExecutor`] — its
//! Phases 1–2 over any [`Phase1Index`] and the Phase-3 stage every path
//! shares — with:
//!
//! 1. **Admission** ([`AdmissionPolicy::admit`]) — rejects what cannot
//!    be repaired (NaN/∞ centers and thresholds), repairs what can
//!    (θ clamping, covariance symmetrization, Tikhonov regularization
//!    of near-singular Σ), and records every repair in a
//!    [`DegradationReport`].
//! 2. **Strategy fallback** — catalog mismatch or `θ ≥ 1/2` degrades
//!    the strategy set toward one that can run ([`StrategySet::BF`]
//!    works at any θ), and execution failure degrades to the naive
//!    full scan; each hop is a [`DegradationReason::StrategySwitched`]
//!    or [`DegradationReason::NaiveFallback`] entry.
//! 3. **Budgeted Phase 3** ([`EvalBudget`]) — per-object and total
//!    sample caps, granted to [`ProbabilityEvaluator::evaluate`], with
//!    confidence-interval early termination on a sequential evaluator
//!    (see [`SequentialMonteCarloEvaluator`]); objects the budget cannot
//!    settle come back as explicit [`Verdict::Uncertain`] entries, never
//!    as unlabeled guesses.
//!
//! The result always carries the full report, so a caller can
//! distinguish "exact answer" from "best effort under degradation" and
//! decide per application whether uncertain objects count.
//!
//! [`SequentialMonteCarloEvaluator`]: crate::evaluator::SequentialMonteCarloEvaluator

use crate::error::PrqError;
use crate::evaluator::ProbabilityEvaluator;
use crate::executor::{phase3, PrqExecutor, QueryScratch, QueryStats};
use crate::metrics::Phase;
use crate::naive::scan_all;
use crate::query::PrqQuery;
use crate::strategy::StrategySet;
use gprq_gaussian::integrate::PAPER_MC_SAMPLES;
use gprq_linalg::{LinalgError, Matrix, Vector};
use gprq_rtree::Phase1Index;
use std::fmt;
use std::time::Instant;

#[cfg(feature = "fault-inject")]
use crate::fault::{FaultPlan, FaultSite};

/// Classification of one object against `θ`, with uncertainty explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `Pr ≥ θ` holds (exactly, or with the configured confidence).
    Accept,
    /// `Pr < θ` holds (exactly, or with the configured confidence).
    Reject,
    /// The sample budget ran out with the confidence interval still
    /// straddling `θ` — the honest "don't know".
    Uncertain,
}

/// Which U-catalog a [`DegradationReason::CatalogDropped`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatalogKind {
    /// The θ-region radius catalog (paper Algorithm 1, line 4).
    Rr,
    /// The bounding-function radii catalog (paper Eqs. 32–33).
    Bf,
}

impl fmt::Display for CatalogKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogKind::Rr => write!(f, "RR"),
            CatalogKind::Bf => write!(f, "BF"),
        }
    }
}

/// Why the executor switched away from the requested strategy set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwitchCause {
    /// The θ-region is undefined for `θ ≥ 1/2` (paper Definition 3), so
    /// RR and OR cannot run; BF still can.
    ThetaAboveHalf(f64),
    /// The requested set had no region-producing strategy.
    NoPrimaryStrategy,
    /// The filtered pipeline returned an error at execution time.
    ExecutionFailed,
    /// The index could not complete a Phase-1 traversal.
    IndexUnavailable,
}

impl fmt::Display for SwitchCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchCause::ThetaAboveHalf(t) => write!(f, "θ = {t} ≥ 1/2"),
            SwitchCause::NoPrimaryStrategy => write!(f, "no primary strategy"),
            SwitchCause::ExecutionFailed => write!(f, "filtered execution failed"),
            SwitchCause::IndexUnavailable => write!(f, "index unavailable"),
        }
    }
}

/// Which budget dimension a [`DegradationReason::BudgetExhausted`]
/// entry refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetScope {
    /// [`EvalBudget::max_total_samples`] ran out mid-query.
    TotalSamples,
    /// [`EvalBudget::max_candidates`] capped the Phase-3 work list.
    Candidates,
}

impl fmt::Display for BudgetScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetScope::TotalSamples => write!(f, "total samples"),
            BudgetScope::Candidates => write!(f, "candidates"),
        }
    }
}

/// One repair or fallback applied by the resilient pipeline.
///
/// Every variant is informational, not an error: the query still
/// produced an answer, and the report says exactly how its semantics
/// were weakened to get there.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradationReason {
    /// `θ` was outside `(0, 1)` and was clamped into range.
    ThetaClamped {
        /// The requested threshold.
        from: f64,
        /// The clamped value actually used.
        to: f64,
    },
    /// Σ was asymmetric beyond tolerance and was replaced by its
    /// symmetric part `(Σ + Σᵗ)/2`.
    CovarianceSymmetrized {
        /// Largest `|σ_ij − σ_ji|` observed before the repair.
        asymmetry: f64,
    },
    /// Σ was singular, indefinite, or ill-conditioned and received a
    /// Tikhonov ridge `Σ + ε·I`.
    CovarianceRegularized {
        /// Spectral condition number before the repair (∞ when the
        /// eigensolve itself failed).
        condition: f64,
        /// The ridge `ε` actually added to the diagonal.
        ridge: f64,
    },
    /// A configured U-catalog could not be used and radii fall back to
    /// exact computation.
    CatalogDropped {
        /// Which catalog was dropped.
        which: CatalogKind,
        /// Dimension the catalog was built for.
        catalog_dim: usize,
        /// Dimension of the query.
        query_dim: usize,
    },
    /// The strategy set was replaced by a runnable one.
    StrategySwitched {
        /// The requested set.
        from: StrategySet,
        /// The set actually executed.
        to: StrategySet,
        /// Why the switch happened.
        cause: SwitchCause,
    },
    /// The filtered pipeline was abandoned for the naive full scan —
    /// the terminal fallback that always works.
    NaiveFallback {
        /// Why filtering was abandoned.
        cause: SwitchCause,
    },
    /// Some Phase-3 evaluations failed outright; the affected objects
    /// are reported as uncertain.
    EvaluatorFaults {
        /// How many objects were affected.
        objects: usize,
    },
    /// A budget cap was hit before every candidate was classified.
    BudgetExhausted {
        /// Which cap was hit.
        scope: BudgetScope,
        /// Objects left unclassified because of it.
        unresolved: usize,
    },
}

impl fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationReason::ThetaClamped { from, to } => {
                write!(f, "θ clamped from {from} to {to}")
            }
            DegradationReason::CovarianceSymmetrized { asymmetry } => {
                write!(f, "Σ symmetrized (max asymmetry {asymmetry:.3e})")
            }
            DegradationReason::CovarianceRegularized { condition, ridge } => {
                write!(
                    f,
                    "Σ regularized with ridge {ridge:.3e} (condition {condition:.3e})"
                )
            }
            DegradationReason::CatalogDropped {
                which,
                catalog_dim,
                query_dim,
            } => write!(
                f,
                "{which} catalog dropped (built for d = {catalog_dim}, query d = {query_dim})"
            ),
            DegradationReason::StrategySwitched { from, to, cause } => {
                write!(f, "strategy {} → {}: {cause}", from.name(), to.name())
            }
            DegradationReason::NaiveFallback { cause } => {
                write!(f, "fell back to naive full scan: {cause}")
            }
            DegradationReason::EvaluatorFaults { objects } => {
                write!(f, "evaluator failed on {objects} object(s)")
            }
            DegradationReason::BudgetExhausted { scope, unresolved } => {
                write!(
                    f,
                    "budget exhausted ({scope}), {unresolved} object(s) unresolved"
                )
            }
        }
    }
}

/// Ordered log of every repair and fallback one execution applied.
///
/// Empty means the query ran exactly as requested; a non-empty report
/// is the contract that *no repair is ever silent*.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationReport {
    events: Vec<DegradationReason>,
}

impl DegradationReport {
    /// A fresh, empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any repair or fallback was applied.
    pub fn is_degraded(&self) -> bool {
        !self.events.is_empty()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the report is empty (the query ran as requested).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the events in the order they were applied.
    pub fn iter(&self) -> impl Iterator<Item = &DegradationReason> {
        self.events.iter()
    }

    pub(crate) fn record(&mut self, reason: DegradationReason) {
        self.events.push(reason);
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.events.is_empty() {
            return write!(f, "no degradation");
        }
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

/// Knobs for the admission/sanitization stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Smallest θ a clamp may produce (repairs `θ ≤ 0`).
    pub theta_floor: f64,
    /// Largest θ a clamp may produce (repairs `θ ≥ 1`).
    pub theta_ceiling: f64,
    /// Spectral condition number above which Σ is ridge-regularized.
    pub max_condition: f64,
    /// Initial ridge as a fraction of the mean diagonal entry; escalated
    /// ×10 per attempt until Σ is acceptable.
    pub ridge_scale: f64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            theta_floor: 1e-9,
            theta_ceiling: 1.0 - 1e-9,
            max_condition: 1e12,
            ridge_scale: 1e-12,
        }
    }
}

/// Upper bound on ridge-escalation attempts. The ridge grows ×10 per
/// attempt from `ridge_scale × scale`, where `scale` bounds `|λ_min|`
/// via Gershgorin, so any finite symmetric Σ is repaired well before
/// this limit; it exists to make the loop obviously terminating.
const MAX_RIDGE_ATTEMPTS: usize = 24;

impl AdmissionPolicy {
    /// Validates and repairs raw query parameters into a well-formed
    /// [`PrqQuery`], recording every repair in `report`.
    ///
    /// Repairs (recorded, never silent): finite `θ` outside `(0, 1)` is
    /// clamped; asymmetric Σ is symmetrized; singular / indefinite /
    /// ill-conditioned Σ receives an escalating Tikhonov ridge.
    /// Rejections (no principled repair exists): non-finite or
    /// non-positive `δ`, non-finite `θ`, non-finite centers, non-finite
    /// Σ entries.
    ///
    /// # Errors
    ///
    /// * [`PrqError::InvalidDelta`] unless `δ > 0` and finite,
    /// * [`PrqError::InvalidTheta`] for NaN or infinite `θ`,
    /// * [`PrqError::InvalidCenter`] for a NaN/∞ center coordinate,
    /// * [`PrqError::BadCovariance`] for non-finite Σ entries, or when
    ///   ridge escalation cannot produce an acceptable matrix.
    pub fn admit<const D: usize>(
        &self,
        center: Vector<D>,
        covariance: Matrix<D>,
        delta: f64,
        theta: f64,
        report: &mut DegradationReport,
    ) -> Result<PrqQuery<D>, PrqError> {
        // δ: reject. A non-positive or non-finite radius has no
        // repairable intent.
        if !(delta > 0.0 && delta.is_finite()) {
            return Err(PrqError::InvalidDelta(delta));
        }
        // θ: NaN/∞ is garbage (reject); finite out-of-range is a
        // plausible "always"/"never" intent (clamp and record).
        if !theta.is_finite() {
            return Err(PrqError::InvalidTheta(theta));
        }
        let theta = if theta < self.theta_floor {
            report.record(DegradationReason::ThetaClamped {
                from: theta,
                to: self.theta_floor,
            });
            self.theta_floor
        } else if theta > self.theta_ceiling {
            report.record(DegradationReason::ThetaClamped {
                from: theta,
                to: self.theta_ceiling,
            });
            self.theta_ceiling
        } else {
            theta
        };
        // Center: reject on the first non-finite coordinate.
        for (axis, &value) in center.as_slice().iter().enumerate() {
            if !value.is_finite() {
                return Err(PrqError::InvalidCenter { axis, value });
            }
        }
        // Σ: non-finite entries are unrepairable.
        if !covariance.is_finite() {
            return Err(PrqError::BadCovariance(LinalgError::NonFinite));
        }
        // Asymmetry is repairable: replace by the symmetric part.
        let sigma = match covariance.check_symmetric(1e-9) {
            Ok(()) => covariance,
            Err(_) => {
                report.record(DegradationReason::CovarianceSymmetrized {
                    asymmetry: covariance.max_asymmetry(),
                });
                Matrix::from_fn(|i, j| 0.5 * (covariance[(i, j)] + covariance[(j, i)]))
            }
        };
        // Conditioning gate: accept Σ as-is only when the spectral
        // condition number is positive (so Σ ≻ 0) and below the policy
        // bound, and the Gaussian actually constructs.
        let condition = sigma.condition_number().unwrap_or(f64::INFINITY);
        if condition > 0.0 && condition <= self.max_condition {
            if let Ok(query) = PrqQuery::new(center, sigma, delta, theta) {
                return Ok(query);
            }
        }
        // Tikhonov repair: Σ + ε·I with ε escalating ×10. `scale`
        // dominates |λ_min| (Gershgorin: |λ| ≤ D · max |σ_ij|), so some
        // attempt is guaranteed to reach positive definiteness and a
        // condition number ≤ (λ_max + ε)/ε well under the bound.
        let mut max_abs = 0.0f64;
        for i in 0..D {
            for j in 0..D {
                max_abs = max_abs.max(sigma[(i, j)].abs());
            }
        }
        let scale = (sigma.trace().abs() / D.max(1) as f64)
            .max(max_abs * D as f64)
            .max(f64::MIN_POSITIVE);
        let mut ridge = scale * self.ridge_scale;
        for _ in 0..MAX_RIDGE_ATTEMPTS {
            let candidate = sigma.add_scaled_identity(ridge);
            let cond_ok = match candidate.condition_number() {
                Ok(c) => c > 0.0 && c <= self.max_condition,
                Err(_) => false,
            };
            if cond_ok {
                if let Ok(query) = PrqQuery::new(center, candidate, delta, theta) {
                    report.record(DegradationReason::CovarianceRegularized { condition, ridge });
                    return Ok(query);
                }
            }
            ridge *= 10.0;
        }
        // Unrepairable within bounds: surface the underlying rejection.
        match PrqQuery::new(center, sigma, delta, theta) {
            Ok(_) => Err(PrqError::BadCovariance(LinalgError::EigenNoConvergence {
                off_diagonal: condition,
            })),
            Err(e) => Err(e),
        }
    }
}

/// Resource caps for budgeted Phase-3 evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalBudget {
    /// Most samples any single object's integration may draw.
    pub max_samples_per_object: usize,
    /// Most samples the whole query may draw across all objects.
    pub max_total_samples: usize,
    /// Most candidates Phase 3 will evaluate; the rest are reported
    /// uncertain rather than silently dropped.
    pub max_candidates: usize,
}

impl EvalBudget {
    /// No caps at all (every limit at `usize::MAX`).
    pub const UNLIMITED: Self = EvalBudget {
        max_samples_per_object: usize::MAX,
        max_total_samples: usize::MAX,
        max_candidates: usize::MAX,
    };

    /// The paper's configuration: 100 000 samples per object, no total
    /// or candidate cap.
    pub fn paper_default() -> Self {
        EvalBudget {
            max_samples_per_object: PAPER_MC_SAMPLES,
            max_total_samples: usize::MAX,
            max_candidates: usize::MAX,
        }
    }
}

impl Default for EvalBudget {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Why an object ended up in [`ResilientOutcome::uncertain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UncertainCause {
    /// The per-object budget ran out with the confidence interval still
    /// straddling `θ`.
    IntervalStraddlesTheta,
    /// The evaluator failed on this object.
    EvaluatorFault,
    /// A budget cap was hit before this object was evaluated at all.
    NotEvaluated,
}

/// An object the pipeline could not classify, with the best estimate it
/// has (if any).
#[derive(Debug, Clone, Copy)]
pub struct UncertainObject<'t, const D: usize, T> {
    /// The object's location.
    pub point: &'t Vector<D>,
    /// The object's payload.
    pub data: &'t T,
    /// The running probability estimate when evaluation stopped, or
    /// `None` when the object was never evaluated.
    pub estimate: Option<f64>,
    /// Why the object is uncertain.
    pub cause: UncertainCause,
}

/// The pipeline stage that ultimately produced the answer set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TerminalStrategy {
    /// The three-phase filtered pipeline ran with this strategy set.
    Filtered(StrategySet),
    /// The naive full scan ran (the last-resort fallback).
    NaiveScan,
}

/// Result of a resilient execution: answers, explicitly-uncertain
/// objects, the degradation report, and statistics.
#[derive(Debug)]
pub struct ResilientOutcome<'t, const D: usize, T> {
    /// Objects classified `Pr ≥ θ` (exactly or with the evaluator's
    /// configured confidence).
    pub answers: Vec<(&'t Vector<D>, &'t T)>,
    /// Objects the pipeline could not classify, each with its cause.
    pub uncertain: Vec<UncertainObject<'t, D, T>>,
    /// Every repair and fallback applied, in order.
    pub report: DegradationReport,
    /// Execution statistics (including `phase3_samples`,
    /// `early_terminations`, and `uncertain` counters).
    pub stats: QueryStats,
    /// Which pipeline ultimately produced the answers.
    pub terminal: TerminalStrategy,
}

impl<'t, const D: usize, T> ResilientOutcome<'t, D, T> {
    /// A run entering Phase 3 with the answers and statistics of the
    /// phases before it, nothing uncertain, and an empty report.
    pub(crate) fn entering_phase3(
        terminal: TerminalStrategy,
        stats: QueryStats,
        answers: Vec<(&'t Vector<D>, &'t T)>,
    ) -> Self {
        ResilientOutcome {
            answers,
            uncertain: Vec::new(),
            report: DegradationReport::new(),
            stats,
            terminal,
        }
    }
}

/// What a run may spend in Phase 3 and, with `fault-inject`, the armed
/// fault plan it consults at each site. The plain executor runs with
/// the default: the paper's per-object budget, no other cap, no faults.
#[derive(Debug, Clone, Default)]
pub(crate) struct Safeguards {
    /// The Phase-3 caps.
    pub(crate) budget: EvalBudget,
    /// The armed fault plan, if any.
    #[cfg(feature = "fault-inject")]
    pub(crate) faults: Option<FaultPlan>,
}

impl Safeguards {
    /// Whether the fault at `site` fires on this consultation.
    #[cfg(feature = "fault-inject")]
    pub(crate) fn trips(&mut self, site: FaultSite) -> bool {
        self.faults.as_mut().is_some_and(|plan| plan.trip(site))
    }
}

/// The hardened executor: admission, strategy fallback, budgeted
/// Phase 3, and (behind the `fault-inject` feature) deterministic
/// fault injection, around a configured [`PrqExecutor`] over any
/// [`Phase1Index`].
///
/// ```
/// use gprq_core::resilience::{EvalBudget, ResilientExecutor, TerminalStrategy};
/// use gprq_core::{PrqExecutor, Quadrature2dEvaluator, StrategySet};
/// use gprq_linalg::{Matrix, Vector};
/// use gprq_rtree::{RStarParams, RTree};
///
/// let points: Vec<(Vector<2>, u32)> = (0..400)
///     .map(|i| (Vector::from([(i % 20) as f64 * 5.0, (i / 20) as f64 * 5.0]), i))
///     .collect();
/// let tree = RTree::bulk_load(points, RStarParams::paper_default(2));
/// let mut exec = ResilientExecutor::new(PrqExecutor::new(StrategySet::ALL));
/// let mut eval = Quadrature2dEvaluator::default();
/// // θ = 0.7 would be a hard error for RR/OR; here it degrades to BF.
/// let outcome = exec
///     .execute(&tree, Vector::from([50.0, 50.0]), Matrix::identity().scale(30.0), 20.0, 0.7, &mut eval)
///     .unwrap();
/// assert!(outcome.report.is_degraded());
/// assert_eq!(outcome.terminal, TerminalStrategy::Filtered(StrategySet::BF));
/// ```
#[derive(Debug, Clone)]
pub struct ResilientExecutor<'c> {
    executor: PrqExecutor<'c>,
    policy: AdmissionPolicy,
    safeguards: Safeguards,
}

impl<'c> ResilientExecutor<'c> {
    /// Wraps `executor` — its strategy set, fringe mode, catalogs, and
    /// metrics handle — with the paper-default budget and the default
    /// admission policy. Catalogs that do not fit a query are dropped
    /// with a report entry instead of erroring; an attached
    /// [`PipelineMetrics`](crate::PipelineMetrics) also receives the
    /// per-object sample histogram and the repair/fallback counters.
    pub fn new(executor: PrqExecutor<'c>) -> Self {
        ResilientExecutor {
            executor,
            policy: AdmissionPolicy::default(),
            safeguards: Safeguards::default(),
        }
    }

    /// Overrides the Phase-3 budget.
    pub fn with_budget(mut self, budget: EvalBudget) -> Self {
        self.safeguards.budget = budget;
        self
    }

    /// Overrides the admission policy.
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The configured budget.
    pub fn budget(&self) -> EvalBudget {
        self.safeguards.budget
    }

    /// Arms a deterministic fault plan; every subsequent execution
    /// consults it at each fault site.
    #[cfg(feature = "fault-inject")]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.safeguards.faults = Some(plan);
        self
    }

    /// Runs the full resilient pipeline on raw query parameters over any
    /// Phase-1 index.
    ///
    /// Unlike [`PrqExecutor::execute`], this takes the raw `(q, Σ, δ,
    /// θ)` because admission may repair them before a [`PrqQuery`] can
    /// exist. Strategy preconditions never surface as errors — they
    /// degrade with a report entry; the only errors are unrepairable
    /// inputs.
    ///
    /// # Errors
    ///
    /// Admission rejections only: [`PrqError::InvalidDelta`],
    /// [`PrqError::InvalidTheta`] (non-finite θ),
    /// [`PrqError::InvalidCenter`], [`PrqError::BadCovariance`].
    pub fn execute<'t, const D: usize, T, I, E>(
        &mut self,
        tree: &'t I,
        center: Vector<D>,
        covariance: Matrix<D>,
        delta: f64,
        theta: f64,
        evaluator: &mut E,
    ) -> Result<ResilientOutcome<'t, D, T>, PrqError>
    where
        I: Phase1Index<D, T>,
        E: ProbabilityEvaluator<D>,
    {
        let mut report = DegradationReport::new();

        // Fault: degrade Σ to a rank-1 (singular) matrix before
        // admission, forcing the ridge-repair path.
        #[cfg(feature = "fault-inject")]
        let covariance = if self.safeguards.trips(FaultSite::SigmaDegeneracy) {
            let fill = covariance.trace().abs().max(1.0) / D.max(1) as f64;
            Matrix::from_fn(|_, _| fill)
        } else {
            covariance
        };

        let query = self
            .policy
            .admit(center, covariance, delta, theta, &mut report)?;

        // --- Preflight strategy fallback chain. ------------------------
        let mut exec = self.executor;
        drop_catalogs::<D>(&mut exec, &mut report, |dim| dim != D);
        // Fault: catalogs vanish (e.g. a cache eviction mid-flight).
        #[cfg(feature = "fault-inject")]
        if self.safeguards.trips(FaultSite::CatalogLookup) {
            drop_catalogs::<D>(&mut exec, &mut report, |_| true);
        }

        // θ ≥ 1/2: the θ-region does not exist, so any set using RR or
        // OR degrades to BF-only (which works at any θ).
        let from = exec.strategies;
        if query.theta() >= 0.5 && (from.rr || from.or) {
            exec.strategies = StrategySet::BF;
            report.record(DegradationReason::StrategySwitched {
                from,
                to: exec.strategies,
                cause: SwitchCause::ThetaAboveHalf(query.theta()),
            });
        }
        // OR-only (θ < 1/2 here): OR cannot produce a Phase-1 region;
        // pair it with RR. A fully-empty set has nothing to salvage and
        // goes straight to the naive scan.
        let mut naive_cause: Option<SwitchCause> = None;
        if exec.strategies.validate().is_err() {
            if exec.strategies.or {
                let from = exec.strategies;
                exec.strategies = StrategySet::RR_OR;
                report.record(DegradationReason::StrategySwitched {
                    from,
                    to: exec.strategies,
                    cause: SwitchCause::NoPrimaryStrategy,
                });
            } else {
                naive_cause = Some(SwitchCause::NoPrimaryStrategy);
            }
        }

        // Fault: the index cannot complete a traversal; fall back to the
        // scan.
        #[cfg(feature = "fault-inject")]
        if naive_cause.is_none() && self.safeguards.trips(FaultSite::Phase1Traversal) {
            naive_cause = Some(SwitchCause::IndexUnavailable);
        }

        // --- Filtered attempt (Phases 1–2). ----------------------------
        let mut stats = QueryStats::default();
        let mut answers: Vec<(&'t Vector<D>, &'t T)> = Vec::new();
        let mut scratch = QueryScratch::new();
        if naive_cause.is_none()
            && exec
                .collect_candidates(tree, &query, &mut scratch, &mut stats, &mut answers)
                .is_err()
        {
            // Unreachable after preflight for today's strategies, but
            // resilience means catching tomorrow's failure modes too.
            naive_cause = Some(SwitchCause::ExecutionFailed);
        }

        let terminal = match naive_cause {
            None => TerminalStrategy::Filtered(exec.strategies),
            Some(cause) => {
                report.record(DegradationReason::NaiveFallback { cause });
                // Discard any partial filtered state; the Phase-3 work
                // list becomes the whole index.
                stats = QueryStats::default();
                answers.clear();
                let span1 = exec.metrics().map(|m| m.phase_span(Phase::Search));
                let t0 = Instant::now();
                scan_all(tree, scratch.naive_work_list(), &mut stats);
                stats.phase1_time = t0.elapsed();
                if let Some(span) = span1 {
                    span.finish();
                }
                TerminalStrategy::NaiveScan
            }
        };

        // --- Phase 3: the shared, budgeted stage. ----------------------
        let mut outcome = ResilientOutcome::entering_phase3(terminal, stats, answers);
        outcome.report = report;
        phase3(
            &query,
            scratch.work_list(),
            evaluator,
            &mut self.safeguards,
            exec.metrics(),
            &mut outcome,
        );
        Ok(outcome)
    }
}

/// Drops each configured catalog whose dimension `drop` selects,
/// recording one [`DegradationReason::CatalogDropped`] entry per
/// catalog (RR first).
fn drop_catalogs<const D: usize>(
    exec: &mut PrqExecutor<'_>,
    report: &mut DegradationReport,
    drop: impl Fn(usize) -> bool,
) {
    let mut record = |which, catalog_dim| {
        report.record(DegradationReason::CatalogDropped {
            which,
            catalog_dim,
            query_dim: D,
        });
    };
    if let Some(cat) = exec.rr_catalog.filter(|c| drop(c.dim())) {
        record(CatalogKind::Rr, cat.dim());
        exec.rr_catalog = None;
    }
    if let Some(cat) = exec.bf_catalog.filter(|c| drop(c.dim())) {
        record(CatalogKind::Bf, cat.dim());
        exec.bf_catalog = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{EvalFailure, EvalReport, MonteCarloEvaluator, Quadrature2dEvaluator};
    use crate::ucatalog::{BfCatalog, RrCatalog};
    use gprq_gaussian::Gaussian;
    use gprq_rtree::{RStarParams, RTree};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sigma_paper() -> Matrix<2> {
        let s3 = 3.0f64.sqrt();
        Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0)
    }

    fn admit2(
        center: [f64; 2],
        sigma: Matrix<2>,
        delta: f64,
        theta: f64,
    ) -> (Result<PrqQuery<2>, PrqError>, DegradationReport) {
        let mut report = DegradationReport::new();
        let q = AdmissionPolicy::default().admit(
            Vector::from(center),
            sigma,
            delta,
            theta,
            &mut report,
        );
        (q, report)
    }

    #[test]
    fn clean_query_admits_with_empty_report() {
        let (q, report) = admit2([500.0, 500.0], sigma_paper(), 25.0, 0.01);
        let q = q.unwrap();
        assert!(!report.is_degraded());
        assert_eq!(report.len(), 0);
        assert_eq!(q.theta(), 0.01);
        assert_eq!(q.gaussian().covariance(), &sigma_paper());
    }

    #[test]
    fn unrepairable_inputs_are_rejected() {
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let (q, report) = admit2([0.0, 0.0], sigma_paper(), bad, 0.1);
            assert!(matches!(q, Err(PrqError::InvalidDelta(_))), "δ = {bad}");
            assert!(report.is_empty());
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let (q, _) = admit2([0.0, 0.0], sigma_paper(), 1.0, bad);
            assert!(matches!(q, Err(PrqError::InvalidTheta(_))), "θ = {bad}");
        }
        let (q, _) = admit2([1.0, f64::NAN], sigma_paper(), 1.0, 0.1);
        assert!(
            matches!(q, Err(PrqError::InvalidCenter { axis: 1, .. })),
            "{q:?}"
        );
        let nonfinite = Matrix::from_rows([[1.0, 0.0], [0.0, f64::INFINITY]]);
        let (q, _) = admit2([0.0, 0.0], nonfinite, 1.0, 0.1);
        assert!(matches!(
            q,
            Err(PrqError::BadCovariance(LinalgError::NonFinite))
        ));
    }

    #[test]
    fn theta_extremes_are_clamped_and_reported() {
        let policy = AdmissionPolicy::default();
        for (raw, expect) in [
            (0.0, policy.theta_floor),
            (-5.0, policy.theta_floor),
            (1.0, policy.theta_ceiling),
            (7.5, policy.theta_ceiling),
        ] {
            let (q, report) = admit2([0.0, 0.0], sigma_paper(), 1.0, raw);
            let q = q.unwrap();
            assert_eq!(q.theta(), expect, "θ = {raw}");
            assert_eq!(report.len(), 1);
            assert!(matches!(
                report.iter().next(),
                Some(DegradationReason::ThetaClamped { from, .. }) if *from == raw
            ));
        }
    }

    #[test]
    fn asymmetric_covariance_is_symmetrized() {
        // Asymmetry large enough to fail the 1e-9 relative check.
        let lopsided = Matrix::from_rows([[70.0, 40.0], [30.0, 30.0]]);
        let (q, report) = admit2([0.0, 0.0], lopsided, 1.0, 0.1);
        let q = q.unwrap();
        assert!(report
            .iter()
            .any(|r| matches!(r, DegradationReason::CovarianceSymmetrized { asymmetry } if (asymmetry - 10.0).abs() < 1e-12)));
        // The admitted covariance is the symmetric part.
        assert!((q.gaussian().covariance()[(0, 1)] - 35.0).abs() < 1e-12);
        assert!((q.gaussian().covariance()[(1, 0)] - 35.0).abs() < 1e-12);
    }

    #[test]
    fn singular_covariance_gets_a_ridge() {
        // Rank 1: [[4, 2], [2, 1]] has eigenvalues {5, 0}.
        let singular = Matrix::from_rows([[4.0, 2.0], [2.0, 1.0]]);
        let (q, report) = admit2([0.0, 0.0], singular, 1.0, 0.1);
        let q = q.unwrap();
        let ridge = report.iter().find_map(|r| match r {
            DegradationReason::CovarianceRegularized { ridge, .. } => Some(*ridge),
            _ => None,
        });
        let ridge = ridge.expect("ridge repair must be reported");
        assert!(ridge > 0.0);
        // The repaired matrix is the original plus the reported ridge.
        let cov = q.gaussian().covariance();
        assert!((cov[(0, 0)] - (4.0 + ridge)).abs() < 1e-9 * (4.0 + ridge));
        assert!((cov[(0, 1)] - 2.0).abs() < 1e-12);
        // And it is genuinely well-conditioned now.
        let cond = cov.condition_number().unwrap();
        assert!(cond <= AdmissionPolicy::default().max_condition);
    }

    #[test]
    fn indefinite_covariance_is_repaired_or_rejected_never_panics() {
        // λ = {3, −1}: needs a ridge > 1 to become PD.
        let indefinite = Matrix::from_rows([[1.0, 2.0], [2.0, 1.0]]);
        let (q, report) = admit2([0.0, 0.0], indefinite, 1.0, 0.1);
        let q = q.unwrap();
        assert!(report
            .iter()
            .any(|r| matches!(r, DegradationReason::CovarianceRegularized { .. })));
        assert!(q.gaussian().covariance().cholesky().is_ok());
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

    fn oracle() -> Quadrature2dEvaluator {
        Quadrature2dEvaluator::default()
    }

    #[test]
    fn resilient_matches_plain_executor_on_clean_input() {
        let tree = random_tree(3_000, 5);
        let query = PrqQuery::new(Vector::from([500.0, 500.0]), sigma_paper(), 25.0, 0.01).unwrap();
        let mut plain_eval = Quadrature2dEvaluator::default();
        let plain = PrqExecutor::new(StrategySet::ALL)
            .execute(&tree, &query, &mut plain_eval)
            .unwrap();
        let mut res = ResilientExecutor::new(PrqExecutor::new(StrategySet::ALL));
        let outcome = res
            .execute(
                &tree,
                Vector::from([500.0, 500.0]),
                sigma_paper(),
                25.0,
                0.01,
                &mut oracle(),
            )
            .unwrap();
        assert!(!outcome.report.is_degraded(), "{}", outcome.report);
        assert!(outcome.uncertain.is_empty());
        assert_eq!(
            outcome.terminal,
            TerminalStrategy::Filtered(StrategySet::ALL)
        );
        let mut a: Vec<usize> = plain.answers.iter().map(|(_, d)| **d).collect();
        let mut b: Vec<usize> = outcome.answers.iter().map(|(_, d)| **d).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(
            outcome.stats.phase1_candidates,
            plain.stats.phase1_candidates
        );
    }

    #[test]
    fn empty_strategy_set_falls_back_to_naive_scan() {
        let tree = random_tree(400, 9);
        let none = StrategySet {
            rr: false,
            or: false,
            bf: false,
        };
        let mut res = ResilientExecutor::new(PrqExecutor::new(none));
        let outcome = res
            .execute(
                &tree,
                Vector::from([500.0, 500.0]),
                sigma_paper(),
                25.0,
                0.01,
                &mut oracle(),
            )
            .unwrap();
        assert_eq!(outcome.terminal, TerminalStrategy::NaiveScan);
        assert!(outcome.report.iter().any(|r| matches!(
            r,
            DegradationReason::NaiveFallback {
                cause: SwitchCause::NoPrimaryStrategy
            }
        )));
        // The scan still produces the true answer set.
        let query = PrqQuery::new(Vector::from([500.0, 500.0]), sigma_paper(), 25.0, 0.01).unwrap();
        let mut quad = Quadrature2dEvaluator::default();
        let naive = crate::naive::execute_naive(&tree, &query, &mut quad);
        let mut a: Vec<usize> = naive.answers.iter().map(|(_, d)| **d).collect();
        let mut b: Vec<usize> = outcome.answers.iter().map(|(_, d)| **d).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(outcome.stats.phase1_candidates, tree.len());
    }

    #[test]
    fn mismatched_catalogs_are_dropped_not_fatal() {
        let tree = random_tree(1_000, 13);
        let rr_cat = RrCatalog::new(3);
        let bf_cat = BfCatalog::new(5);
        let mut res = ResilientExecutor::new(
            PrqExecutor::new(StrategySet::ALL)
                .with_rr_catalog(&rr_cat)
                .with_bf_catalog(&bf_cat),
        );
        let outcome = res
            .execute(
                &tree,
                Vector::from([500.0, 500.0]),
                sigma_paper(),
                25.0,
                0.01,
                &mut oracle(),
            )
            .unwrap();
        let dropped: Vec<CatalogKind> = outcome
            .report
            .iter()
            .filter_map(|r| match r {
                DegradationReason::CatalogDropped { which, .. } => Some(*which),
                _ => None,
            })
            .collect();
        assert_eq!(dropped, [CatalogKind::Rr, CatalogKind::Bf]);
        assert_eq!(
            outcome.terminal,
            TerminalStrategy::Filtered(StrategySet::ALL)
        );
    }

    #[test]
    fn candidate_cap_reports_the_tail_as_uncertain() {
        let tree = random_tree(3_000, 17);
        let mut res =
            ResilientExecutor::new(PrqExecutor::new(StrategySet::ALL)).with_budget(EvalBudget {
                max_candidates: 3,
                ..EvalBudget::paper_default()
            });
        let outcome = res
            .execute(
                &tree,
                Vector::from([500.0, 500.0]),
                sigma_paper(),
                25.0,
                0.01,
                &mut oracle(),
            )
            .unwrap();
        let capped = outcome.report.iter().find_map(|r| match r {
            DegradationReason::BudgetExhausted {
                scope: BudgetScope::Candidates,
                unresolved,
            } => Some(*unresolved),
            _ => None,
        });
        let unresolved = capped.expect("cap must be reported");
        assert!(unresolved > 0);
        assert_eq!(outcome.stats.uncertain, unresolved);
        assert_eq!(
            outcome
                .uncertain
                .iter()
                .filter(|u| u.cause == UncertainCause::NotEvaluated)
                .count(),
            unresolved
        );
        assert_eq!(outcome.stats.integrations, 3);
        // Accounting: every Phase-1 survivor is answered, rejected, or
        // explicitly uncertain.
        let s = outcome.stats;
        assert_eq!(
            s.phase1_candidates,
            s.pruned_by_fringe
                + s.pruned_by_or
                + s.pruned_by_bf
                + s.accepted_without_integration
                + s.integrations
                + s.uncertain
        );
    }

    #[test]
    fn total_sample_budget_starves_the_tail() {
        use crate::evaluator::SequentialMonteCarloEvaluator;
        let tree = random_tree(3_000, 19);
        // RR alone never sure-accepts, so every Phase-2 survivor needs
        // integration; a 600-sample total budget dries up after at most
        // two objects and starves the rest.
        let mut res =
            ResilientExecutor::new(PrqExecutor::new(StrategySet::RR)).with_budget(EvalBudget {
                max_samples_per_object: 512,
                max_total_samples: 600,
                max_candidates: usize::MAX,
            });
        let mut eval =
            SequentialMonteCarloEvaluator::with_defaults(3).with_early_termination(false);
        let outcome = res
            .execute(
                &tree,
                Vector::from([500.0, 500.0]),
                sigma_paper(),
                25.0,
                0.01,
                &mut eval,
            )
            .unwrap();
        assert!(outcome.stats.phase3_samples <= 600);
        assert!(
            outcome.stats.integrations >= 1,
            "budget admits at least the first object"
        );
        let starved = outcome
            .uncertain
            .iter()
            .filter(|u| u.cause == UncertainCause::NotEvaluated)
            .count();
        assert!(starved > 0, "tail must be starved: {:?}", outcome.stats);
        assert!(outcome.report.iter().any(|r| matches!(
            r,
            DegradationReason::BudgetExhausted {
                scope: BudgetScope::TotalSamples,
                unresolved,
            } if *unresolved == starved
        )));
    }

    /// An evaluator that draws in fixed blocks and reports every sample
    /// it drew, even past its grant — but honors a zero grant.
    struct OverReporting;

    impl ProbabilityEvaluator<2> for OverReporting {
        fn probability(&mut self, _: &Gaussian<2>, _: &Vector<2>, _: f64) -> f64 {
            0.5
        }

        fn evaluate(
            &mut self,
            _: &Gaussian<2>,
            _: &Vector<2>,
            _: f64,
            _: f64,
            max_samples: usize,
        ) -> Result<EvalReport, EvalFailure> {
            if max_samples == 0 {
                return Err(EvalFailure::NoBudget);
            }
            Ok(EvalReport {
                estimate: 0.5,
                samples: 1_000,
                verdict: Verdict::Accept,
                early: false,
            })
        }
    }

    #[test]
    fn over_reporting_evaluator_exhausts_the_total_without_wrapping() {
        let tree = random_tree(3_000, 19);
        let mut res =
            ResilientExecutor::new(PrqExecutor::new(StrategySet::RR)).with_budget(EvalBudget {
                max_samples_per_object: 100,
                max_total_samples: 150,
                max_candidates: usize::MAX,
            });
        let outcome = res
            .execute(
                &tree,
                Vector::from([500.0, 500.0]),
                sigma_paper(),
                25.0,
                0.01,
                &mut OverReporting,
            )
            .unwrap();
        // The first object over-spends the whole total; nothing after
        // it is granted a sample.
        assert_eq!(outcome.stats.integrations, 1);
        assert_eq!(outcome.stats.phase3_samples, 1_000);
        let starved = outcome
            .uncertain
            .iter()
            .filter(|u| u.cause == UncertainCause::NotEvaluated)
            .count();
        assert!(starved > 0, "{:?}", outcome.stats);
        assert_eq!(starved, outcome.uncertain.len());
        assert!(outcome.report.iter().any(|r| matches!(
            r,
            DegradationReason::BudgetExhausted {
                scope: BudgetScope::TotalSamples,
                unresolved,
            } if *unresolved == starved
        )));
    }

    #[test]
    fn unlimited_budget_matches_plain_executor_with_monte_carlo() {
        let tree = random_tree(3_000, 23);
        let (center, delta, theta) = (Vector::from([480.0, 515.0]), 25.0, 0.05);
        let query = PrqQuery::new(center, sigma_paper(), delta, theta).unwrap();
        let plain = PrqExecutor::new(StrategySet::ALL)
            .execute(&tree, &query, &mut MonteCarloEvaluator::new(20_000, 77))
            .unwrap();
        let outcome = ResilientExecutor::new(PrqExecutor::new(StrategySet::ALL))
            .with_budget(EvalBudget::UNLIMITED)
            .execute(
                &tree,
                center,
                sigma_paper(),
                delta,
                theta,
                &mut MonteCarloEvaluator::new(20_000, 77),
            )
            .unwrap();
        assert!(outcome.stats.integrations > 0);
        assert!(outcome.uncertain.is_empty());
        assert!(!outcome.report.is_degraded(), "{}", outcome.report);
        let ids = |answers: &[(&Vector<2>, &usize)]| -> Vec<usize> {
            answers.iter().map(|(_, d)| **d).collect()
        };
        assert_eq!(ids(&outcome.answers), ids(&plain.answers));
        let untimed = |s: QueryStats| QueryStats {
            phase1_time: Default::default(),
            phase2_time: Default::default(),
            phase3_time: Default::default(),
            ..s
        };
        assert_eq!(untimed(outcome.stats), untimed(plain.stats));
    }

    #[test]
    fn report_display_is_readable() {
        let mut report = DegradationReport::new();
        assert_eq!(report.to_string(), "no degradation");
        report.record(DegradationReason::ThetaClamped {
            from: 0.0,
            to: 1e-9,
        });
        report.record(DegradationReason::StrategySwitched {
            from: StrategySet::ALL,
            to: StrategySet::BF,
            cause: SwitchCause::ThetaAboveHalf(0.6),
        });
        let s = report.to_string();
        assert!(s.contains("θ clamped"), "{s}");
        assert!(s.contains("ALL → BF"), "{s}");
    }
}
