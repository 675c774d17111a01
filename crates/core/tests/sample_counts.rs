//! Phase-3 sample accounting on every path: the solo `PrqExecutor` +
//! `MonteCarloEvaluator`, the `QueryBatch`, the `ParallelIntegrator`,
//! and the `ResilientExecutor` with either Monte-Carlo evaluator all
//! report the samples behind every estimate. On each,
//! `prq_phase3_samples_total` must equal the sum of the
//! `prq_phase3_samples_per_object` histogram and
//! `QueryStats.phase3_samples` must agree with both; on the fixed-budget
//! paths every integrated object counts the whole cloud.

use gprq_core::ext::parallel::ParallelIntegrator;
use gprq_core::metrics::names;
use gprq_core::{
    MonteCarloEvaluator, PipelineMetrics, ProbabilityEvaluator, PrqExecutor, PrqQuery, QueryBatch,
    ResilientExecutor, SequentialMonteCarloEvaluator, StrategySet,
};
use gprq_linalg::{Matrix, Vector};
use gprq_obs::MetricsSnapshot;
use gprq_rtree::{RStarParams, RTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SAMPLES: usize = 4_000;

fn tree() -> RTree<2, usize> {
    let mut rng = StdRng::seed_from_u64(17);
    let points = (0..3_000)
        .map(|i| {
            (
                Vector::from([rng.gen::<f64>() * 1000.0, rng.gen::<f64>() * 1000.0]),
                i,
            )
        })
        .collect();
    RTree::bulk_load(points, RStarParams::paper_default(2))
}

fn queries() -> Vec<PrqQuery<2>> {
    let s3 = 3.0f64.sqrt();
    let sigma = |gamma: f64| Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(gamma);
    vec![
        PrqQuery::new(Vector::from([500.0, 500.0]), sigma(10.0), 25.0, 0.01).unwrap(),
        PrqQuery::new(Vector::from([520.0, 480.0]), sigma(10.0), 25.0, 0.05).unwrap(),
        PrqQuery::new(Vector::from([250.0, 700.0]), sigma(30.0), 30.0, 0.02).unwrap(),
    ]
}

/// The counter equals the histogram sum, every object counts `SAMPLES`,
/// and the totals match `expected_objects` integrations.
fn assert_counts(snap: &MetricsSnapshot, expected_objects: usize) {
    let total = snap.counter(names::PHASE3_SAMPLES).unwrap();
    let per_object = snap.histogram(names::PHASE3_SAMPLES_PER_OBJECT).unwrap();
    assert!(
        expected_objects > 0,
        "the workload must integrate something"
    );
    assert_eq!(total, per_object.sum, "counter vs per-object histogram sum");
    assert_eq!(per_object.count, expected_objects as u64);
    assert_eq!(per_object.max, SAMPLES as u64);
    assert_eq!(total, (expected_objects * SAMPLES) as u64);
}

#[test]
fn solo_executor_counts_phase3_samples() {
    let tree = tree();
    let metrics = PipelineMetrics::new();
    let executor = PrqExecutor::new(StrategySet::ALL).with_metrics(&metrics);
    let mut integrations = 0;
    for (i, query) in queries().iter().enumerate() {
        let mut eval = MonteCarloEvaluator::new(SAMPLES, i as u64);
        let outcome = executor.execute(&tree, query, &mut eval).unwrap();
        assert_eq!(
            outcome.stats.phase3_samples,
            outcome.stats.integrations * SAMPLES
        );
        integrations += outcome.stats.integrations;
    }
    assert_counts(&metrics.snapshot(), integrations);
}

#[test]
fn query_batch_counts_phase3_samples() {
    let tree = tree();
    let metrics = PipelineMetrics::new();
    let mut batch = QueryBatch::new(
        PrqExecutor::new(StrategySet::ALL).with_metrics(&metrics),
        ParallelIntegrator::new(SAMPLES, 3, 2).unwrap(),
    );
    let outcomes = batch.execute(&tree, &queries()).unwrap();
    let mut integrations = 0;
    for outcome in &outcomes {
        assert_eq!(
            outcome.stats.phase3_samples,
            outcome.stats.integrations * SAMPLES
        );
        integrations += outcome.stats.integrations;
    }
    assert_counts(&metrics.snapshot(), integrations);
}

#[test]
fn parallel_integrator_counts_phase3_samples() {
    let metrics = PipelineMetrics::new();
    let integrator = ParallelIntegrator::new(SAMPLES, 9, 3).unwrap();
    let query = &queries()[0];
    let candidates: Vec<Vector<2>> = (0..40)
        .map(|i| Vector::from([480.0 + i as f64, 500.0 - 0.5 * i as f64]))
        .collect();
    integrator.probabilities_with_metrics(query, &candidates, &metrics);
    integrator.probabilities_with_metrics(query, &candidates[..7], &metrics);
    assert_counts(&metrics.snapshot(), 47);
}

/// Runs every query through the resilient path with a fresh evaluator
/// from `make`, checking the per-query stats against the metrics; returns
/// the snapshot and the summed stats.
fn resilient_counts<E: ProbabilityEvaluator<2>>(
    make: impl Fn(u64) -> E,
) -> (MetricsSnapshot, usize, usize) {
    let tree = tree();
    let metrics = PipelineMetrics::new();
    let mut exec =
        ResilientExecutor::new(PrqExecutor::new(StrategySet::ALL).with_metrics(&metrics));
    let (mut samples, mut integrations) = (0, 0);
    for (i, query) in queries().iter().enumerate() {
        let g = query.gaussian();
        let outcome = exec
            .execute(
                &tree,
                *query.center(),
                *g.covariance(),
                query.delta(),
                query.theta(),
                &mut make(i as u64),
            )
            .unwrap();
        samples += outcome.stats.phase3_samples;
        integrations += outcome.stats.integrations;
    }
    let snap = metrics.snapshot();
    let total = snap.counter(names::PHASE3_SAMPLES).unwrap();
    let per_object = snap.histogram(names::PHASE3_SAMPLES_PER_OBJECT).unwrap();
    assert!(integrations > 0, "the workload must integrate something");
    assert_eq!(total, per_object.sum, "counter vs per-object histogram sum");
    assert_eq!(total, samples as u64, "counter vs QueryStats");
    assert_eq!(per_object.count, integrations as u64);
    (snap, samples, integrations)
}

#[test]
fn resilient_executor_counts_fixed_budget_samples() {
    let (snap, samples, integrations) = resilient_counts(|i| MonteCarloEvaluator::new(SAMPLES, i));
    assert_eq!(samples, integrations * SAMPLES);
    assert_counts(&snap, integrations);
}

#[test]
fn resilient_executor_counts_sequential_samples() {
    let (snap, samples, integrations) =
        resilient_counts(SequentialMonteCarloEvaluator::with_defaults);
    let per_object = snap.histogram(names::PHASE3_SAMPLES_PER_OBJECT).unwrap();
    // Early termination: each object draws whole blocks, at most the
    // paper-default per-object budget.
    assert!(per_object.max <= 100_000);
    assert!(samples < integrations * 100_000);
    assert_eq!(
        samples % SequentialMonteCarloEvaluator::<2>::DEFAULT_BLOCK,
        0
    );
}
