//! Phase-3 sample accounting on the fixed-budget paths: the solo
//! `PrqExecutor` + `MonteCarloEvaluator`, the `QueryBatch`, and the
//! `ParallelIntegrator` all report the samples behind every estimate.
//! On each, `prq_phase3_samples_total` must equal the sum of the
//! `prq_phase3_samples_per_object` histogram, every integrated object
//! must count the whole cloud, and `QueryStats.phase3_samples` must
//! agree with both.

use gprq_core::ext::parallel::ParallelIntegrator;
use gprq_core::metrics::names;
use gprq_core::{
    MonteCarloEvaluator, PipelineMetrics, PrqExecutor, PrqQuery, QueryBatch, StrategySet,
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
