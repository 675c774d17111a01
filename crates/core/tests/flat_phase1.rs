//! Executor-level integration of the cache-conscious flat index: the
//! three-phase [`PrqExecutor`], the [`ResilientExecutor`], and the
//! batched [`QueryBatch`] engine run unchanged over [`FlatRTree`]
//! through [`Phase1Index`], answers match the pointer-tree backends
//! exactly, and — on a frozen image — the Phase-1 counters flow through
//! [`QueryStats`] bitwise.
//!
//! [`Phase1Index`]: gprq_rtree::Phase1Index
//! [`QueryStats`]: gprq_core::QueryStats

use std::collections::BTreeSet;

use gprq_core::ext::parallel::ParallelIntegrator;
use gprq_core::{
    DegradationReport, EvalBudget, MonteCarloEvaluator, PrqExecutor, PrqQuery,
    Quadrature2dEvaluator, QueryBatch, ResilientExecutor, SequentialMonteCarloEvaluator,
    StrategySet, TerminalStrategy, UncertainCause,
};
use gprq_linalg::{Matrix, Vector};
use gprq_rtree::{FlatRTree, Phase1Index, RStarParams, RTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sigma() -> Matrix<2> {
    let s3 = 3.0f64.sqrt();
    Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0)
}

fn random_points(n: usize, seed: u64) -> Vec<(Vector<2>, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            (
                Vector::from([rng.gen::<f64>() * 1000.0, rng.gen::<f64>() * 1000.0]),
                i,
            )
        })
        .collect()
}

fn ids(answers: &[(&Vector<2>, &usize)]) -> BTreeSet<usize> {
    answers.iter().map(|(_, d)| **d).collect()
}

/// What a resilient run decided, in backend-independent form: sorted
/// answer ids, sorted uncertain `(id, cause, estimate bits)`, the report,
/// and the terminal strategy.
type Decided = (
    Vec<usize>,
    Vec<(usize, UncertainCause, Option<u64>)>,
    DegradationReport,
    TerminalStrategy,
);

/// Runs the resilient pipeline over `index` with a sequential Monte
/// Carlo evaluator whose small per-object budget leaves borderline
/// objects uncertain.
fn resilient_run<I: Phase1Index<2, usize>>(index: &I, set: StrategySet, theta: f64) -> Decided {
    let budget = EvalBudget {
        max_samples_per_object: 2_048,
        ..EvalBudget::UNLIMITED
    };
    let outcome = ResilientExecutor::new(PrqExecutor::new(set))
        .with_budget(budget)
        .execute(
            index,
            Vector::from([500.0, 500.0]),
            sigma(),
            25.0,
            theta,
            &mut SequentialMonteCarloEvaluator::with_defaults(5),
        )
        .expect("resilient run");
    let mut answers: Vec<usize> = outcome.answers.iter().map(|(_, d)| **d).collect();
    answers.sort_unstable();
    let mut uncertain: Vec<_> = outcome
        .uncertain
        .iter()
        .map(|u| (*u.data, u.cause, u.estimate.map(f64::to_bits)))
        .collect();
    uncertain.sort_unstable_by_key(|u| u.0);
    (answers, uncertain, outcome.report, outcome.terminal)
}

/// The strategy sets of the resilient parity runs: a clean filtered
/// query, and the empty set, which forces the naive full scan.
const RESILIENT_SETS: [StrategySet; 2] = [
    StrategySet::ALL,
    StrategySet {
        rr: false,
        or: false,
        bf: false,
    },
];

const QUERIES: [(f64, f64, f64, f64); 3] = [
    (500.0, 500.0, 25.0, 0.01),
    (120.0, 830.0, 60.0, 0.05),
    (990.0, 10.0, 40.0, 0.2),
];

#[test]
fn executor_answers_match_across_pointer_and_flat_backends() {
    let points = random_points(3_000, 61);
    let tree = RTree::bulk_load(points.clone(), RStarParams::paper_default(2));
    let frozen = FlatRTree::freeze(tree.clone());
    let packed = FlatRTree::bulk_load(points);
    let executor = PrqExecutor::new(StrategySet::ALL);
    for (cx, cy, delta, theta) in QUERIES {
        let query = PrqQuery::new(Vector::from([cx, cy]), sigma(), delta, theta).unwrap();
        let a = executor
            .execute(&tree, &query, &mut Quadrature2dEvaluator::default())
            .expect("pointer-tree run");
        let b = executor
            .execute(&frozen, &query, &mut Quadrature2dEvaluator::default())
            .expect("frozen-flat run");
        let c = executor
            .execute(&packed, &query, &mut Quadrature2dEvaluator::default())
            .expect("packed-flat run");
        assert_eq!(ids(&a.answers), ids(&b.answers), "({cx}, {cy}) frozen");
        assert_eq!(ids(&a.answers), ids(&c.answers), "({cx}, {cy}) packed");
        // Same candidates through the same filters: the phase-2/3
        // tallies agree across all three backends.
        for other in [&b, &c] {
            assert_eq!(a.stats.phase1_candidates, other.stats.phase1_candidates);
            assert_eq!(a.stats.integrations, other.stats.integrations);
            assert_eq!(a.stats.answers, other.stats.answers);
        }
        // The frozen image shares the pointer tree's topology, so even
        // the Phase-1 access counters are bitwise identical.
        assert_eq!(a.stats.node_accesses, b.stats.node_accesses);
        assert_eq!(a.stats.leaf_hits, b.stats.leaf_hits);
    }
}

#[test]
fn flat_backend_reports_zero_olc_activity() {
    let flat = FlatRTree::bulk_load(random_points(1_000, 67));
    let executor = PrqExecutor::new(StrategySet::ALL);
    let query = PrqQuery::new(Vector::from([500.0, 500.0]), sigma(), 25.0, 0.01).unwrap();
    let outcome = executor
        .execute(&flat, &query, &mut Quadrature2dEvaluator::default())
        .expect("flat run");
    assert!(outcome.stats.node_accesses > 0);
    assert_eq!(outcome.stats.olc_attempts, 0);
    assert_eq!(outcome.stats.olc_retries, 0);
    assert_eq!(outcome.stats.olc_pessimistic_fallbacks, 0);
}

#[test]
fn query_batch_over_flat_backend_matches_solo_runs() {
    const SAMPLES: usize = 1_000;
    const BASE_SEED: u64 = 9_173;
    let flat = FlatRTree::bulk_load(random_points(2_000, 71));
    let queries: Vec<PrqQuery<2>> = QUERIES
        .iter()
        .map(|&(cx, cy, delta, theta)| {
            PrqQuery::new(Vector::from([cx, cy]), sigma(), delta, theta).unwrap()
        })
        .collect();

    let executor = PrqExecutor::new(StrategySet::ALL);
    let integrator =
        ParallelIntegrator::new(SAMPLES, BASE_SEED, 1).expect("non-zero sample budget");
    let mut batch = QueryBatch::new(executor, integrator);
    let outcomes = batch.execute(&flat, &queries).expect("batch execution");
    assert_eq!(outcomes.len(), queries.len());

    for (q, (query, outcome)) in queries.iter().zip(&outcomes).enumerate() {
        let seed = batch.cloud_seed_for(query);
        let mut eval = MonteCarloEvaluator::new(SAMPLES, seed);
        let solo = executor
            .execute(&flat, query, &mut eval)
            .expect("solo execution");
        let batch_ids: Vec<usize> = outcome.answers.iter().map(|(_, d)| **d).collect();
        let solo_ids: Vec<usize> = solo.answers.iter().map(|(_, d)| **d).collect();
        assert_eq!(batch_ids, solo_ids, "query {q}: answers diverge");
        assert_eq!(
            outcome.stats.phase1_candidates, solo.stats.phase1_candidates,
            "query {q}"
        );
        assert_eq!(
            outcome.stats.node_accesses, solo.stats.node_accesses,
            "query {q}"
        );
        assert_eq!(outcome.stats.answers, solo.stats.answers, "query {q}");
    }
}

#[test]
fn resilient_executor_over_frozen_flat_matches_pointer_tree() {
    let tree = RTree::bulk_load(random_points(3_000, 73), RStarParams::paper_default(2));
    let frozen = FlatRTree::freeze(tree.clone());
    let mut uncertain = 0;
    for set in RESILIENT_SETS {
        for theta in [0.01, 0.2] {
            let pointer = resilient_run(&tree, set, theta);
            let flat = resilient_run(&frozen, set, theta);
            assert_eq!(pointer, flat, "{} θ = {theta}", set.name());
            uncertain += pointer.1.len();
        }
    }
    let naive = resilient_run(&frozen, RESILIENT_SETS[1], 0.01);
    assert_eq!(naive.3, TerminalStrategy::NaiveScan);
    assert!(uncertain > 0, "the budget must leave some object uncertain");
}
