//! Executor-level integration of the concurrent R\*-tree: the
//! three-phase [`PrqExecutor`] and the [`ResilientExecutor`] run
//! unchanged over any [`Phase1Index`], the answers match the
//! single-writer tree exactly,
//! and the OLC contention statistics flow end-to-end — `SearchStats` →
//! [`QueryStats`] → the `prq_olc_*` pipeline metrics.
//!
//! [`Phase1Index`]: gprq_rtree::Phase1Index
//! [`QueryStats`]: gprq_core::QueryStats

use std::collections::BTreeSet;

use gprq_core::metrics::names;
use gprq_core::{
    DegradationReport, EvalBudget, PipelineMetrics, PrqExecutor, PrqQuery, Quadrature2dEvaluator,
    ResilientExecutor, SequentialMonteCarloEvaluator, StrategySet, TerminalStrategy,
    UncertainCause,
};
use gprq_linalg::{Matrix, Vector};
use gprq_rtree::{ConcurrentRTree, Phase1Index, RStarParams, RTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sigma() -> Matrix<2> {
    let s3 = 3.0f64.sqrt();
    Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0)
}

fn paired_trees(n: usize, seed: u64) -> (RTree<2, usize>, ConcurrentRTree<2, usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let points: Vec<(Vector<2>, usize)> = (0..n)
        .map(|i| {
            (
                Vector::from([rng.gen::<f64>() * 1000.0, rng.gen::<f64>() * 1000.0]),
                i,
            )
        })
        .collect();
    let conc: ConcurrentRTree<2, usize> = ConcurrentRTree::new();
    for (p, d) in &points {
        conc.insert(*p, *d);
    }
    (
        RTree::bulk_load(points, RStarParams::paper_default(2)),
        conc,
    )
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

#[test]
fn executor_answers_match_between_sequential_and_concurrent_trees() {
    let (seq, conc) = paired_trees(3_000, 41);
    let executor = PrqExecutor::new(StrategySet::ALL);
    for (cx, cy, delta, theta) in [
        (500.0, 500.0, 25.0, 0.01),
        (120.0, 830.0, 60.0, 0.05),
        (990.0, 10.0, 40.0, 0.2),
    ] {
        let query = PrqQuery::new(Vector::from([cx, cy]), sigma(), delta, theta).unwrap();
        let a = executor
            .execute(&seq, &query, &mut Quadrature2dEvaluator::default())
            .expect("sequential run");
        let b = executor
            .execute(&conc, &query, &mut Quadrature2dEvaluator::default())
            .expect("concurrent run");
        assert_eq!(
            ids(&a.answers),
            ids(&b.answers),
            "({cx}, {cy}) answers diverged"
        );
        // Same records, same filters: the phase-2/3 tallies agree too.
        assert_eq!(a.stats.phase1_candidates, b.stats.phase1_candidates);
        assert_eq!(a.stats.integrations, b.stats.integrations);
        assert_eq!(a.stats.answers, b.stats.answers);
    }
}

#[test]
fn olc_stats_flow_into_query_stats_and_pipeline_metrics() {
    let (_, conc) = paired_trees(2_000, 43);
    let metrics = PipelineMetrics::new();
    let executor = PrqExecutor::new(StrategySet::ALL).with_metrics(&metrics);
    let query = PrqQuery::new(Vector::from([500.0, 500.0]), sigma(), 25.0, 0.01).unwrap();
    let outcome = executor
        .execute(&conc, &query, &mut Quadrature2dEvaluator::default())
        .expect("concurrent run");

    // Quiescent tree: one optimistic attempt per visited node, no
    // retries, no pessimistic fallback.
    assert!(outcome.stats.olc_attempts >= outcome.stats.node_accesses);
    assert!(outcome.stats.node_accesses > 0);
    assert_eq!(outcome.stats.olc_retries, 0);
    assert_eq!(outcome.stats.olc_pessimistic_fallbacks, 0);
    assert_eq!(
        outcome.stats.olc_retry_depth[0], outcome.stats.olc_attempts,
        "first-attempt validations all land in depth bucket 0"
    );

    // The same numbers surface in the registry under the prq_olc_* names.
    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter(names::OLC_ATTEMPTS),
        Some(u64::try_from(outcome.stats.olc_attempts).unwrap())
    );
    assert_eq!(snap.counter(names::OLC_RETRIES), Some(0));
    assert_eq!(snap.counter(names::OLC_PESSIMISTIC_FALLBACKS), Some(0));
    let depth = snap
        .histogram(names::OLC_RETRY_DEPTH)
        .expect("depth histogram registered");
    assert_eq!(
        depth.count,
        u64::try_from(outcome.stats.olc_attempts).unwrap()
    );
    assert_eq!(depth.sum, 0, "zero retries everywhere on a quiescent tree");
}

#[test]
fn sequential_tree_reports_zero_olc_activity() {
    let (seq, _) = paired_trees(1_000, 47);
    let metrics = PipelineMetrics::new();
    let executor = PrqExecutor::new(StrategySet::ALL).with_metrics(&metrics);
    let query = PrqQuery::new(Vector::from([500.0, 500.0]), sigma(), 25.0, 0.01).unwrap();
    let outcome = executor
        .execute(&seq, &query, &mut Quadrature2dEvaluator::default())
        .expect("sequential run");
    assert_eq!(outcome.stats.olc_attempts, 0);
    assert_eq!(outcome.stats.olc_retries, 0);
    assert_eq!(outcome.stats.olc_pessimistic_fallbacks, 0);
    let snap = metrics.snapshot();
    assert_eq!(snap.counter(names::OLC_ATTEMPTS), Some(0));
    assert_eq!(
        snap.histogram(names::OLC_RETRY_DEPTH).map(|h| h.count),
        Some(0)
    );
}

#[test]
fn resilient_executor_over_concurrent_tree_matches_sequential_tree() {
    let (seq, conc) = paired_trees(3_000, 49);
    let mut uncertain = 0;
    for set in RESILIENT_SETS {
        for theta in [0.01, 0.2] {
            let sequential = resilient_run(&seq, set, theta);
            let concurrent = resilient_run(&conc, set, theta);
            assert_eq!(sequential, concurrent, "{} θ = {theta}", set.name());
            uncertain += sequential.1.len();
        }
    }
    let naive = resilient_run(&conc, RESILIENT_SETS[1], 0.01);
    assert_eq!(naive.3, TerminalStrategy::NaiveScan);
    assert!(uncertain > 0, "the budget must leave some object uncertain");
}
