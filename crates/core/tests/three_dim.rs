//! Three-dimensional coverage — the paper's other motivating spatial
//! case ("not limited to 2D or 3D", §I). Exercises every strategy at
//! `D = 3`, where the paper-faithful fringe filter is inactive and the
//! generalized one is not, and validates against the naive baseline
//! under a shared-sample evaluator.

use gprq_core::{
    execute_naive, FringeMode, MonteCarloEvaluator, PrqExecutor, PrqQuery, StrategySet,
};
use gprq_linalg::{Matrix, Vector};
use gprq_rtree::{RStarParams, RTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn airspace_tree(n: usize, seed: u64) -> RTree<3, usize> {
    // Aircraft-like positions: wide x/y extent, thin altitude band.
    let mut rng = StdRng::seed_from_u64(seed);
    let points = (0..n)
        .map(|i| {
            (
                Vector::from([
                    rng.gen::<f64>() * 1000.0,
                    rng.gen::<f64>() * 1000.0,
                    rng.gen::<f64>() * 120.0,
                ]),
                i,
            )
        })
        .collect();
    RTree::bulk_load(points, RStarParams::paper_default(3))
}

fn pose_covariance() -> Matrix<3> {
    // Horizontal uncertainty dominates vertical (GPS-like), tilted in xy.
    let mut m = Matrix::from_rows([[400.0, 120.0, 0.0], [120.0, 250.0, 0.0], [0.0, 0.0, 25.0]]);
    m[(0, 2)] = 10.0;
    m[(2, 0)] = 10.0;
    m
}

#[test]
fn strategies_agree_in_3d() {
    let tree = airspace_tree(15_000, 1);
    let q = PrqQuery::new(
        Vector::from([500.0, 500.0, 60.0]),
        pose_covariance(),
        50.0,
        0.05,
    )
    .unwrap();
    let mut reference: Option<Vec<usize>> = None;
    for (name, set) in StrategySet::PAPER_COMBINATIONS {
        let mut eval = MonteCarloEvaluator::<3>::new(60_000, 7);
        let outcome = PrqExecutor::new(set).execute(&tree, &q, &mut eval).unwrap();
        let mut ids: Vec<usize> = outcome.answers.iter().map(|(_, d)| **d).collect();
        ids.sort_unstable();
        match &reference {
            None => reference = Some(ids),
            Some(r) => assert_eq!(&ids, r, "3-D strategy {name}"),
        }
    }
    assert!(!reference.unwrap().is_empty());
}

#[test]
fn matches_naive_in_3d() {
    let tree = airspace_tree(6_000, 2);
    let q = PrqQuery::new(
        Vector::from([300.0, 700.0, 40.0]),
        pose_covariance(),
        60.0,
        0.1,
    )
    .unwrap();
    let mut eval = MonteCarloEvaluator::<3>::new(60_000, 3);
    let filtered = PrqExecutor::new(StrategySet::ALL)
        .execute(&tree, &q, &mut eval)
        .unwrap();
    let mut eval = MonteCarloEvaluator::<3>::new(60_000, 3);
    let naive = execute_naive(&tree, &q, &mut eval);
    let ids = |o: &gprq_core::PrqOutcome<'_, 3, usize>| {
        let mut v: Vec<usize> = o.answers.iter().map(|(_, d)| **d).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(ids(&filtered), ids(&naive));
    assert!(filtered.stats.integrations < naive.stats.integrations / 4);
}

#[test]
fn generalized_fringe_prunes_in_3d() {
    // At D = 3 the paper-faithful fringe is off; the generalized filter
    // prunes the 8 corner regions of the search box.
    let tree = airspace_tree(15_000, 3);
    let q = PrqQuery::new(
        Vector::from([500.0, 500.0, 60.0]),
        pose_covariance(),
        50.0,
        0.05,
    )
    .unwrap();
    let run = |mode: FringeMode| {
        let mut eval = MonteCarloEvaluator::<3>::new(60_000, 11);
        PrqExecutor::new(StrategySet::RR)
            .with_fringe_mode(mode)
            .execute(&tree, &q, &mut eval)
            .unwrap()
    };
    let faithful = run(FringeMode::PaperFaithful);
    let general = run(FringeMode::AllDimensions);
    assert!(
        general.stats.pruned_by_fringe > 0,
        "3-D corners should be pruned by the generalized fringe"
    );
    assert_eq!(faithful.stats.pruned_by_fringe, 0);
    assert_eq!(faithful.stats.answers, general.stats.answers);
}
