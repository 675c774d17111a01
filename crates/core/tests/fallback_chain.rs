//! Exhaustive fallback-chain coverage: every combination of
//! (catalog configuration × θ range × strategy set) must reach a
//! terminal strategy with no error, and the [`DegradationReport`] must
//! name every hop the chain took to get there.

use gprq_core::{
    BfCatalog, DegradationReason, PrqExecutor, Quadrature2dEvaluator, ResilientExecutor, RrCatalog,
    StrategySet, TerminalStrategy,
};
use gprq_linalg::{Matrix, Vector};
use gprq_rtree::{RStarParams, RTree};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CatalogConfig {
    None,
    Matched,
    Mismatched,
    MismatchedRrOnly,
}

const CATALOG_CONFIGS: [CatalogConfig; 4] = [
    CatalogConfig::None,
    CatalogConfig::Matched,
    CatalogConfig::Mismatched,
    CatalogConfig::MismatchedRrOnly,
];

/// θ probes spanning every admission/fallback regime: valid-low,
/// near-half, above-half, clamped-high, clamped-low.
const THETAS: [f64; 5] = [0.01, 0.45, 0.6, 1.3, -0.2];

fn all_strategy_sets() -> [StrategySet; 8] {
    let mut sets = [StrategySet::ALL; 8];
    let mut i = 0;
    for rr in [false, true] {
        for or in [false, true] {
            for bf in [false, true] {
                sets[i] = StrategySet { rr, or, bf };
                i += 1;
            }
        }
    }
    sets
}

fn small_tree() -> RTree<2, u32> {
    let points: Vec<(Vector<2>, u32)> = (0..200)
        .map(|i| {
            (
                Vector::from([(i % 20) as f64 * 30.0, (i / 20) as f64 * 30.0]),
                i,
            )
        })
        .collect();
    RTree::bulk_load(points, RStarParams::paper_default(2))
}

#[test]
fn every_combination_reaches_a_terminal_strategy() {
    let tree = small_tree();
    let sigma = Matrix::identity().scale(400.0);
    let center = Vector::from([300.0, 150.0]);
    let policy_floor = 1e-9;
    let policy_ceiling = 1.0 - 1e-9;

    for config in CATALOG_CONFIGS {
        // Catalogs owned per-config so the executor can borrow them.
        let rr2 = RrCatalog::new(2);
        let bf2 = BfCatalog::new(2);
        let rr3 = RrCatalog::new(3);
        let bf3 = BfCatalog::new(3);
        for theta in THETAS {
            for set in all_strategy_sets() {
                let label = format!("{config:?} θ={theta} {}", set.name());
                let plain = PrqExecutor::new(set);
                let mut exec = ResilientExecutor::new(match config {
                    CatalogConfig::None => plain,
                    CatalogConfig::Matched => plain.with_rr_catalog(&rr2).with_bf_catalog(&bf2),
                    CatalogConfig::Mismatched => plain.with_rr_catalog(&rr3).with_bf_catalog(&bf3),
                    CatalogConfig::MismatchedRrOnly => plain.with_rr_catalog(&rr3),
                });
                let mut eval = Quadrature2dEvaluator::default();
                let outcome = exec
                    .execute(&tree, center, sigma, 50.0, theta, &mut eval)
                    .unwrap_or_else(|e| panic!("{label}: chain must not error, got {e}"));

                // --- Replay the chain's contract step by step. ---------
                let mut expected_hops = 0;

                // 1. Mismatched catalogs are dropped, each with an entry.
                let expected_drops = match config {
                    CatalogConfig::None | CatalogConfig::Matched => 0,
                    CatalogConfig::Mismatched => 2,
                    CatalogConfig::MismatchedRrOnly => 1,
                };
                let drops = outcome
                    .report
                    .iter()
                    .filter(|r| matches!(r, DegradationReason::CatalogDropped { .. }))
                    .count();
                assert_eq!(drops, expected_drops, "{label}: {}", outcome.report);
                expected_hops += expected_drops;

                // 2. θ clamping (admission) happens before strategy hops.
                let effective_theta = if theta <= 0.0 {
                    policy_floor
                } else if theta >= 1.0 {
                    policy_ceiling
                } else {
                    theta
                };
                let clamped = (effective_theta - theta).abs() > 0.0;
                assert_eq!(
                    clamped,
                    outcome
                        .report
                        .iter()
                        .any(|r| matches!(r, DegradationReason::ThetaClamped { .. })),
                    "{label}"
                );
                expected_hops += usize::from(clamped);

                // 3. θ ≥ 1/2 forces any RR/OR user down to BF-only.
                let mut effective_set = set;
                if effective_theta >= 0.5 && (set.rr || set.or) {
                    effective_set = StrategySet::BF;
                    assert!(
                        outcome.report.iter().any(|r| matches!(
                            r,
                            DegradationReason::StrategySwitched { from, to, .. }
                                if *from == set && *to == StrategySet::BF
                        )),
                        "{label}: missing θ≥1/2 hop in {}",
                        outcome.report
                    );
                    expected_hops += 1;
                }

                // 4. Still-invalid sets either pair OR with RR or give up
                //    and scan.
                let expected_terminal = if effective_set.validate().is_ok() {
                    TerminalStrategy::Filtered(effective_set)
                } else if effective_set.or {
                    expected_hops += 1;
                    TerminalStrategy::Filtered(StrategySet::RR_OR)
                } else {
                    expected_hops += 1;
                    TerminalStrategy::NaiveScan
                };
                assert_eq!(
                    outcome.terminal, expected_terminal,
                    "{label}: {}",
                    outcome.report
                );

                // A filtered terminal is always a *valid* strategy set.
                if let TerminalStrategy::Filtered(s) = outcome.terminal {
                    assert!(
                        s.validate().is_ok(),
                        "{label}: invalid terminal {}",
                        s.name()
                    );
                }

                // 5. Every hop is named: no extra entries, none missing.
                assert_eq!(
                    outcome.report.len(),
                    expected_hops,
                    "{label}: {}",
                    outcome.report
                );

                // The run is internally consistent regardless of route.
                assert_eq!(outcome.stats.answers, outcome.answers.len(), "{label}");
                assert_eq!(outcome.stats.uncertain, outcome.uncertain.len(), "{label}");
                if outcome.terminal == TerminalStrategy::NaiveScan {
                    assert_eq!(outcome.stats.phase1_candidates, tree.len(), "{label}");
                }
            }
        }
    }
}

/// Wilson-interval early termination strictly reduces Phase-3 samples
/// versus the fixed-budget baseline on the same workload — the saving
/// the `resilience` bench records in `BENCH_resilience.json`.
#[test]
fn early_termination_reduces_phase3_samples() {
    use gprq_core::{EvalBudget, SequentialMonteCarloEvaluator};
    let tree = small_tree();
    let sigma = Matrix::identity().scale(400.0);
    let center = Vector::from([300.0, 150.0]);
    let budget = EvalBudget {
        max_samples_per_object: 50_000,
        ..EvalBudget::UNLIMITED
    };

    // RR never sure-accepts, so every Phase-2 survivor must be
    // integrated — giving early termination something to save.
    let run = |early: bool| {
        let mut eval =
            SequentialMonteCarloEvaluator::with_defaults(7).with_early_termination(early);
        let mut exec =
            ResilientExecutor::new(PrqExecutor::new(StrategySet::RR)).with_budget(budget);
        exec.execute(&tree, center, sigma, 25.0, 0.05, &mut eval)
            .unwrap()
            .stats
    };
    let with_ci = run(true);
    let without_ci = run(false);

    assert!(with_ci.integrations > 0);
    assert_eq!(with_ci.integrations, without_ci.integrations);
    assert!(
        with_ci.phase3_samples < without_ci.phase3_samples,
        "{} vs {}",
        with_ci.phase3_samples,
        without_ci.phase3_samples
    );
    assert!(with_ci.early_terminations > 0);
    assert_eq!(without_ci.early_terminations, 0);
    assert_eq!(
        without_ci.phase3_samples,
        without_ci.integrations * 50_000,
        "baseline spends the full budget on every candidate"
    );
}

/// The answer set is route-independent: whatever chain a combination
/// takes, an exact evaluator must produce the same answers the plain
/// naive scan does (θ low enough that no admission repair applies).
#[test]
fn degraded_routes_agree_with_each_other() {
    use gprq_core::{execute_naive, PrqQuery};
    let tree = small_tree();
    let sigma = Matrix::identity().scale(400.0);
    let center = Vector::from([300.0, 150.0]);
    let theta = 0.05;

    let query = PrqQuery::new(center, sigma, 25.0, theta).unwrap();
    let mut quad = Quadrature2dEvaluator::default();
    let mut oracle: Vec<u32> = execute_naive(&tree, &query, &mut quad)
        .answers
        .iter()
        .map(|(_, d)| **d)
        .collect();
    oracle.sort_unstable();
    assert!(!oracle.is_empty());

    for set in all_strategy_sets() {
        let mut exec = ResilientExecutor::new(PrqExecutor::new(set));
        let mut eval = Quadrature2dEvaluator::default();
        let outcome = exec
            .execute(&tree, center, sigma, 25.0, theta, &mut eval)
            .unwrap();
        let mut got: Vec<u32> = outcome.answers.iter().map(|(_, d)| **d).collect();
        got.sort_unstable();
        assert_eq!(
            got,
            oracle,
            "set {} (terminal {:?})",
            set.name(),
            outcome.terminal
        );
        assert!(outcome.uncertain.is_empty(), "set {}", set.name());
    }
}
