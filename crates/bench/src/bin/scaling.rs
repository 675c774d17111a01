//! **Scaling sweep** (extension) — candidate counts and query time as
//! the dataset grows, plus cost-model predictions vs measurements.
//!
//! The paper fixes n = 50,747; this binary sweeps n to confirm the
//! filtering behaviour is density-linear (candidates ∝ n at fixed
//! region geometry) and that Phase-1 index cost stays logarithmic.
//!
//! ```text
//! cargo run -p gprq-bench --release --bin scaling [--trials 3] [--samples 20000]
//! ```

use gprq_bench::{road_tree, row, Args};
use gprq_core::cost::{expected_integrations, region_volumes, DensityEstimate};
use gprq_core::{MonteCarloEvaluator, PrqExecutor, PrqQuery, StrategySet};
use gprq_workloads::{eq34_covariance, random_query_centers};

fn main() {
    let args = Args::parse();
    let trials = args.get("trials", 3usize);
    let samples = args.get("samples", 50_000usize);
    let seed = args.get("seed", 42u64);
    let delta = args.get("delta", 25.0f64);
    let theta = args.get("theta", 0.01f64);
    let gamma = args.get("gamma", 10.0f64);

    println!("Scaling sweep: γ = {gamma}, δ = {delta}, θ = {theta}, {trials} trials/point\n");
    println!(
        "{}",
        row(
            "n",
            &[
                "ALL cand".into(),
                "predicted".into(),
                "node acc".into(),
                "ms/query".into()
            ]
        )
    );

    for n in [6_343usize, 12_686, 25_373, 50_747, 101_494] {
        let tree = road_tree(n, seed);
        let data: Vec<_> = tree.iter().map(|(p, _)| *p).collect();
        let centers = random_query_centers(&data, trials, seed ^ 0xBEEF);
        let sigma = eq34_covariance(gamma);

        let mut integ = 0usize;
        let mut accesses = 0usize;
        let mut ms = 0.0;
        let mut predicted = 0.0;
        for (t, (_, center)) in centers.iter().enumerate() {
            let query = PrqQuery::new(*center, sigma, delta, theta).expect("valid");
            // Cost-model prediction with local density probed via the tree.
            let probe_radius = 100.0;
            let local = tree.query_ball(center, probe_radius).len();
            let density = DensityEstimate::from_probe::<2>(local, probe_radius);
            let volumes = region_volumes(&query, seed + t as u64).expect("θ < 1/2");
            predicted += expected_integrations(&volumes, &density, StrategySet::ALL);

            let mut eval = MonteCarloEvaluator::<2>::new(samples, seed + t as u64);
            let outcome = PrqExecutor::new(StrategySet::ALL)
                .execute(&tree, &query, &mut eval)
                .expect("executes");
            integ += outcome.stats.integrations;
            accesses += outcome.stats.node_accesses;
            ms += outcome.stats.total_time().as_secs_f64() * 1e3;
        }
        let tf = trials as f64;
        println!(
            "{}",
            row(
                &format!("{n}"),
                &[
                    format!("{:.0}", integ as f64 / tf),
                    format!("{:.0}", predicted / tf),
                    format!("{:.0}", accesses as f64 / tf),
                    format!("{:.1}", ms / tf),
                ]
            )
        );
    }

    println!("\nexpected shape: candidates and time scale ~linearly with n (density");
    println!("doubles → candidates double); node accesses grow ~logarithmically;");
    println!("the cost-model prediction tracks the measured ALL column.");
}
