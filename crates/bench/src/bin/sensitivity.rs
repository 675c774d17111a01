//! **§V-B.3 parameter sensitivity** — the paper summarizes three sweeps
//! in text (space limits); this binary regenerates all three as candidate
//! count tables:
//!
//! * δ ∈ {5, 10, 25, 50, 100} — "for a small δ value, the combination
//!   generally becomes more effective; when δ is large, RR and BF have
//!   almost the same filtering regions";
//! * θ ∈ {0.001, 0.01, 0.05, 0.1, 0.3} — "change of θ does not influence
//!   the trend … the processing cost does not increase [from θ = 0.1 to
//!   θ = 0.01] due to the exponential feature of the Gaussian";
//! * Σ axis ratio ∈ {1:1, 2:1, 3:1, 6:1, 10:1} — "when the matrix is
//!   close to a unit matrix the difference between the three strategies
//!   becomes small … a thin ellipsoidal shape increases it".
//!
//! ```text
//! cargo run -p gprq-bench --release --bin sensitivity [--n 50747] [--trials 3]
//! ```

use gprq_bench::{road_tree, row, strategy_header, Args};
use gprq_core::{MonteCarloEvaluator, PrqExecutor, PrqQuery, StrategySet};
use gprq_linalg::Matrix;
use gprq_workloads::{eq34_covariance, random_query_centers, rotated_covariance_2d};

fn main() {
    let args = Args::parse();
    let n = args.get("n", gprq_workloads::ROAD_NETWORK_SIZE);
    let trials = args.get("trials", 3usize);
    let samples = args.get("samples", 50_000usize);
    let seed = args.get("seed", 42u64);

    println!("§V-B.3 sensitivity sweeps: mean #integrations over {trials} trials, n = {n}\n");
    let tree = road_tree(n, seed);
    let data: Vec<_> = tree.iter().map(|(p, _)| *p).collect();
    let centers = random_query_centers(&data, trials, seed ^ 0xABCD);

    let run_row = |label: &str, sigma: Matrix<2>, delta: f64, theta: f64| {
        let mut cells = Vec::new();
        for (_, set) in StrategySet::PAPER_COMBINATIONS {
            let mut total = 0usize;
            for (t, (_, center)) in centers.iter().enumerate() {
                let query = PrqQuery::new(*center, sigma, delta, theta).expect("valid");
                let mut eval = MonteCarloEvaluator::<2>::new(samples, seed + t as u64);
                let outcome = PrqExecutor::new(set)
                    .execute(&tree, &query, &mut eval)
                    .expect("executes");
                total += outcome.stats.integrations;
            }
            cells.push(format!("{:.0}", total as f64 / trials as f64));
        }
        println!("{}", row(label, &cells));
    };

    println!("--- δ sweep (γ = 10, θ = 0.01) ---");
    println!("{}", strategy_header(&[]));
    for delta in [5.0, 10.0, 25.0, 50.0, 100.0] {
        run_row(&format!("δ={delta}"), eq34_covariance(10.0), delta, 0.01);
    }

    println!("\n--- θ sweep (γ = 10, δ = 25) ---");
    println!("{}", strategy_header(&[]));
    for theta in [0.001, 0.01, 0.05, 0.1, 0.3] {
        run_row(&format!("θ={theta}"), eq34_covariance(10.0), 25.0, theta);
    }

    println!("\n--- Σ shape sweep (area-matched to γ = 10's |Σ| = 900, δ = 25, θ = 0.01) ---");
    println!("{}", strategy_header(&[]));
    for ratio in [1.0f64, 2.0, 3.0, 6.0, 10.0] {
        // Keep |Σ| fixed at 900: σ_major·σ_minor = 30, σ_major/σ_minor = ratio.
        let minor = (30.0 / ratio).sqrt();
        let major = (30.0 * ratio).sqrt();
        let sigma = rotated_covariance_2d(major, minor, 0.5);
        run_row(&format!("{ratio}:1"), sigma, 25.0, 0.01);
    }

    println!("\nexpected shapes: (1) with small δ the strategies differ most; (2) the");
    println!("θ rows change slowly (exponential tails); (3) at 1:1 all methods are");
    println!("nearly equal, at 10:1 the combinations win decisively.");
}
