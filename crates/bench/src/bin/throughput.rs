//! **Batch throughput bench guard** — batched vs one-at-a-time query
//! execution on the paper's 9-D Corel-like workload, written to
//! `BENCH_throughput.json` so the batching win is tracked over time.
//!
//! The batch of shared-Σ pseudo-feedback queries (§VI-A: one covariance
//! estimated from neighborhood feedback, probed at many centers) runs
//! through [`QueryBatch`]: one fused R*-tree pass, one cloud grid —
//! drawn and indexed once — reused by every query via the Σ-factor
//! cache, one fused Phase-3 block. The baseline executes the
//! identical queries one at a time through [`PrqExecutor`] with the
//! same derived cloud seeds — the documented parity contract — so both
//! modes produce the same answers and the comparison is pure execution
//! strategy. Passes alternate between the modes and the minimum
//! per-mode wall time is kept, so scheduler noise cancels instead of
//! accumulating into one mode.
//!
//! The cache skips the whole per-query cloud build — the 9-D draw (nine
//! normals plus a 45-multiply triangular transform per sample) and the
//! grid index over it — so the win needs no threads: on the single-core CI runner the binary
//! exits non-zero if batching stops paying at least the ISSUE-9 floor
//! (2×) — it is a guard, not just a report.
//!
//! ```text
//! cargo run -p gprq-bench --release --bin throughput \
//!     [--n 20000] [--batch 16] [--samples 50000] [--passes 3] [--out BENCH_throughput.json]
//! cargo run -p gprq-bench --release --bin throughput -- --check   # validate committed JSON
//! ```

use std::time::Instant;

use gprq_bench::guard::{Bound, Guard};
use gprq_bench::{corel_tree, Args};
use gprq_core::ext::parallel::ParallelIntegrator;
use gprq_core::{cloud_seed, MonteCarloEvaluator, PrqExecutor, PrqQuery, QueryBatch, StrategySet};
use gprq_obs::Histogram;
use gprq_workloads::pseudo_feedback_covariance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bump when the JSON layout changes; `--check` rejects older files.
const SCHEMA: u64 = 1;

/// Minimum tolerated batched/sequential QPS ratio for a shared-Σ batch.
const MIN_RATIO: f64 = 2.0;

/// The guarded metric: `qps_ratio` must stay at or above the floor.
const GUARD: Guard = Guard {
    bench: "throughput",
    schema: SCHEMA,
    metric: "qps_ratio",
    bound: Bound::AtLeast(MIN_RATIO),
};

fn main() {
    let args = Args::parse();
    let out = args.get("out", String::from("BENCH_throughput.json"));
    if args.flag("check") {
        GUARD.check(&out);
        return;
    }

    let n = args.get("n", 20_000usize);
    let batch_size = args.get("batch", 16usize).max(1);
    let samples = args.get("samples", 50_000usize);
    let passes = args.get("passes", 3usize).max(1);
    let seed = args.get("seed", 42u64);
    let delta = args.get("delta", 0.7f64);
    let theta = args.get("theta", 0.4f64);
    let k = args.get("k", 20usize);

    println!("Batch throughput bench: QueryBatch vs one-at-a-time execution");
    println!(
        "dataset: Corel-like substitute (9-D), n = {n}; batch of {batch_size} shared-Σ \
         pseudo-feedback queries; {samples} samples/query; {passes} alternating passes\n"
    );

    let (tree, points) = corel_tree(n, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);

    // One pseudo-feedback covariance (§VI-A) shared by the whole batch:
    // the relevance neighborhood of the first probe center.
    let anchor = rng.gen_range(0..points.len());
    let knn = tree.nearest_neighbors(&points[anchor], k);
    let feedback: Vec<_> = knn.iter().map(|(_, p, _)| **p).collect();
    let sigma = pseudo_feedback_covariance(&feedback);
    let queries: Vec<PrqQuery<9>> = (0..batch_size)
        .map(|_| {
            let idx = rng.gen_range(0..points.len());
            PrqQuery::new(points[idx], sigma, delta, theta).expect("feedback Σ is SPD")
        })
        .collect();

    let seq_latency = Histogram::new();
    let batch_latency = Histogram::new();
    let mut best = [f64::INFINITY; 2]; // [sequential, batched]
    let mut ids = [Vec::new(), Vec::new()];
    for _ in 0..passes {
        // Sequential baseline: the batch module's documented solo
        // contract — per-query evaluator seeded from the covariance.
        let executor = PrqExecutor::new(StrategySet::ALL);
        let started = Instant::now();
        let mut found = Vec::new();
        for query in &queries {
            let q_started = Instant::now();
            let mut eval = MonteCarloEvaluator::new(samples, cloud_seed(seed, query.gaussian()));
            let outcome = executor
                .execute(&tree, query, &mut eval)
                .expect("seed workload executes");
            seq_latency.record_duration(q_started.elapsed());
            found.extend(outcome.answers.iter().map(|(_, id)| **id));
        }
        best[0] = best[0].min(started.elapsed().as_secs_f64());
        ids[0] = found;

        // Batched: one fused pass; the Σ-factor cache draws the offset
        // table once and re-centers it for every query in the batch.
        let integrator = ParallelIntegrator::new(samples, seed, 1).expect("non-zero sample budget");
        let mut batch = QueryBatch::new(PrqExecutor::new(StrategySet::ALL), integrator);
        let started = Instant::now();
        let outcomes = batch
            .execute(&tree, &queries)
            .expect("seed workload executes");
        let elapsed = started.elapsed();
        best[1] = best[1].min(elapsed.as_secs_f64());
        // Per-query latency in batch mode is the amortized share.
        let share = elapsed / u32::try_from(batch_size).expect("batch fits in u32");
        for _ in 0..batch_size {
            batch_latency.record_duration(share);
        }
        ids[1] = outcomes
            .iter()
            .flat_map(|o| o.answers.iter().map(|(_, id)| **id))
            .collect();
    }
    let [seq_secs, batch_secs] = best;

    // Parity: same seeds, same derivation — the batch must return the
    // same answer ids in the same order as the one-at-a-time baseline.
    assert_eq!(ids[0], ids[1], "batched answers diverged from sequential");

    let batch_f = batch_size as f64;
    let seq_qps = batch_f / seq_secs.max(f64::MIN_POSITIVE);
    let batch_qps = batch_f / batch_secs.max(f64::MIN_POSITIVE);
    let ratio = batch_qps / seq_qps.max(f64::MIN_POSITIVE);
    println!("sequential (min of {passes}): {seq_secs:.4} s  ({seq_qps:.2} QPS)");
    println!("batched    (min of {passes}): {batch_secs:.4} s  ({batch_qps:.2} QPS)");
    println!("qps ratio: {ratio:.4} (floor {MIN_RATIO})");
    println!(
        "latency p50/p99 ns — sequential: {}/{}  batched: {}/{}",
        seq_latency.quantile(0.5),
        seq_latency.quantile(0.99),
        batch_latency.quantile(0.5),
        batch_latency.quantile(0.99),
    );

    let json = format!(
        "{{\n  \"schema\": {SCHEMA},\n  \"n\": {n},\n  \"dims\": 9,\n  \
         \"batch_size\": {batch_size},\n  \
         \"samples_per_query\": {samples},\n  \"passes\": {passes},\n  \"seed\": {seed},\n  \
         \"delta\": {delta},\n  \"theta\": {theta},\n  \"k\": {k},\n  \
         \"sequential_secs\": {seq_secs:.6},\n  \"batched_secs\": {batch_secs:.6},\n  \
         \"sequential_qps\": {seq_qps:.4},\n  \"batched_qps\": {batch_qps:.4},\n  \
         \"qps_ratio\": {ratio:.4},\n  \"min_ratio\": {MIN_RATIO},\n  \
         \"sequential_latency_ns\": {{ \"p50\": {}, \"p99\": {} }},\n  \
         \"batched_latency_ns\": {{ \"p50\": {}, \"p99\": {} }}\n}}\n",
        seq_latency.quantile(0.5),
        seq_latency.quantile(0.99),
        batch_latency.quantile(0.5),
        batch_latency.quantile(0.99),
    );
    GUARD.write(&out, &json);

    // Guard: the whole point of the shared-Σ offset cache.
    GUARD.enforce(ratio);
}
