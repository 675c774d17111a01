//! **Shared-cloud Phase-3 bench guard** — wall-clock comparison of the
//! shared-sample grid engine against the per-candidate baseline on the
//! paper-scale workload (≥ 1000 candidates × 100 000 samples), written to
//! `BENCH_phase3.json` so the speedup is tracked over time.
//!
//! Both modes run through [`ParallelIntegrator`] at the same thread
//! count; only [`Phase3Mode`] differs. Passes alternate between the
//! modes and the minimum per-mode wall time is kept, so scheduler noise
//! cancels instead of accumulating into one mode. The binary exits
//! non-zero if the speedup drops below the floor — it is a guard, not
//! just a report. It also cross-checks the two estimates (they use
//! different sample streams, so agreement is statistical, not bitwise)
//! and re-verifies the grid-vs-linear *exact hit-count parity* on the
//! live workload.
//!
//! ```text
//! cargo run -p gprq-bench --release --bin phase3 \
//!     [--candidates 1000] [--samples 100000] [--passes 3] [--threads 0] \
//!     [--out BENCH_phase3.json]
//! cargo run -p gprq-bench --release --bin phase3 -- --check   # validate committed JSON
//! ```

use std::num::NonZeroUsize;
use std::time::Instant;

use gprq_bench::guard::{Bound, Guard};
use gprq_bench::Args;
use gprq_core::ext::parallel::{ParallelIntegrator, Phase3Mode};
use gprq_core::PrqQuery;
use gprq_gaussian::cloud::{CloudGrid, SampleCloud};
use gprq_linalg::Vector;
use gprq_workloads::eq34_covariance;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Bump when the JSON layout changes; `--check` rejects older files.
const SCHEMA: u64 = 1;

/// Minimum tolerated per-candidate/shared-cloud wall-time ratio.
const MIN_SPEEDUP: f64 = 5.0;

/// The guarded metric: `speedup` must stay at or above the floor.
const GUARD: Guard = Guard {
    bench: "phase3",
    schema: SCHEMA,
    metric: "speedup",
    bound: Bound::AtLeast(MIN_SPEEDUP),
};

/// Worst acceptable |shared − per-candidate| across candidates: both are
/// 100 000-sample Monte-Carlo estimates of the same probability, so the
/// gap is bounded by a few standard errors (σ ≤ 0.5/√n ≈ 0.0016).
const MAX_ESTIMATE_GAP: f64 = 0.02;

fn main() {
    let args = Args::parse();
    let out = args.get("out", String::from("BENCH_phase3.json"));
    if args.flag("check") {
        GUARD.check(&out);
        return;
    }

    let candidates = args.get("candidates", 1_000usize);
    let samples = args.get("samples", 100_000usize);
    let passes = args.get("passes", 3usize).max(1);
    let threads = args.get("threads", 0usize);
    let seed = args.get("seed", 42u64);
    let delta = args.get("delta", 25.0f64);
    let theta = args.get("theta", 0.01f64);

    println!("Phase-3 engine bench: shared cloud vs per-candidate sampling");
    println!(
        "{candidates} candidates; {samples} samples; {passes} alternating passes; \
         threads = {threads} (0 = all CPUs)\n"
    );

    let query = PrqQuery::new(
        Vector::from([500.0, 500.0]),
        eq34_covariance(10.0),
        delta,
        theta,
    )
    .expect("bench query is valid");
    let cands = spiral_candidates(candidates);

    let shared = ParallelIntegrator::new(samples, seed, threads)
        .expect("samples > 0")
        .with_mode(Phase3Mode::SharedCloud);
    let baseline = ParallelIntegrator::new(samples, seed, threads)
        .expect("samples > 0")
        .with_mode(Phase3Mode::PerCandidate);

    let mut best = [f64::INFINITY; 2]; // [shared, per-candidate]
    let mut probs: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..passes {
        for (mode, integrator) in [&shared, &baseline].into_iter().enumerate() {
            let started = Instant::now();
            let p = integrator.probabilities(&query, &cands);
            best[mode] = best[mode].min(started.elapsed().as_secs_f64());
            probs[mode] = p;
        }
    }
    let [shared_secs, baseline_secs] = best;
    let speedup = baseline_secs / shared_secs.max(f64::MIN_POSITIVE);

    // Statistical cross-check: different sample streams, same target.
    let worst_gap = probs[0]
        .iter()
        .zip(&probs[1])
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        worst_gap <= MAX_ESTIMATE_GAP,
        "shared-cloud and per-candidate estimates diverged: worst gap {worst_gap}"
    );

    // Exact parity: the grid must count precisely the hits a linear scan
    // of the same cloud counts, for every candidate of the live workload.
    let mut rng = StdRng::seed_from_u64(seed);
    let budget = NonZeroUsize::new(samples).expect("samples > 0");
    let cloud = SampleCloud::draw(query.gaussian().cholesky(), budget, &mut rng);
    let grid = CloudGrid::build(&cloud);
    for c in &cands {
        // Clouds hold offsets from the mean: probe with `c − mean`.
        let c = &(*c - *query.gaussian().mean());
        assert_eq!(
            grid.count_within(c, query.delta()),
            cloud.count_within(c, query.delta()),
            "grid/linear hit-count mismatch at candidate {c:?}"
        );
    }

    println!("shared cloud   (min of {passes}): {shared_secs:.4} s");
    println!("per-candidate  (min of {passes}): {baseline_secs:.4} s");
    println!("speedup: {speedup:.2}x (floor {MIN_SPEEDUP}x)");
    println!("worst estimate gap: {worst_gap:.5} (cap {MAX_ESTIMATE_GAP})");
    println!("grid-vs-linear hit counts: exact match on {candidates} candidates");

    let json = format!(
        "{{\n  \"schema\": {SCHEMA},\n  \"candidates\": {candidates},\n  \
         \"samples\": {samples},\n  \"passes\": {passes},\n  \"threads\": {threads},\n  \
         \"seed\": {seed},\n  \"delta\": {delta},\n  \"theta\": {theta},\n  \
         \"shared_cloud_secs\": {shared_secs:.6},\n  \
         \"per_candidate_secs\": {baseline_secs:.6},\n  \"speedup\": {speedup:.4},\n  \
         \"min_speedup\": {MIN_SPEEDUP},\n  \"worst_estimate_gap\": {worst_gap:.6},\n  \
         \"max_estimate_gap\": {MAX_ESTIMATE_GAP}\n}}\n"
    );
    GUARD.write(&out, &json);

    // Guard: the whole point of drawing the cloud once per query.
    GUARD.enforce(speedup);
}

/// A deterministic spiral of candidates around the query center, mixing
/// near-mean (dense cloud) and fringe (sparse cloud) positions — same
/// shape the integrator unit tests use, scaled up.
fn spiral_candidates(n: usize) -> Vec<Vector<2>> {
    (0..n)
        .map(|i| {
            let angle = i as f64 * 0.37;
            let radius = (i % 60) as f64;
            Vector::from([500.0 + radius * angle.cos(), 500.0 + radius * angle.sin()])
        })
        .collect()
}
