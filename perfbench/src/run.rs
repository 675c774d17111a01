//! The four workloads: set-up, the closed query loop, the answer check
//! and the metrics of an untraced or a traced run.

use std::time::Instant;

use gprq_core::ext::parallel::ParallelIntegrator;
use gprq_core::{
    MonteCarloEvaluator, PrqError, PrqExecutor, PrqQuery, QueryBatch, QueryStats, StrategySet,
};
use gprq_linalg::{Matrix, Vector};
use gprq_rtree::{RStarParams, RTree};
use gprq_workloads::{
    corel_like_9d, eq34_covariance, pseudo_feedback_covariance, road_network_2d,
    rotated_covariance_2d,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::{self, Basis, IndependentMonteCarlo, Quadrature, QuerySpec, Reference};
use crate::gauge::Gauge;
use crate::trace::{timed, Layer, TracedEval, TracedIndex, Tracer};

/// The data sets are the paper's, fixed, and so are the update probe's
/// moves; `--seed` draws the queries, the churn moves and every Monte
/// Carlo stream.
const DATA_SEED: u64 = 42;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
/// Untimed calls before the timed loop.
const WARMUP_CALLS: u64 = 3;

const ROAD_DELTA: f64 = 25.0;
const ROAD_THETA: f64 = 0.01;
const ROAD_SAMPLES: usize = 100_000;
const GAMMAS: [f64; 3] = [1.0, 10.0, 100.0];

const COREL_DELTA: f64 = 0.7;
const COREL_THETA: f64 = 0.4;
const COREL_SAMPLES: usize = 50_000;
const FEEDBACK_K: usize = 20;

/// The host-speed gauge of a data set: clouds of the workload's sample
/// count, and the gauge's median pass time on the reference host (the
/// 2-vCPU KVM guest of the figures in METRICS.md, in a fast spell).
#[derive(Debug, Clone, Copy)]
struct GaugeSpec {
    samples: usize,
    reference_ms: f64,
}

const ROAD_GAUGE: GaugeSpec = GaugeSpec {
    samples: ROAD_SAMPLES,
    reference_ms: 7.0,
};
const COREL_GAUGE: GaugeSpec = GaugeSpec {
    samples: COREL_SAMPLES,
    reference_ms: 12.0,
};

const BATCH_SIZE: usize = 8;
const HEADINGS: usize = 16;
/// γ ∈ {1, 10, 100} × 16 headings.
const DEVICE_CLASSES: usize = GAMMAS.len() * HEADINGS;

const MOVES_PER_TICK: usize = 1_000;
/// Largest move, as a share of the data's mean bounding-box side
/// (10 units on the 1000-wide road network).
const MOVE_FRACTION: f64 = 0.01;
/// Update-probe chunks per run of a read-only workload, and timed ticks
/// per chunk: 300 ticks, 30 beyond p90. Many short chunks spread the ticks
/// over the run, so a slow spell of the host weighs on the probe's p90 as
/// little as on the calls'.
const PROBE_CHUNKS: u64 = 60;
const PROBE_CHUNK_TICKS: u64 = 5;

/// Query centres of the solo workloads come from this many strata of
/// local density (a power of two), each holding `STRATUM_SIZE` candidates.
const STRATA: usize = 128;
const STRATUM_SIZE: usize = 16;

/// Sample counts of the staged, independent Monte Carlo reference of the
/// 9-D check.
const REFERENCE_STAGES: [usize; 2] = [10_000, 50_000];

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1Road2d,
    Table3Corel9d,
    Road2dSigmaBatch,
    Road2dChurn,
}

impl Workload {
    pub const NAMES: [&'static str; 4] = [
        "table1-road2d",
        "table3-corel9d",
        "road2d-sigma-batch",
        "road2d-churn",
    ];
    const ALL: [Workload; 4] = [
        Workload::Table1Road2d,
        Workload::Table3Corel9d,
        Workload::Road2dSigmaBatch,
        Workload::Road2dChurn,
    ];

    pub fn from_name(name: &str) -> Option<Self> {
        Self::NAMES
            .iter()
            .position(|n| *n == name)
            .map(|i| Self::ALL[i])
    }

    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent random streams, one per (purpose, index).
#[derive(Debug, Clone, Copy)]
enum Stream {
    Query = 1,
    Eval,
    Warmup,
    Moves,
    Probe,
    Reference,
    BatchIntegrator,
    Centers,
}

fn stream_seed(seed: u64, stream: Stream, i: u64) -> u64 {
    splitmix(splitmix(seed ^ splitmix(stream as u64)) ^ i)
}

fn rng(seed: u64, stream: Stream, i: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(seed, stream, i))
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A data set and its paper-default R*-tree (payload = object id).
struct Dataset<const D: usize> {
    points: Vec<Vector<D>>,
    tree: RTree<D, u32>,
    move_max: f64,
}

/// Set-up times of one run.
struct Setup {
    total_s: Vec<f64>,
    bulk_load_s: Vec<f64>,
}

fn build<const D: usize>(generate: fn() -> Vec<Vector<D>>, setup: &mut Setup) -> Dataset<D> {
    let started = Instant::now();
    let points = generate();
    let records = points
        .iter()
        .enumerate()
        .map(|(i, p)| (*p, i as u32))
        .collect();
    let load = Instant::now();
    let tree = RTree::bulk_load(records, RStarParams::paper_default(D));
    setup.bulk_load_s.push(secs(load));
    setup.total_s.push(secs(started));
    let move_max = tree.bounding_rect().map_or(0.0, |r| {
        (0..D).map(|d| r.hi[d] - r.lo[d]).sum::<f64>() / D as f64 * MOVE_FRACTION
    });
    Dataset {
        points,
        tree,
        move_max,
    }
}

/// Builds the data set `SETUP_REPEATS` times and keeps the last.
fn set_up<const D: usize>(generate: fn() -> Vec<Vector<D>>) -> (Dataset<D>, Setup) {
    let mut setup = Setup {
        total_s: Vec::new(),
        bulk_load_s: Vec::new(),
    };
    let mut data = build(generate, &mut setup);
    for _ in 1..SETUP_REPEATS {
        drop(data);
        data = build(generate, &mut setup);
    }
    (data, setup)
}

fn road() -> Vec<Vector<2>> {
    road_network_2d(gprq_workloads::ROAD_NETWORK_SIZE, DATA_SEED)
}

fn corel() -> Vec<Vector<9>> {
    corel_like_9d(gprq_workloads::COREL_SIZE, DATA_SEED)
}

/// When a pass stops: after a wall time, or after a number of calls.
#[derive(Debug, Clone, Copy)]
enum Stop {
    Seconds(f64),
    Calls(u64),
}

impl Stop {
    fn done(self, calls: u64, started: Instant) -> bool {
        match self {
            Stop::Seconds(s) => secs(started) >= s,
            Stop::Calls(n) => calls >= n,
        }
    }
}

/// One query's answer, kept for the check.
struct Record<const D: usize> {
    spec: QuerySpec<D>,
    /// Sorted answer ids, or the error the call returned.
    answers: Result<Vec<u32>, String>,
    /// The churn tick whose tree state the query saw.
    tick: Option<u64>,
}

/// What one pass of the closed loop measured.
struct Pass<const D: usize> {
    records: Vec<Record<D>>,
    stats: QueryStats,
    /// Latency of each call the caller waits on.
    call_ms: Vec<f64>,
    /// Latency of each tick's batch of moves.
    update_ms: Vec<f64>,
    moves: u64,
    calls: u64,
    wall_s: f64,
    /// Σ-cache hits, misses and evictions during the pass.
    cache: [u64; 3],
    gauge: Gauge<D>,
    gauge_reference_ms: f64,
}

impl<const D: usize> Pass<D> {
    fn new(gauge: GaugeSpec) -> Self {
        Pass {
            records: Vec::new(),
            stats: QueryStats::default(),
            call_ms: Vec::new(),
            update_ms: Vec::new(),
            moves: 0,
            calls: 0,
            wall_s: 0.0,
            cache: [0; 3],
            gauge: Gauge::new(gauge.samples),
            gauge_reference_ms: gauge.reference_ms,
        }
    }

    /// Factor that scales this run's wall times to the reference host
    /// speed: the gauge's reference pass time over its median pass time
    /// in the run.
    fn speed_factor(&self) -> f64 {
        self.gauge_reference_ms / self.gauge.median_ms().0
    }

    fn push(&mut self, spec: QuerySpec<D>, result: Result<Answer, PrqError>) {
        self.push_tick(spec, result.map_err(|e| e.to_string()), None);
    }

    fn push_tick(&mut self, spec: QuerySpec<D>, result: Result<Answer, String>, tick: Option<u64>) {
        let answers = result.map(|(mut ids, stats)| {
            self.stats.merge(&stats);
            ids.sort_unstable();
            ids
        });
        self.records.push(Record {
            spec,
            answers,
            tick,
        });
    }

    fn queries(&self) -> u64 {
        self.records.len() as u64
    }
}

/// A call's answer ids and the statistics it returned.
type Answer = (Vec<u32>, QueryStats);

/// One query through `PrqQuery::new` and `PrqExecutor::execute` with a
/// per-query seeded `MonteCarloEvaluator`: the call the caller waits on.
fn solo_query<const D: usize>(
    tree: &RTree<D, u32>,
    spec: &QuerySpec<D>,
    eval_seed: u64,
    tracer: Option<&Tracer>,
) -> Result<Answer, PrqError> {
    let query = timed(tracer, Layer::QueryNew, || {
        PrqQuery::new(spec.center, spec.sigma, spec.delta, spec.theta)
    })?;
    let exec = PrqExecutor::new(StrategySet::ALL);
    let ids = |answers: &[(&Vector<D>, &u32)]| answers.iter().map(|(_, id)| **id).collect();
    match tracer {
        None => {
            let mut eval = MonteCarloEvaluator::<D>::new(spec.samples, eval_seed);
            let out = exec.execute(tree, &query, &mut eval)?;
            Ok((ids(&out.answers), out.stats))
        }
        Some(t) => {
            let index = TracedIndex::new(tree, t);
            let mut eval =
                TracedEval::new(t, || MonteCarloEvaluator::<D>::new(spec.samples, eval_seed));
            let out = {
                let _span = t.span(Layer::Execute);
                exec.execute(&index, &query, &mut eval)?
            };
            Ok((ids(&out.answers), out.stats))
        }
    }
}

fn road_spec(center: Vector<2>, sigma: Matrix<2>) -> QuerySpec<2> {
    QuerySpec {
        center,
        sigma,
        delta: ROAD_DELTA,
        theta: ROAD_THETA,
        samples: ROAD_SAMPLES,
    }
}

/// Query centres drawn from the data, stratified by local density.
///
/// A query's cost follows the density around its centre, and in 9-D it
/// is heavy-tailed, so plain draws give each run its own mix of sparse
/// and dense centres and the latency quantiles move with the seed. Here
/// a seeded pool of data points is sorted by the distance to its
/// `FEEDBACK_K`-th nearest neighbour and cut into `STRATA` equal strata.
/// Call `i` draws a pool member from stratum `order(i)`, which visits the
/// strata in bit-reversed order from a seeded offset: any `2^j`
/// consecutive calls from a multiple of `2^j` cover `2^j` evenly spaced
/// strata, so every run, however long, sees the densities in the data's
/// proportions.
struct Centers<const D: usize> {
    /// Pool members, sparsest stratum first.
    pool: Vec<Vector<D>>,
    offset: usize,
}

impl<const D: usize> Centers<D> {
    fn new(data: &Dataset<D>, seed: u64) -> Self {
        let mut r = rng(seed, Stream::Centers, 0);
        let mut pool: Vec<(f64, Vector<D>)> = (0..STRATA * STRATUM_SIZE)
            .map(|_| {
                let c = data.points[r.gen_range(0..data.points.len())];
                let knn = data.tree.nearest_neighbors(&c, FEEDBACK_K);
                (knn.last().map_or(0.0, |(d, _, _)| *d), c)
            })
            .collect();
        pool.sort_by(|a, b| b.0.total_cmp(&a.0));
        Centers {
            pool: pool.into_iter().map(|(_, c)| c).collect(),
            offset: r.gen_range(0..STRATA),
        }
    }

    /// The centre of call `i` of `stream`.
    fn get(&self, seed: u64, stream: Stream, i: u64) -> Vector<D> {
        let bits = STRATA.trailing_zeros();
        let slot = (i as usize % STRATA).reverse_bits() >> (usize::BITS - bits);
        let stratum = (slot + self.offset) % STRATA;
        let member = rng(seed, stream, i).gen_range(0..STRATUM_SIZE);
        self.pool[stratum * STRATUM_SIZE + member]
    }
}

/// Table I/II: Eq. 34 Σ with γ cycling 1/10/100, one query per call.
fn table1_query(centers: &Centers<2>, seed: u64, stream: Stream, i: u64) -> QuerySpec<2> {
    road_spec(
        centers.get(seed, stream, i),
        eq34_covariance(GAMMAS[(i % 3) as usize]),
    )
}

fn pass_table1(
    data: &Dataset<2>,
    seed: u64,
    stop: Stop,
    tracer: Option<&Tracer>,
    probe: Option<&mut Probe<2>>,
) -> Pass<2> {
    let centers = Centers::new(data, seed);
    for i in 0..WARMUP_CALLS {
        let spec = table1_query(&centers, seed, Stream::Warmup, i);
        let _ = solo_query(
            &data.tree,
            &spec,
            stream_seed(seed, Stream::Warmup, i),
            None,
        );
    }
    closed_loop(stop, tracer, probe, ROAD_GAUGE, |i, pass| {
        let spec = table1_query(&centers, seed, Stream::Query, i);
        let call = Instant::now();
        let result = solo_query(
            &data.tree,
            &spec,
            stream_seed(seed, Stream::Eval, i),
            tracer,
        );
        pass.call_ms.push(secs(call) * 1e3);
        pass.push(spec, result);
    })
}

/// Table III: Eq. 35 pseudo-feedback Σ over the centre's 20 nearest
/// neighbours, found inside the timed call.
fn table3_call(
    data: &Dataset<9>,
    center: Vector<9>,
    eval_seed: u64,
    tracer: Option<&Tracer>,
) -> (QuerySpec<9>, Result<Answer, PrqError>) {
    let knn: Vec<Vector<9>> = timed(tracer, Layer::Knn, || {
        data.tree
            .nearest_neighbors(&center, FEEDBACK_K)
            .iter()
            .map(|(_, p, _)| **p)
            .collect()
    });
    let sigma = timed(tracer, Layer::FeedbackSigma, || {
        pseudo_feedback_covariance(&knn)
    });
    let spec = QuerySpec {
        center,
        sigma,
        delta: COREL_DELTA,
        theta: COREL_THETA,
        samples: COREL_SAMPLES,
    };
    let result = solo_query(&data.tree, &spec, eval_seed, tracer);
    (spec, result)
}

fn pass_table3(
    data: &Dataset<9>,
    seed: u64,
    stop: Stop,
    tracer: Option<&Tracer>,
    probe: Option<&mut Probe<9>>,
) -> Pass<9> {
    let centers = Centers::new(data, seed);
    for i in 0..WARMUP_CALLS {
        let c = centers.get(seed, Stream::Warmup, i);
        let _ = table3_call(data, c, stream_seed(seed, Stream::Warmup, i), None);
    }
    closed_loop(stop, tracer, probe, COREL_GAUGE, |i, pass| {
        let c = centers.get(seed, Stream::Query, i);
        let call = Instant::now();
        let (spec, result) = table3_call(data, c, stream_seed(seed, Stream::Eval, i), tracer);
        pass.call_ms.push(secs(call) * 1e3);
        pass.push(spec, result);
    })
}

/// Device class `c`: Eq. 34's 3:1 ellipse at γ = GAMMAS[c / 16], heading
/// (c mod 16)·π/16.
fn device_sigma(class: usize) -> Matrix<2> {
    let gamma = GAMMAS[class / HEADINGS];
    let heading = (class % HEADINGS) as f64 * std::f64::consts::PI / HEADINGS as f64;
    rotated_covariance_2d(3.0 * gamma.sqrt(), gamma.sqrt(), heading)
}

fn batch_call(
    batch: &mut QueryBatch<'_, 2>,
    tree: &RTree<2, u32>,
    specs: &[QuerySpec<2>],
    tracer: Option<&Tracer>,
) -> Vec<Result<Answer, PrqError>> {
    let queries: Result<Vec<PrqQuery<2>>, PrqError> = specs
        .iter()
        .map(|s| {
            timed(tracer, Layer::QueryNew, || {
                PrqQuery::new(s.center, s.sigma, s.delta, s.theta)
            })
        })
        .collect();
    let queries = match queries {
        Ok(q) => q,
        Err(e) => return specs.iter().map(|_| Err(e.clone())).collect(),
    };
    let collect = |outcomes: Vec<gprq_core::BatchOutcome<'_, 2, u32>>| {
        outcomes
            .into_iter()
            .map(|o| Ok((o.answers.iter().map(|(_, id)| **id).collect(), o.stats)))
            .collect()
    };
    let result = match tracer {
        None => batch.execute(tree, &queries).map(collect),
        Some(t) => {
            let index = TracedIndex::new(tree, t);
            let _span = t.span(Layer::BatchExecute);
            batch.execute(&index, &queries).map(collect)
        }
    };
    result.unwrap_or_else(|e| specs.iter().map(|_| Err(e.clone())).collect())
}

/// One long-lived `QueryBatch` serving calls of 8 same-Σ queries, Σ from
/// 48 device classes: more than the Σ-factor cache's 32 entries.
fn pass_batch(
    data: &Dataset<2>,
    seed: u64,
    stop: Stop,
    tracer: Option<&Tracer>,
    probe: Option<&mut Probe<2>>,
) -> Pass<2> {
    let integrator = ParallelIntegrator::new(
        ROAD_SAMPLES,
        stream_seed(seed, Stream::BatchIntegrator, 0),
        1,
    )
    .expect("the sample budget is positive");
    let mut batch = QueryBatch::new(PrqExecutor::new(StrategySet::ALL), integrator);
    // Warm the Σ cache: one single-query call per class, in a seeded
    // order, leaves the cache full as in steady state.
    let mut order: Vec<usize> = (0..DEVICE_CLASSES).collect();
    let mut r = rng(seed, Stream::Warmup, 0);
    for k in (1..order.len()).rev() {
        order.swap(k, r.gen_range(0..=k));
    }
    for class in order {
        let center = data.points[r.gen_range(0..data.points.len())];
        let _ = batch_call(
            &mut batch,
            &data.tree,
            &[road_spec(center, device_sigma(class))],
            None,
        );
    }
    let cache = |b: &QueryBatch<'_, 2>| {
        let c = b.cache();
        [c.hits(), c.misses(), c.evictions()]
    };
    let before = cache(&batch);
    let mut pass = closed_loop(stop, tracer, probe, ROAD_GAUGE, |j, pass| {
        let mut r = rng(seed, Stream::Query, j);
        // γ cycles over calls as in `table1-road2d`; the heading is drawn.
        let sigma = device_sigma((j % 3) as usize * HEADINGS + r.gen_range(0..HEADINGS));
        let specs: Vec<QuerySpec<2>> = (0..BATCH_SIZE)
            .map(|_| road_spec(data.points[r.gen_range(0..data.points.len())], sigma))
            .collect();
        let call = Instant::now();
        let results = batch_call(&mut batch, &data.tree, &specs, tracer);
        pass.call_ms.push(secs(call) * 1e3);
        for (spec, result) in specs.into_iter().zip(results) {
            pass.push(spec, result);
        }
    });
    let after = cache(&batch);
    pass.cache = std::array::from_fn(|k| after[k] - before[k]);
    pass
}

/// The moves of tick `tick`: `(id, offset)` with a random direction and a
/// length uniform in `[0, move_max)`.
fn tick_moves<const D: usize>(
    seed: u64,
    stream: Stream,
    tick: u64,
    n: usize,
    move_max: f64,
) -> Vec<(u32, Vector<D>)> {
    let mut r = rng(seed, stream, tick);
    (0..MOVES_PER_TICK)
        .map(|_| {
            let id = r.gen_range(0..n) as u32;
            let dir = Vector::<D>::from_fn(|_| r.gen::<f64>() - 0.5);
            let len = dir.norm().max(f64::MIN_POSITIVE);
            let step = dir * (r.gen::<f64>() * move_max / len);
            (id, step)
        })
        .collect()
}

/// Applies one tick's moves to the tree and the position table: one
/// `RTree::remove` + `RTree::insert` per move. Returns how many removes
/// found their record.
fn apply_moves<const D: usize>(
    tree: &mut RTree<D, u32>,
    positions: &mut [Vector<D>],
    moves: &[(u32, Vector<D>)],
) -> usize {
    let mut found = 0;
    for &(id, step) in moves {
        let old = positions[id as usize];
        let new = old + step;
        found += usize::from(tree.remove(&old, &id));
        tree.insert(new, id);
        positions[id as usize] = new;
    }
    found
}

/// Writes beside reads: each tick moves 1 000 objects, then runs one
/// Eq. 34 γ = 1 query centred on an object's current position.
fn pass_churn(data: &mut Dataset<2>, seed: u64, stop: Stop, tracer: Option<&Tracer>) -> Pass<2> {
    let n = data.points.len();
    for i in 0..WARMUP_CALLS {
        let mut r = rng(seed, Stream::Warmup, i);
        let spec = road_spec(data.points[r.gen_range(0..n)], eq34_covariance(GAMMAS[0]));
        let _ = solo_query(
            &data.tree,
            &spec,
            stream_seed(seed, Stream::Warmup, i),
            None,
        );
    }
    let mut positions = data.points.clone();
    let tree = &mut data.tree;
    closed_loop(stop, tracer, None, ROAD_GAUGE, |tick, pass| {
        let moves = tick_moves::<2>(seed, Stream::Moves, tick, n, data.move_max);
        let call = Instant::now();
        let found = timed(tracer, Layer::Update, || {
            apply_moves(tree, &mut positions, &moves)
        });
        pass.update_ms.push(secs(call) * 1e3);
        pass.moves += moves.len() as u64;
        let mut r = rng(seed, Stream::Query, tick);
        let spec = road_spec(positions[r.gen_range(0..n)], eq34_covariance(GAMMAS[0]));
        let call = Instant::now();
        let result = solo_query(tree, &spec, stream_seed(seed, Stream::Eval, tick), tracer);
        pass.call_ms.push(secs(call) * 1e3);
        let result = match result {
            _ if found < moves.len() => Err(format!(
                "{} of {} removes missed their record",
                moves.len() - found,
                moves.len()
            )),
            r => r.map_err(|e| e.to_string()),
        };
        pass.push_tick(spec, result, Some(tick));
    })
}

/// Write-only ticks on a copy of a read-only workload's tree, in chunks
/// due at even intervals of the run and run between calls, outside their
/// timings and outside `qps`: the update latency of that data set, sampled
/// across the whole run like the calls. An untimed tick opens each chunk
/// and brings the tree back into cache after the calls. The moves are fixed
/// like the data and the count does not depend on how fast the calls run,
/// so every run replays the same tree history.
struct Probe<const D: usize> {
    tree: RTree<D, u32>,
    positions: Vec<Vector<D>>,
    move_max: f64,
    interval_s: f64,
    chunks: u64,
    ticks: u64,
    ms: Vec<f64>,
}

impl<const D: usize> Probe<D> {
    fn new(data: &Dataset<D>, seconds: f64) -> Self {
        Probe {
            tree: data.tree.clone(),
            positions: data.points.clone(),
            move_max: data.move_max,
            interval_s: seconds / PROBE_CHUNKS as f64,
            chunks: 0,
            ticks: 0,
            ms: Vec::new(),
        }
    }

    /// Runs the chunks due `elapsed_s` into the run; returns their seconds.
    fn catch_up(&mut self, elapsed_s: f64) -> f64 {
        let started = Instant::now();
        while self.chunks < PROBE_CHUNKS && (self.chunks + 1) as f64 * self.interval_s <= elapsed_s
        {
            self.tick();
            for _ in 0..PROBE_CHUNK_TICKS {
                let t = Instant::now();
                self.tick();
                self.ms.push(secs(t) * 1e3);
            }
            self.chunks += 1;
        }
        secs(started)
    }

    fn tick(&mut self) {
        let n = self.positions.len();
        let moves = tick_moves::<D>(DATA_SEED, Stream::Probe, self.ticks, n, self.move_max);
        apply_moves(&mut self.tree, &mut self.positions, &moves);
        self.ticks += 1;
    }
}

/// The closed loop: `call(i, pass)` issues call `i` and records it; the
/// next call starts when it returns, until `stop`. Probe chunks and gauge
/// passes run between calls and are taken out of the pass's wall time.
fn closed_loop<const D: usize>(
    stop: Stop,
    tracer: Option<&Tracer>,
    mut probe: Option<&mut Probe<D>>,
    gauge: GaugeSpec,
    mut call: impl FnMut(u64, &mut Pass<D>),
) -> Pass<D> {
    let mut pass = Pass::new(gauge);
    let mut aside_s = 0.0;
    let started = Instant::now();
    while !stop.done(pass.calls, started) {
        let i = pass.calls;
        if let Some(t) = tracer {
            t.set_query(i as u32);
        }
        call(i, &mut pass);
        pass.calls += 1;
        if let Some(p) = probe.as_deref_mut() {
            aside_s += p.catch_up(secs(started));
        }
        aside_s += pass.gauge.tick();
    }
    pass.wall_s = secs(started) - aside_s;
    if let Some(p) = probe {
        p.catch_up(f64::INFINITY);
        pass.update_ms = std::mem::take(&mut p.ms);
    }
    pass
}

/// What the answer check found over a pass.
struct CheckSummary {
    failed: u64,
    notes: Vec<String>,
    /// Whether a corrupted answer set was caught; `None` if no query
    /// allowed the self-test.
    self_test: Option<bool>,
}

/// Checks every record against the reference; for churn, against the
/// object positions replayed to that record's tick.
fn check_pass<const D: usize, R: Reference<D>>(
    pass: &Pass<D>,
    initial: &[Vector<D>],
    churn: Option<(u64, f64)>,
    mut reference: impl FnMut(u64) -> R,
) -> CheckSummary {
    let mut positions = initial.to_vec();
    let mut replayed = 0u64;
    let mut summary = CheckSummary {
        failed: 0,
        notes: Vec::new(),
        self_test: None,
    };
    let mut reference_evals = 0usize;
    for (i, record) in pass.records.iter().enumerate() {
        if let (Some(tick), Some((seed, move_max))) = (record.tick, churn) {
            while replayed <= tick {
                for (id, step) in
                    tick_moves::<D>(seed, Stream::Moves, replayed, positions.len(), move_max)
                {
                    positions[id as usize] += step;
                }
                replayed += 1;
            }
        }
        let answers = match &record.answers {
            Ok(a) => a,
            Err(e) => {
                summary.failed += 1;
                summary
                    .notes
                    .push(format!("query {i} returned an error: {e}"));
                continue;
            }
        };
        let basis = Basis::new(&record.spec.sigma);
        let mut r = reference(i as u64);
        let verdict = check::check_query(&record.spec, &basis, &positions, answers, &mut r);
        reference_evals += verdict.reference_evals;
        if !verdict.ok() {
            summary.failed += 1;
            if summary.failed <= 5 {
                summary.notes.push(format!(
                    "query {i} misclassified objects {:?}",
                    &verdict.misclassified[..verdict.misclassified.len().min(8)]
                ));
            }
            continue;
        }
        // Self-test on the first query that allows it: corrupted copies
        // of a correct answer set must fail the check.
        if let (None, Some(keep), Some(add)) =
            (summary.self_test, verdict.some_in, verdict.some_out)
        {
            let dropped: Vec<u32> = answers.iter().copied().filter(|&id| id != keep).collect();
            let mut added = answers.clone();
            added.push(add);
            added.sort_unstable();
            let mut caught = |bad: &[u32], id: u32| {
                let v = check::check_query(
                    &record.spec,
                    &basis,
                    &positions,
                    bad,
                    &mut reference(i as u64),
                );
                v.misclassified == [id]
            };
            let ok = caught(&dropped, keep) && caught(&added, add);
            summary.self_test = Some(ok);
            summary.notes.push(format!(
                "answer-check self-test on query {i} (drop object {keep}, add object {add}): {}",
                if ok { "both caught" } else { "NOT caught" }
            ));
        }
    }
    summary.notes.push(format!(
        "answer check: {} queries, {} failed, {reference_evals} reference evaluations",
        pass.records.len(),
        summary.failed
    ));
    summary
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The end-to-end metrics of an untraced pass: as measured (`scale` 1)
/// or scaled to the reference host speed.
fn end_to_end<const D: usize>(
    pass: &Pass<D>,
    setup: &Setup,
    rss_mib: f64,
    scale: f64,
) -> Vec<Metric> {
    let update_ms = &pass.update_ms;
    vec![
        metric("qps", pass.queries() as f64 / pass.wall_s / scale, "1/s"),
        metric("query_p50_ms", quantile(&pass.call_ms, 0.5) * scale, "ms"),
        metric("query_p90_ms", quantile(&pass.call_ms, 0.9) * scale, "ms"),
        metric("update_p50_ms", quantile(update_ms, 0.5) * scale, "ms"),
        metric("update_p90_ms", quantile(update_ms, 0.9) * scale, "ms"),
        metric("setup_s", median(&setup.total_s) * scale, "s"),
        metric("peak_rss_mib", rss_mib, "MiB"),
    ]
}

/// Per-layer metrics of a traced pass, with the untraced wall time of the
/// same calls for the tracing overhead.
fn per_layer<const D: usize>(
    tracer: &Tracer,
    pass: &Pass<D>,
    untraced_wall_s: f64,
    setup: &Setup,
) -> Vec<Metric> {
    let selfs = tracer.self_times();
    let self_ns =
        |layers: &[Layer]| -> f64 { layers.iter().map(|l| selfs[l.index()].0 as f64).sum() };
    let span_count = |l: Layer| selfs[l.index()].1 as f64;
    let wall_ns = pass.wall_s * 1e9;
    let share = |ns: f64| ns / wall_ns;
    let amdahl = |ns: f64| 1.0 / (1.0 - share(ns));
    let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
    let q = pass.queries() as f64;
    let s = &pass.stats;

    let search = self_ns(&[Layer::Search]);
    let update = self_ns(&[Layer::Update]);
    let knn = self_ns(&[Layer::Knn]);
    let plan = self_ns(&[Layer::QueryNew, Layer::FeedbackSigma]);
    let filter = self_ns(&[Layer::Execute]);
    let begin = self_ns(&[Layer::EvalNew, Layer::EvalBegin, Layer::EvalDrop]);
    let prob = self_ns(&[Layer::EvalProbability]);
    let batch = self_ns(&[Layer::BatchExecute]);
    let attributed = search + update + knn + plan + filter + begin + prob + batch;
    let [hits, misses, evictions] = pass.cache.map(|c| c as f64);
    let phase3_answers = s.answers.saturating_sub(s.accepted_without_integration) as f64;

    vec![
        metric("rtree.search_us", per(search / 1e3, q), "us"),
        metric("rtree.search_share", share(search), "ratio"),
        metric("rtree.search_amdahl", amdahl(search), "x"),
        metric(
            "rtree.node_visits",
            per(s.node_accesses as f64, q),
            "count/query",
        ),
        metric(
            "rtree.entries_checked",
            per(s.leaf_hits as f64, q),
            "count/query",
        ),
        metric(
            "rtree.candidates",
            per(s.phase1_candidates as f64, q),
            "count/query",
        ),
        metric(
            "rtree.candidate_yield",
            per(s.phase1_candidates as f64, s.leaf_hits as f64),
            "ratio",
        ),
        metric(
            "rtree.update_us_per_move",
            per(update / 1e3, pass.moves as f64),
            "us",
        ),
        metric("rtree.update_share", share(update), "ratio"),
        metric("rtree.update_amdahl", amdahl(update), "x"),
        metric("rtree.knn_us", per(knn / 1e3, span_count(Layer::Knn)), "us"),
        metric("rtree.knn_share", share(knn), "ratio"),
        metric("rtree.knn_amdahl", amdahl(knn), "x"),
        metric("rtree.bulk_load_s", median(&setup.bulk_load_s), "s"),
        metric(
            "plan.query_new_us",
            per(
                self_ns(&[Layer::QueryNew]) / 1e3,
                span_count(Layer::QueryNew),
            ),
            "us",
        ),
        metric(
            "plan.feedback_sigma_us",
            per(
                self_ns(&[Layer::FeedbackSigma]) / 1e3,
                span_count(Layer::FeedbackSigma),
            ),
            "us",
        ),
        metric("plan.share", share(plan), "ratio"),
        metric("plan.amdahl", amdahl(plan), "x"),
        metric(
            "filter.self_us",
            per(filter / 1e3, span_count(Layer::Execute)),
            "us",
        ),
        metric("filter.share", share(filter), "ratio"),
        metric("filter.amdahl", amdahl(filter), "x"),
        metric(
            "filter.bf_accepts",
            per(s.accepted_without_integration as f64, q),
            "count/query",
        ),
        metric(
            "filter.bf_rejects",
            per(s.pruned_by_bf as f64, q),
            "count/query",
        ),
        metric(
            "filter.or_prunes",
            per(s.pruned_by_or as f64, q),
            "count/query",
        ),
        metric(
            "filter.fringe_prunes",
            per(s.pruned_by_fringe as f64, q),
            "count/query",
        ),
        metric(
            "filter.integration_ratio",
            per(s.integrations as f64, s.phase1_candidates as f64),
            "ratio",
        ),
        metric(
            "eval.begin_query_us",
            per(begin / 1e3, span_count(Layer::EvalBegin)),
            "us",
        ),
        metric("eval.begin_query_share", share(begin), "ratio"),
        metric("eval.begin_query_amdahl", amdahl(begin), "x"),
        metric(
            "eval.probability_us_per_call",
            per(prob / 1e3, span_count(Layer::EvalProbability)),
            "us",
        ),
        metric("eval.probability_share", share(prob), "ratio"),
        metric("eval.probability_amdahl", amdahl(prob), "x"),
        metric(
            "eval.integrations",
            per(s.integrations as f64, q),
            "count/query",
        ),
        metric(
            "eval.qualify_ratio",
            per(phase3_answers, s.integrations as f64),
            "ratio",
        ),
        metric(
            "cloud.cells_scanned",
            per(s.cloud_cells_scanned as f64, s.integrations as f64),
            "count/eval",
        ),
        metric(
            "cloud.cells_inside",
            per(s.cloud_cells_inside as f64, s.integrations as f64),
            "count/eval",
        ),
        metric(
            "cloud.samples_tested",
            per(s.cloud_samples_tested as f64, s.integrations as f64),
            "count/eval",
        ),
        metric(
            "batch.execute_ms",
            per(
                tracer.inclusive_ns(Layer::BatchExecute) as f64 / 1e6,
                span_count(Layer::BatchExecute),
            ),
            "ms",
        ),
        metric("batch.self_share", share(batch), "ratio"),
        metric("batch.self_amdahl", amdahl(batch), "x"),
        metric(
            "batch.sigma_cache_hit_ratio",
            per(hits, hits + misses),
            "ratio",
        ),
        metric("batch.sigma_cache_evictions", evictions, "count"),
        metric(
            "trace.overhead_ratio",
            pass.wall_s / untraced_wall_s,
            "ratio",
        ),
        metric("trace.unattributed_share", 1.0 - share(attributed), "ratio"),
    ]
}

/// The wrapper counts must equal the `QueryStats` the calls returned.
fn cross_check<const D: usize>(tracer: &Tracer, pass: &Pass<D>, batched: bool) -> Vec<String> {
    let c = tracer.counts();
    let s = &pass.stats;
    let answered = pass.records.iter().filter(|r| r.answers.is_ok()).count() as u64;
    let mut pairs: Vec<(&str, u64, u64)> = vec![
        ("searches vs queries", c.searches, answered),
        (
            "node visits vs QueryStats.node_accesses",
            c.node_visits,
            s.node_accesses as u64,
        ),
        (
            "entries checked vs QueryStats.leaf_hits",
            c.entries_checked,
            s.leaf_hits as u64,
        ),
        (
            "candidates vs QueryStats.phase1_candidates",
            c.candidates,
            s.phase1_candidates as u64,
        ),
    ];
    if batched {
        pairs.push((
            "queries vs QueryStats.cloud_builds",
            answered,
            s.cloud_builds as u64,
        ));
        pairs.push((
            "queries vs Σ-cache lookups",
            answered,
            pass.cache[0] + pass.cache[1],
        ));
    } else {
        pairs.push((
            "probability calls vs QueryStats.integrations",
            c.probabilities,
            s.integrations as u64,
        ));
        pairs.push((
            "begin_query calls vs QueryStats.cloud_builds",
            c.begin_queries,
            s.cloud_builds as u64,
        ));
    }
    let mut errors: Vec<String> = pairs
        .into_iter()
        .filter(|(_, a, b)| a != b)
        .map(|(what, a, b)| format!("counter cross-check failed: {what}: {a} != {b}"))
        .collect();
    for (what, v) in [
        ("QueryStats.integrations", s.integrations),
        ("QueryStats.cloud_builds", s.cloud_builds),
        ("QueryStats.node_accesses", s.node_accesses),
    ] {
        if v == 0 {
            errors.push(format!("counter cross-check failed: {what} reads 0"));
        }
    }
    errors
}

/// Runs one workload: untraced for the end-to-end metrics, or an
/// untraced and a traced pass over the same calls for the per-layer ones.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let run = Run {
        workload,
        seed,
        seconds,
        trace,
    };
    match workload {
        Workload::Table1Road2d => run.drive(
            road,
            |d, s, st, t, p| pass_table1(d, s, st, t, p),
            |_| Quadrature,
        ),
        Workload::Table3Corel9d => run.drive(
            corel,
            |d, s, st, t, p| pass_table3(d, s, st, t, p),
            |i| IndependentMonteCarlo {
                stages: REFERENCE_STAGES,
                seed: stream_seed(seed, Stream::Reference, i),
            },
        ),
        Workload::Road2dSigmaBatch => run.drive(
            road,
            |d, s, st, t, p| pass_batch(d, s, st, t, p),
            |_| Quadrature,
        ),
        Workload::Road2dChurn => run.drive(
            road,
            |d, s, st, t, _| pass_churn(d, s, st, t),
            |_| Quadrature,
        ),
    }
}

/// One invocation of the benchmark.
struct Run {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Run {
    /// The shared skeleton of every workload.
    fn drive<const D: usize, P, R: Reference<D>>(
        &self,
        generate: fn() -> Vec<Vector<D>>,
        pass: P,
        reference: impl FnMut(u64) -> R,
    ) -> Outcome
    where
        P: Fn(&mut Dataset<D>, u64, Stop, Option<&Tracer>, Option<&mut Probe<D>>) -> Pass<D>,
    {
        let seed = self.seed;
        let (mut data, setup) = set_up(generate);
        let churn = (self.workload == Workload::Road2dChurn).then_some((seed, data.move_max));
        let mut notes = Vec::new();
        let mut errors = Vec::new();
        let (pass, metrics) = if self.trace {
            // The same calls untraced, then traced, on fresh state.
            let untraced = pass(
                &mut data,
                seed,
                Stop::Seconds(self.seconds / 2.0),
                None,
                None,
            );
            if churn.is_some() {
                let mut discard = Setup {
                    total_s: Vec::new(),
                    bulk_load_s: Vec::new(),
                };
                data = build(generate, &mut discard);
            }
            let tracer = Tracer::new();
            let traced = pass(
                &mut data,
                seed,
                Stop::Calls(untraced.calls),
                Some(&tracer),
                None,
            );
            errors = cross_check(
                &tracer,
                &traced,
                self.workload == Workload::Road2dSigmaBatch,
            );
            let same = untraced.records.len() == traced.records.len()
                && std::iter::zip(&untraced.records, &traced.records)
                    .all(|(a, b)| a.answers == b.answers);
            if !same {
                errors.push(String::from("tracing changed the answers"));
            }
            let metrics = per_layer(&tracer, &traced, untraced.wall_s, &setup);
            if let Some(m) = metrics
                .iter()
                .find(|m| m.name == "trace.unattributed_share")
            {
                if m.value > 0.05 {
                    notes.push(format!(
                        "FLAG: trace.unattributed_share = {:.4} exceeds 0.05",
                        m.value
                    ));
                }
            }
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{}-seed{seed}.tsv", self.workload.name()));
            notes.push(match tracer.write_tsv(&path) {
                Ok(()) => format!("spans written to {}", path.display()),
                Err(e) => format!("could not write {}: {e}", path.display()),
            });
            (traced, metrics)
        } else {
            let mut probe = churn.is_none().then(|| Probe::new(&data, self.seconds));
            let p = pass(
                &mut data,
                seed,
                Stop::Seconds(self.seconds),
                None,
                probe.as_mut(),
            );
            drop(probe);
            let rss_mib = peak_rss_mib();
            let scale = p.speed_factor();
            let (gauge_ms, passes) = p.gauge.median_ms();
            let raw: Vec<String> = end_to_end(&p, &setup, rss_mib, 1.0)
                .iter()
                .map(|m| format!("{} {:.4}", m.name, m.value))
                .collect();
            notes.push(format!(
                "host gauge: median pass {gauge_ms:.4} ms over {passes} passes, \
                 scale factor {scale:.4}; as measured: {}",
                raw.join(", ")
            ));
            let metrics = end_to_end(&p, &setup, rss_mib, scale);
            (p, metrics)
        };
        let checking = Instant::now();
        let check = check_pass(&pass, &data.points, churn, reference);
        if check.self_test.is_none() {
            errors.push(String::from("answer-check self-test found no usable query"));
        }
        notes.push(format!(
            "set-up {:.3} s, answer check {:.3} s",
            setup.total_s.iter().sum::<f64>(),
            secs(checking)
        ));
        notes.push(format!(
            "{} queries in {} calls over {:.3} s; {} update ticks; failed_frac = {}",
            pass.queries(),
            pass.calls,
            pass.wall_s,
            pass.update_ms.len(),
            check.failed as f64 / pass.queries().max(1) as f64
        ));
        notes.extend(check.notes);
        let correct = check.failed == 0 && check.self_test == Some(true) && errors.is_empty();
        notes.extend(errors);
        Outcome {
            correct,
            attempted: pass.queries(),
            failed: check.failed,
            metrics,
            notes,
        }
    }
}
