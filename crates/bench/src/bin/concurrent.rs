//! **Concurrent-read bench guard** — readers×writers throughput grid for
//! Phase-1 reads served from published snapshots, written to
//! `BENCH_concurrent.json` so reader scaling and the single-thread cost
//! of the snapshot pattern are tracked over time.
//!
//! The pattern under test: one writer owns a private [`RTree`] and,
//! every [`EPOCH_WRITES`] writes, publishes
//! `Arc::new(FlatRTree::freeze(tree.clone()))` into an
//! `RwLock<Arc<FlatRTree>>`; each reader takes the current image once
//! per query and searches it with no further synchronization.
//!
//! The grid runs every reader count in `{1, 2, 4, 8}`, each with no
//! writer and with one writer churning inserts/removes outside the
//! query windows; each cell is the minimum wall time over `passes`
//! runs. Guards (the binary exits non-zero when one fails, and
//! `--check` applies them to the committed file):
//!
//! * **single-thread cost** — one snapshot reader keeps at least
//!   [`MIN_SINGLE_RATIO`] of the throughput of the pointer [`RTree`]
//!   searched directly by one thread;
//! * **no collapse** — 8 readers retain at least [`MIN_NO_COLLAPSE`] of
//!   the single-reader aggregate throughput on any machine;
//! * **scaling** — on machines with ≥ 8 cores, 8 readers reach at least
//!   [`MIN_SCALING_8R`]× the single-reader throughput. The floor follows
//!   the recorded core count, because a 2-core machine cannot scale by
//!   adding threads;
//! * **epoch lag** — no reader ever searched an image more than one
//!   epoch older than the writer's latest write: a write becomes
//!   visible at the next publish.
//!
//! ```text
//! cargo run -p gprq-bench --release --bin concurrent \
//!     [--n 50000] [--queries 400] [--passes 3] [--out BENCH_concurrent.json]
//! cargo run -p gprq-bench --release --bin concurrent -- --check   # validate committed JSON
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

use gprq_bench::guard::{extract_number, Bound, Guard};
use gprq_bench::Args;
use gprq_linalg::Vector;
use gprq_rtree::{FlatRTree, RStarParams, RTree, Rect, SearchStats};
use gprq_workloads::road_network_2d;

/// Bump when the JSON layout changes; `--check` rejects older files.
const SCHEMA: u64 = 2;

/// Reader counts in the grid.
const READERS: [usize; 4] = [1, 2, 4, 8];

/// The writer publishes a fresh image every this many writes (inserts
/// and removes each count as one).
const EPOCH_WRITES: usize = 256;

/// Scaling floor at 8 readers, applied only on machines with at least
/// 8 cores.
const MIN_SCALING_8R: f64 = 4.0;

/// No-collapse floor applied on any machine: 8 readers must retain this
/// fraction of the single-reader aggregate throughput.
const MIN_NO_COLLAPSE: f64 = 0.35;

/// One snapshot reader against the pointer tree searched directly. A
/// snapshot read adds one `RwLock` read, one `Arc` clone and a result
/// buffer per query to a flat-image search that is itself faster than
/// the pointer tree.
const MIN_SINGLE_RATIO: f64 = 0.15;

/// Single-thread cost guard.
const SINGLE: Guard = Guard {
    bench: "concurrent",
    schema: SCHEMA,
    metric: "single_ratio",
    bound: Bound::AtLeast(MIN_SINGLE_RATIO),
};

/// Read-your-writes guard: the largest observed lag is at most one
/// epoch.
const LAG: Guard = Guard {
    bench: "concurrent",
    schema: SCHEMA,
    metric: "max_lag_epochs",
    bound: Bound::AtMost(1.0),
};

/// Scaling guard for a machine with `cores` cores: full scaling on ≥ 8
/// cores, otherwise only the no-collapse bound is enforceable.
fn scaling_guard(cores: usize) -> Guard {
    Guard {
        bench: "concurrent",
        schema: SCHEMA,
        metric: "scaling_8r",
        bound: Bound::AtLeast(if cores >= 8 {
            MIN_SCALING_8R
        } else {
            MIN_NO_COLLAPSE
        }),
    }
}

/// A published image, tagged with the writer's write count at publish.
type Image = (usize, FlatRTree<2, u32>);

fn main() {
    let args = Args::parse();
    let out = args.get("out", String::from("BENCH_concurrent.json"));
    if args.flag("check") {
        SINGLE.check(&out);
        LAG.check(&out);
        let text = std::fs::read_to_string(&out).unwrap_or_default();
        let cores = extract_number(&text, "cores")
            .unwrap_or_else(|| panic!("{out} lacks cores — regenerate"));
        scaling_guard(cores as usize).check(&out);
        return;
    }

    let n = args.get("n", 50_000usize);
    let queries = args.get("queries", 400usize).max(1);
    let passes = args.get("passes", 3usize).max(1);
    let seed = args.get("seed", 42u64);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| String::from("unknown"), |s| s.trim().to_string());

    println!("Concurrent-read bench: snapshot readers x writers throughput grid");
    println!(
        "{n} road-network points; {queries} queries/reader; {passes} passes; \
         publish every {EPOCH_WRITES} writes; {cores} cores ({profile}, {commit})\n"
    );

    // Insert-built, so the baseline and the published images share the
    // topology the writer keeps mutating.
    let points = road_network_2d(n, seed);
    let mut tree = RTree::with_params(RStarParams::paper_default(2));
    for (i, p) in points.iter().enumerate() {
        tree.insert(*p, u32::try_from(i).unwrap_or(u32::MAX));
    }
    // Churn set for the writer, offset outside the data extent.
    let churn: Vec<(Vector<2>, u32)> = points
        .iter()
        .take(2_000)
        .enumerate()
        .map(|(i, p)| {
            (
                Vector::from([p[0] + 5_000.0, p[1] + 5_000.0]),
                u32::try_from(i).unwrap_or(0).saturating_add(1_000_000),
            )
        })
        .collect();
    let windows = query_windows();

    // Baseline: one thread searching the pointer tree, same query mix.
    let mut baseline_secs = f64::INFINITY;
    for _ in 0..passes {
        let started = Instant::now();
        let mut stats = SearchStats::default();
        let mut hits = Vec::new();
        let mut total = 0usize;
        for q in 0..queries {
            tree.query_rect_into(&windows[q % windows.len()], &mut stats, &mut hits);
            total += hits.len();
        }
        baseline_secs = baseline_secs.min(started.elapsed().as_secs_f64());
        assert!(total > 0, "degenerate workload: no hits");
    }
    let baseline_qps = queries as f64 / baseline_secs.max(f64::MIN_POSITIVE);

    let mut cells = Vec::new();
    let mut max_lag = 0usize;
    for readers in READERS {
        for writer in [false, true] {
            let mut best = f64::INFINITY;
            for _ in 0..passes {
                let (secs, lag) = run_cell(&tree, &windows, readers, writer, queries, &churn);
                best = best.min(secs);
                max_lag = max_lag.max(lag);
            }
            let qps = (readers * queries) as f64 / best.max(f64::MIN_POSITIVE);
            let writers = usize::from(writer);
            println!("readers={readers} writers={writers}: {best:.4} s, {qps:.0} q/s");
            cells.push((readers, writers, best, qps));
        }
    }

    let qps_at = |r: usize, w: usize| {
        cells
            .iter()
            .find(|(cr, cw, _, _)| *cr == r && *cw == w)
            .map_or(0.0, |(_, _, _, qps)| *qps)
    };
    let single_qps = qps_at(1, 0);
    let single_ratio = single_qps / baseline_qps.max(f64::MIN_POSITIVE);
    let scaling_8r = qps_at(8, 0) / single_qps.max(f64::MIN_POSITIVE);
    let max_lag_epochs = max_lag as f64 / EPOCH_WRITES as f64;
    let scaling = scaling_guard(cores);

    println!("\npointer-tree baseline: {baseline_qps:.0} q/s");
    println!(
        "snapshot single reader: {single_qps:.0} q/s (ratio {single_ratio:.2}, floor {MIN_SINGLE_RATIO})"
    );
    println!(
        "8-reader scaling: {scaling_8r:.2}x (floor {}, cores {cores})",
        scaling.bound.threshold()
    );
    println!("max epoch lag: {max_lag} writes ({max_lag_epochs:.2} epochs, bound 1)");

    let cell_json: Vec<String> = cells
        .iter()
        .map(|(r, w, secs, qps)| {
            format!(
                "    {{ \"readers\": {r}, \"writers\": {w}, \"secs\": {secs:.6}, \"qps\": {qps:.1} }}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": {SCHEMA},\n  \"commit\": \"{commit}\",\n  \"profile\": \"{profile}\",\n  \
         \"cores\": {cores},\n  \"n\": {n},\n  \"queries_per_reader\": {queries},\n  \
         \"passes\": {passes},\n  \"seed\": {seed},\n  \"epoch_writes\": {EPOCH_WRITES},\n  \
         \"baseline_qps\": {baseline_qps:.1},\n  \"single_reader_qps\": {single_qps:.1},\n  \
         \"single_ratio\": {single_ratio:.4},\n  \"min_single_ratio\": {MIN_SINGLE_RATIO},\n  \
         \"scaling_8r\": {scaling_8r:.4},\n  \"scaling_floor\": {},\n  \
         \"max_lag_writes\": {max_lag},\n  \"max_lag_epochs\": {max_lag_epochs:.4},\n  \
         \"grid\": [\n{}\n  ]\n}}\n",
        scaling.bound.threshold(),
        cell_json.join(",\n")
    );
    SINGLE.write(&out, &json);

    SINGLE.enforce(single_ratio);
    scaling.enforce(scaling_8r);
    LAG.enforce(max_lag_epochs);
}

/// One grid cell: `readers` threads each run `queries` rectangle
/// queries, taking the published image once per query, while (when
/// `writer` is set) one thread churns a private clone of `seq` and
/// publishes a frozen image every [`EPOCH_WRITES`] writes. Returns
/// (wall seconds, largest lag in writes between the writer's count as
/// a reader saw it and the image that reader then searched).
fn run_cell(
    seq: &RTree<2, u32>,
    windows: &[Rect<2>],
    readers: usize,
    writer: bool,
    queries: usize,
    churn: &[(Vector<2>, u32)],
) -> (f64, usize) {
    let mut tree = seq.clone();
    let published: RwLock<Arc<Image>> = RwLock::new(Arc::new((0, FlatRTree::freeze(seq.clone()))));
    let written = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let live_readers = AtomicUsize::new(readers);
    let (published, written, stop, live) = (&published, &written, &stop, &live_readers);
    let started = Instant::now();
    // ORDERING: Relaxed — every `stop` access below is an advisory
    // shutdown flag; no data is published through it (the scope join is
    // the happens-before edge for all results), and a stale read only
    // costs one extra churn step.
    let max_lag = std::thread::scope(|scope| {
        if writer {
            let tree = &mut tree;
            scope.spawn(move || {
                let mut writes = 0usize;
                // Insert the whole churn set, remove it again, repeat.
                let inserts = churn.iter().map(|e| (true, e));
                let removes = churn.iter().map(|e| (false, e));
                for (insert, (p, d)) in inserts.chain(removes).cycle() {
                    // ORDERING: Relaxed — advisory shutdown flag, see above.
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if insert {
                        tree.insert(*p, *d);
                    } else {
                        tree.remove(p, d);
                    }
                    writes += 1;
                    // ORDERING: Release — pairs with the readers' Acquire
                    // load: a reader that sees `writes` also sees every
                    // publish made before it.
                    written.store(writes, Ordering::Release);
                    if writes % EPOCH_WRITES == 0 {
                        let image = Arc::new((writes, FlatRTree::freeze(tree.clone())));
                        *published.write().unwrap_or_else(PoisonError::into_inner) = image;
                    }
                }
            });
        }
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                scope.spawn(move || {
                    let mut stats = SearchStats::default();
                    let mut max_lag = 0usize;
                    for q in 0..queries {
                        // ORDERING: Acquire — pairs with the writer's
                        // Release store (see above).
                        let seen = written.load(Ordering::Acquire);
                        let image =
                            Arc::clone(&published.read().unwrap_or_else(PoisonError::into_inner));
                        max_lag = max_lag.max(seen.saturating_sub(image.0));
                        let mut hits = Vec::new();
                        image
                            .1
                            .query_rect_into(&windows[q % windows.len()], &mut stats, &mut hits);
                    }
                    // Last reader out stops the writer; the scope then
                    // joins everything.
                    if live.fetch_sub(1, Ordering::AcqRel) == 1 {
                        // ORDERING: Relaxed — advisory shutdown signal only.
                        stop.store(true, Ordering::Relaxed);
                    }
                    max_lag
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(usize::MAX))
            .max()
            .unwrap_or(0)
    });
    (started.elapsed().as_secs_f64(), max_lag)
}

/// A mix of query windows over the road-network extent: two hotspot
/// windows (dense), one suburban (sparse), one wide scan.
fn query_windows() -> Vec<Rect<2>> {
    vec![
        Rect::centered(&Vector::from([350.0, 420.0]), &Vector::from([40.0, 40.0])),
        Rect::centered(&Vector::from([700.0, 650.0]), &Vector::from([40.0, 40.0])),
        Rect::centered(&Vector::from([900.0, 100.0]), &Vector::from([60.0, 60.0])),
        Rect::centered(&Vector::from([500.0, 500.0]), &Vector::from([150.0, 150.0])),
    ]
}
