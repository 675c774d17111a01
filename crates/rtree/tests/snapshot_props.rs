//! Property tests for concurrent reads over published snapshots: one
//! writer churns a private `RTree` and publishes
//! `Arc::new((epoch, FlatRTree::freeze(tree.clone())))` behind an
//! `RwLock` at every epoch boundary, while a fixed set of reader
//! threads query whatever image is current.
//!
//! Each reader's answer must equal a brute-force scan of the image it
//! holds; after the threads join, every image a reader held must equal
//! the writer's tree at that epoch (same records), and every answer
//! must reproduce the writer's pointer tree at that epoch bitwise
//! (candidates, order and statistics — the `freeze` parity contract).
//! Readers never see an older epoch after a newer one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use gprq_linalg::Vector;
use gprq_rtree::{FlatRTree, Phase1Index, RStarParams, RTree, Rect, SearchStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reader threads per run — small and fixed.
const READERS: usize = 3;
/// Epochs the writer publishes after the initial image.
const EPOCHS: usize = 24;
/// Queries a reader runs at least.
const MIN_QUERIES: usize = 64;
const EXTENT: f64 = 500.0;

/// A published image, tagged with its epoch.
type Image = (usize, FlatRTree<2, usize>);

/// Sorted bitwise record keys: (x bits, y bits, payload).
fn keys<'a>(records: impl Iterator<Item = (&'a Vector<2>, &'a usize)>) -> Vec<(u64, u64, usize)> {
    let mut keys: Vec<_> = records
        .map(|(p, d)| (p[0].to_bits(), p[1].to_bits(), *d))
        .collect();
    keys.sort_unstable();
    keys
}

fn random_point(rng: &mut StdRng) -> Vector<2> {
    Vector::from([rng.gen::<f64>() * EXTENT, rng.gen::<f64>() * EXTENT])
}

fn query_rects(seed: u64) -> Vec<Rect<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..16)
        .map(|_| {
            let half = Vector::from([rng.gen::<f64>() * 90.0, rng.gen::<f64>() * 90.0]);
            Rect::centered(&random_point(&mut rng), &half)
        })
        .collect()
}

/// What a reader saw for one query.
struct Observation {
    epoch: usize,
    rect: usize,
    answer: Vec<usize>,
    stats: SearchStats,
}

/// Record keys of one image, captured the first time a reader held it.
type Capture = (usize, Vec<(u64, u64, usize)>);

/// The writer's private state: its tree, the live records, and the id
/// the next insert gets.
struct Writer {
    tree: RTree<2, usize>,
    live: Vec<(Vector<2>, usize)>,
    next_id: usize,
    rng: StdRng,
}

impl Writer {
    fn new(seed: u64, initial: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let live: Vec<(Vector<2>, usize)> =
            (0..initial).map(|i| (random_point(&mut rng), i)).collect();
        let mut tree = RTree::with_params(RStarParams::paper_default(2));
        for (p, d) in &live {
            tree.insert(*p, *d);
        }
        Writer {
            tree,
            live,
            next_id: initial,
            rng,
        }
    }

    /// One churn step: insert a fresh record or remove a random live one.
    fn churn(&mut self) {
        if self.live.is_empty() || self.rng.gen::<f64>() < 0.5 {
            let p = random_point(&mut self.rng);
            self.tree.insert(p, self.next_id);
            self.live.push((p, self.next_id));
            self.next_id += 1;
        } else {
            let at = self.rng.gen_range(0..self.live.len());
            let (p, d) = self.live.swap_remove(at);
            assert!(self.tree.remove(&p, &d), "a live record must be removable");
        }
    }
}

/// One reader: queries the current image until the writer is done (at
/// least `MIN_QUERIES` times), checking each
/// answer against a brute-force scan of the image it came from and
/// capturing each newly seen image's records.
fn read(
    r: usize,
    published: &RwLock<Arc<Image>>,
    done: &AtomicBool,
    rects: &[Rect<2>],
) -> (Vec<Observation>, Vec<Capture>) {
    let mut seen = Vec::new();
    let mut captures: Vec<Capture> = Vec::new();
    for q in 0.. {
        let finished = done.load(Ordering::Acquire);
        let image = Arc::clone(&published.read().unwrap());
        let (epoch, flat) = (image.0, &image.1);
        match captures.last() {
            Some(&(last, _)) if last == epoch => {}
            Some(&(last, _)) => {
                assert!(
                    epoch > last,
                    "reader {r} went back from epoch {last} to {epoch}"
                );
                captures.push((epoch, keys(flat.iter())));
            }
            None => captures.push((epoch, keys(flat.iter()))),
        }
        let rect_ix = (q * 7 + r) % rects.len();
        let rect = &rects[rect_ix];
        let mut stats = SearchStats::default();
        let mut out = Vec::new();
        flat.search_rect_into(rect, &mut stats, &mut out);
        let brute = keys(flat.iter().filter(|(p, _)| rect.contains_point(p)));
        assert_eq!(
            keys(out.iter().copied()),
            brute,
            "reader {r}, epoch {epoch}"
        );
        seen.push(Observation {
            epoch,
            rect: rect_ix,
            answer: out.iter().map(|(_, d)| **d).collect(),
            stats,
        });
        if finished && q + 1 >= MIN_QUERIES {
            break;
        }
    }
    (seen, captures)
}

/// What one run produced: the writer's tree at every epoch, and per
/// reader its observations and image captures.
type Run = (Vec<RTree<2, usize>>, Vec<(Vec<Observation>, Vec<Capture>)>);

/// Runs one writer against `READERS` readers.
fn run(seed: u64, initial: usize, epoch_writes: usize) -> Run {
    let mut writer = Writer::new(seed, initial);
    let first = Arc::new((0, FlatRTree::freeze(writer.tree.clone())));
    let published: RwLock<Arc<Image>> = RwLock::new(first);
    let done = AtomicBool::new(false);
    let rects = query_rects(seed ^ 0x5eed);
    let (published, done, rects) = (&published, &done, &rects);
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let mut history = vec![writer.tree.clone()];
            for epoch in 1..=EPOCHS {
                for _ in 0..epoch_writes {
                    writer.churn();
                }
                history.push(writer.tree.clone());
                let image = Arc::new((epoch, FlatRTree::freeze(writer.tree.clone())));
                *published.write().unwrap() = image;
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
            history
        });
        let readers: Vec<_> = (0..READERS)
            .map(|r| scope.spawn(move || read(r, published, done, rects)))
            .collect();
        let history = writer.join().unwrap();
        let seen = readers.into_iter().map(|h| h.join().unwrap()).collect();
        (history, seen)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Readers querying a churning writer's published images always get
    /// answers that are exactly the writer's tree at the image's epoch.
    #[test]
    fn prop_snapshot_reads_match_the_published_epoch(
        seed in 0u64..1_000_000,
        initial in 0usize..400,
        epoch_writes in 1usize..48,
    ) {
        let (history, readers) = run(seed, initial, epoch_writes);
        prop_assert_eq!(history.len(), EPOCHS + 1);
        let rects = query_rects(seed ^ 0x5eed);
        for (seen, captures) in &readers {
            prop_assert!(seen.len() >= MIN_QUERIES);
            // Every image a reader held is the writer's tree at its epoch.
            for (epoch, image_keys) in captures {
                prop_assert_eq!(image_keys, &keys(history[*epoch].iter()));
            }
            // Every answer reproduces the writer's tree at that epoch
            // bitwise: candidates, their order, and the statistics.
            for o in seen {
                let mut stats = SearchStats::default();
                let mut out = Vec::new();
                history[o.epoch].query_rect_into(&rects[o.rect], &mut stats, &mut out);
                let expected: Vec<usize> = out.iter().map(|(_, d)| **d).collect();
                prop_assert_eq!(&o.answer, &expected);
                prop_assert_eq!(o.stats, stats);
            }
        }
        // The writer finished, so the last capture is the final epoch.
        for (_, captures) in &readers {
            prop_assert_eq!(captures.last().map(|c| c.0), Some(EPOCHS));
        }
    }
}
