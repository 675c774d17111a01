//! Parity tests for the cache-conscious flat index: a frozen image must
//! reproduce the pointer tree bitwise (candidates, order, and every
//! `SearchStats` counter), directly and through the batched
//! `Phase1Index::search_rects_into` entry point.

use gprq_linalg::Vector;
use gprq_rtree::{FlatRTree, Phase1Index, RStarParams, RTree, Rect, SearchStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_points(n: usize, seed: u64, extent: f64) -> Vec<(Vector<2>, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            (
                Vector::from([rng.gen::<f64>() * extent, rng.gen::<f64>() * extent]),
                i,
            )
        })
        .collect()
}

fn build_tree(points: &[(Vector<2>, usize)]) -> RTree<2, usize> {
    let mut tree = RTree::new();
    for (p, id) in points {
        tree.insert(*p, *id);
    }
    tree.validate().expect("tree invariants");
    tree
}

fn random_rects(n: usize, seed: u64, extent: f64) -> Vec<Rect<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let c = Vector::from([rng.gen::<f64>() * extent, rng.gen::<f64>() * extent]);
            let half = Vector::from([rng.gen::<f64>() * 120.0, rng.gen::<f64>() * 120.0]);
            Rect::centered(&c, &half)
        })
        .collect()
}

/// Solo baseline for one rectangle via the flat single-rect entry point.
fn solo<'t>(
    flat: &'t FlatRTree<2, usize>,
    rect: &Rect<2>,
) -> (Vec<(&'t Vector<2>, &'t usize)>, SearchStats) {
    let mut stats = SearchStats::default();
    let mut out = Vec::new();
    flat.query_rect_into(rect, &mut stats, &mut out);
    (out, stats)
}

#[test]
fn frozen_image_matches_pointer_tree_bitwise() {
    let points = random_points(3_000, 41, 1_000.0);
    // Both topologies: incremental R* inserts and STR bulk load.
    for tree in [
        build_tree(&points),
        RTree::bulk_load(points.clone(), RStarParams::paper_default(2)),
    ] {
        let flat = FlatRTree::freeze(tree.clone());
        for rect in random_rects(40, 42, 1_000.0) {
            let mut tree_stats = SearchStats::default();
            let mut tree_out = Vec::new();
            tree.query_rect_into(&rect, &mut tree_stats, &mut tree_out);
            let (flat_out, flat_stats) = solo(&flat, &rect);
            assert_eq!(flat_out, tree_out, "candidates diverge from source tree");
            assert_eq!(flat_stats, tree_stats, "stats diverge from source tree");
        }
    }
}

#[test]
fn trait_dispatch_matches_pointer_tree_through_phase1_index() {
    let points = random_points(1_500, 91, 400.0);
    let tree = build_tree(&points);
    let flat = FlatRTree::freeze(tree.clone());
    let rects = random_rects(9, 92, 400.0);

    let mut tree_stats = vec![SearchStats::default(); rects.len()];
    let mut tree_out: Vec<Vec<(&Vector<2>, &usize)>> = vec![Vec::new(); rects.len()];
    Phase1Index::search_rects_into(&tree, &rects, &mut tree_stats, &mut tree_out);

    let mut flat_stats = vec![SearchStats::default(); rects.len()];
    let mut flat_out: Vec<Vec<(&Vector<2>, &usize)>> = vec![Vec::new(); rects.len()];
    Phase1Index::search_rects_into(&flat, &rects, &mut flat_stats, &mut flat_out);

    for q in 0..rects.len() {
        assert_eq!(flat_out[q], tree_out[q], "candidates diverge for query {q}");
        assert_eq!(flat_stats[q], tree_stats[q], "stats diverge for query {q}");
    }
}
