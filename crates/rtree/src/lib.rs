//! # gprq-rtree
//!
//! A from-scratch in-memory **R\*-tree** over `D`-dimensional points,
//! built as the Phase-1 index substrate for the `gaussian-prq` workspace
//! (reproduction of *"Spatial Range Querying for Gaussian-Based Imprecise
//! Query Objects"*, ICDE 2009, which uses an R\*-tree with 1 KB pages).
//!
//! Features:
//!
//! * R\* insertion: ChooseSubtree with overlap minimization at the leaf
//!   level, forced reinsertion (once per level per operation), and the
//!   margin-driven axis/index split;
//! * deletion with tree condensation and orphan reinsertion;
//! * STR bulk loading for large static datasets;
//! * rectangle-range, ball-range, and best-first k-NN queries, each with
//!   node-access statistics ([`SearchStats`]);
//! * a full structural [`RTree::validate`] used by the property tests;
//! * a cache-conscious read-optimized flat image ([`FlatRTree`]) with
//!   SoA node blocks and branch-free AABB scans for the Phase-1 hot
//!   path.
//!
//! ```
//! use gprq_rtree::{RTree, RStarParams};
//! use gprq_linalg::Vector;
//!
//! let points: Vec<(Vector<2>, u32)> = (0..1000)
//!     .map(|i| (Vector::from([(i % 37) as f64, (i % 61) as f64]), i))
//!     .collect();
//! let tree = RTree::bulk_load(points, RStarParams::paper_default(2));
//! assert_eq!(tree.len(), 1000);
//! let near_origin = tree.query_ball(&Vector::from([0.0, 0.0]), 5.0);
//! assert!(!near_origin.is_empty());
//! ```
//!
//! ## Concurrent reads: published snapshots
//!
//! [`RTree`] is single-writer. To serve Phase 1 to many threads while
//! the data changes, one writer owns a private `RTree` and, at each
//! epoch boundary, publishes an immutable [`FlatRTree`] image behind an
//! `Arc`. Readers clone the `Arc` once per query (or per batch) and
//! search the image with no further synchronization; a write becomes
//! visible at the next publish, so a reader lags the writer by at most
//! one epoch. Candidates borrow from the image, so a reader that reuses
//! one result buffer across queries must hold the same `Arc` for the
//! whole batch.
//!
//! ```
//! use std::sync::{Arc, RwLock};
//! use gprq_linalg::Vector;
//! use gprq_rtree::{FlatRTree, Phase1Index, RStarParams, RTree, Rect, SearchStats};
//!
//! let mut tree: RTree<2, u32> = RTree::with_params(RStarParams::paper_default(2));
//! let published = RwLock::new(Arc::new(FlatRTree::freeze(tree.clone())));
//! let window = Rect::centered(&Vector::from([5.0, 5.0]), &Vector::from([5.0, 5.0]));
//!
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         for i in 0..64u32 {
//!             tree.insert(Vector::from([f64::from(i % 8), f64::from(i / 8)]), i);
//!             if (i + 1) % 16 == 0 {
//!                 // Epoch boundary: publish a fresh image.
//!                 let image = Arc::new(FlatRTree::freeze(tree.clone()));
//!                 *published.write().expect("no publisher panicked") = image;
//!             }
//!         }
//!     });
//!     s.spawn(|| {
//!         for _ in 0..100 {
//!             let image = Arc::clone(&published.read().expect("no publisher panicked"));
//!             let (mut stats, mut hits) = (SearchStats::default(), Vec::new());
//!             image.search_rect_into(&window, &mut stats, &mut hits);
//!             assert!(hits.len() <= image.len());
//!         }
//!     });
//! });
//! assert_eq!(published.read().expect("no publisher panicked").len(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bulk;
pub mod flat;
pub mod node;
pub mod params;
pub mod query;
pub mod rect;
mod split;
pub mod tree;

pub use flat::{FlatRTree, PACKED_FANOUT};
pub use node::LeafEntry;
pub use params::RStarParams;
pub use query::{KnnScratch, Phase1Index, SearchStats};
pub use rect::Rect;
pub use tree::{RTree, TreeStats};
