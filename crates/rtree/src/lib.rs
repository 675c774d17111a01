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
//!   SoA node blocks, branch-free AABB scans, and packed multi-rect
//!   probes for the Phase-1 hot path.
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bulk;
pub mod concurrent;
pub mod flat;
pub mod node;
pub mod olc;
pub mod params;
pub mod query;
pub mod rect;
mod split;
pub mod tree;

pub use concurrent::{ConcQueryScratch, ConcurrentRTree, ContentionLadder, MAX_FANOUT};
pub use flat::{FlatRTree, PACKED_FANOUT};
pub use node::LeafEntry;
pub use olc::{ReadOutcome, VersionCell};
pub use params::RStarParams;
pub use query::{KnnScratch, Phase1Index, SearchStats, OLC_DEPTH_BUCKETS};
pub use rect::Rect;
pub use tree::{RTree, TreeStats};
