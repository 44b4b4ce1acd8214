//! Spatial-index substrate for PPQ-Trajectory.
//!
//! The temporal partition index (paper §5.1, "A new method to index and
//! store spatio-temporal data" tradition) composes five pieces that live
//! here because they are generic spatial machinery rather than part of
//! the PPQ contribution itself:
//!
//! * [`overlap`] — decompose a new rectangle minus existing ones into
//!   non-overlapping rectangles (`remove_overlap`, Algorithm 3 lines 6–8,
//!   after Gourley & Green's polygon-to-rectangle conversion).
//! * [`dict`] — the posting dictionary every cell → IDs mapping is
//!   stored in: sorted keys plus offsets into one arena of ID lists, raw
//!   while its period is open and Huffman-packed under one code shared by
//!   the whole period once sealed.
//! * [`grid_index`] — the per-rectangle uniform grid mapping points to
//!   cells and cells to trajectory-ID lists (Algorithm 3 line 11): one
//!   sealed dictionary with precomputed occupied-cell bounds for
//!   candidate pruning.
//! * [`huffman`] / [`idlist`] — the list codec: delta + LEB128 gaps,
//!   canonical Huffman over the gap bytes ("we compress trajectory IDs
//!   mapped to the grid cell by delta encoding and Huffman codes", §5.1)
//!   — the sizes that show up in the paper's index-size Tables 7–9.
//! * [`posting`] — sorted/bitset posting-list unions and intersections
//!   plus the reusable [`QueryScratch`], the allocation-free machinery
//!   behind the STRQ/TPQ query path (§5.2).
//! * [`region_quadtree`] — the adaptive spatial quadtree used by the
//!   TrajStore baseline (split on overflow, merge on underflow), with
//!   content-bounding-box pruned rectangle queries.

pub mod dict;
pub mod grid_index;
pub mod huffman;
pub mod idlist;
pub mod overlap;
pub mod posting;
pub mod region_quadtree;

pub use dict::PostingDict;
pub use grid_index::GridIndex;
pub use huffman::Huffman;
pub use idlist::CompressedIdList;
pub use overlap::remove_overlap;
pub use posting::{IdBitSet, QueryScratch};
pub use region_quadtree::RegionQuadtree;
