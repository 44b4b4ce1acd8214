//! Spatial-index substrate for PPQ-Trajectory.
//!
//! The temporal partition index (paper §5.1, "A new method to index and
//! store spatio-temporal data" tradition) composes pieces that live
//! here because they are generic spatial machinery rather than part of
//! the PPQ contribution itself:
//!
//! * [`bits`] — the one LSB-first bit packer: [`bits::BitVec`], a
//!   `u64`-word stream of values up to 64 bits wide with a checked byte
//!   image (the summary's codeword indices and CQC codes), and the
//!   set/read/select word helpers the sealed dictionary runs on.
//! * [`overlap`] — decompose a new rectangle minus existing ones into
//!   non-overlapping rectangles (`remove_overlap`, Algorithm 3 lines 6–8,
//!   after Gourley & Green's polygon-to-rectangle conversion).
//! * [`dict`] — the raw posting dictionary an open TPI period keeps per
//!   `(region, timestep)`: sorted cell keys plus offsets into one arena of
//!   delta-varint ID lists, cheap to merge further insertions into.
//! * [`sealed`] — the succinct dictionary a period becomes when it seals:
//!   Elias–Fano keys, a boundary bitvector with one bit per ID, and a
//!   fixed-width ID column, one per period. Lists average about one ID,
//!   so the keys are the index; the column stands in for the paper's
//!   delta + Huffman list codec (§5.1), a deliberate deviation.
//! * [`huffman`] / [`idlist`] — the paper's list codec over a single
//!   list ([`CompressedIdList`]): delta + LEB128 gaps, canonical Huffman
//!   over the gap bytes ("we compress trajectory IDs mapped to the grid
//!   cell by delta encoding and Huffman codes", §5.1).
//! * [`posting`] — sorted/bitset posting-list unions and intersections,
//!   the one cell-range walk over either dictionary form, and the
//!   reusable [`QueryScratch`]: the allocation-free machinery behind the
//!   STRQ/TPQ query path (§5.2).
//! * [`region_quadtree`] — the adaptive spatial quadtree used by the
//!   TrajStore baseline (split on overflow, merge on underflow), with
//!   content-bounding-box pruned rectangle queries.

pub mod bits;
pub mod dict;
pub mod huffman;
pub mod idlist;
pub mod overlap;
pub mod posting;
pub mod region_quadtree;
pub mod sealed;

pub use dict::PostingDict;
pub use idlist::CompressedIdList;
pub use overlap::remove_overlap;
pub use posting::{IdBitSet, QueryScratch};
pub use region_quadtree::RegionQuadtree;
pub use sealed::SealedDict;
