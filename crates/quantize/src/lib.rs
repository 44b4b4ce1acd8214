//! Vector-quantization substrate for PPQ-Trajectory.
//!
//! The paper builds on three quantization primitives, all implemented here:
//!
//! * [`mod@kmeans`] — Lloyd's algorithm plus the *bounded* variant the paper
//!   uses everywhere (grow the number of clusters by `a` per round until a
//!   radius constraint such as Eq. 7/8 holds — complexity `O(q·m·N·l)`,
//!   paper Lemma 1).
//! * [`incremental`] — the error-bounded incremental quantizer of
//!   Algorithm 1 line 6: maintain a codebook `C` such that every quantized
//!   value is within `ε₁` of its codeword, adding codewords online as the
//!   error distribution drifts.
//! * [`product`] / [`residual`] — the Product Quantization and Residual
//!   Quantization baselines from the evaluation (§6.1), restated for 2-D
//!   trajectory points.
//!
//! [`grid_nn`] supplies the O(1) nearest-codeword search that makes the
//! incremental quantizer fast. Codeword index streams are bit-packed by
//! `ppq_sindex::bits` where the summary is serialized.

pub mod codebook;
pub mod grid_nn;
pub mod incremental;
pub mod kmeans;
pub mod product;
pub mod residual;

pub use codebook::Codebook;
pub use grid_nn::GridNN;
pub use incremental::IncrementalQuantizer;
pub use kmeans::{
    bounded_kmeans, bounded_kmeans_with, kmeans, kmeans_with, BoundedKMeansResult, KMeansConfig,
    KMeansWorkspace,
};
pub use product::{PqWorkspace, ProductQuantizer};
pub use residual::ResidualQuantizer;
