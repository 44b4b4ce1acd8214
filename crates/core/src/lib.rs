//! PPQ-Trajectory core — the paper's primary contribution.
//!
//! The pipeline (paper Figure 1) runs online, one timestep at a time:
//!
//! 1. **Partition** the active trajectories by spatial proximity (PPQ-S,
//!    Eq. 7) or AR(k)-autocorrelation similarity (PPQ-A, Eq. 8), carrying
//!    partitions forward incrementally (§3.2.2) — [`partition`].
//! 2. **Predict** each point from its previous `k` *reconstructed* points
//!    with one least-squares model per partition (Eqs. 1–2, 6) —
//!    `ppq-predict`.
//! 3. **Quantize** the prediction errors into the growing error-bounded
//!    codebook `C` (Eq. 3, Algorithm 1) — `ppq-quantize`.
//! 4. **Code the residual** deviation with CQC (§4) — `ppq-cqc`.
//! 5. **Index** the reconstructed points with TPI (§5.1) — `ppq-tpi`.
//!
//! [`pipeline::PpqTrajectory::build`] drives all five stages and returns a
//! [`summary::PpqSummary`] whose size breakdown feeds the compression-
//! ratio experiments, plus the TPI used by [`query::QueryEngine`] to
//! answer STRQ and TPQ with the local-search guarantee of §5.2.
//!
//! The variant space of the evaluation (PPQ-A/S, the `-basic` versions,
//! E-PQ, Q-trajectory) is spanned by [`config::PpqConfig`] flags; see
//! [`config::Variant`].
//!
//! Query evaluation is allocation-lean and chunk-parallel: see
//! [`query::QueryWorkspace`] and [`query::QueryEngine::strq_batch`] for
//! the reusable-workspace / bit-identical-batching contract (the
//! query-path mirror of the build path's `KMeansWorkspace`).
//!
//! For repository-scale streams, [`shard::ShardedPpqStream`]
//! hash-partitions trajectory ids over independent pipeline shards and
//! [`query::ShardedQueryEngine`] fans STRQ/TPQ out across them — see
//! the [`shard`] module docs for the determinism and quality contract.

pub mod config;
pub mod ndkmeans;
pub mod partition;
pub mod pipeline;
pub mod query;
pub mod shard;
#[cfg(test)]
mod snapshot_props;
pub mod state;
pub mod summary;
pub mod summary_io;

pub use config::{BuildBudget, ColdStart, PartitionMode, PpqConfig, Variant};
pub use pipeline::{PpqStream, PpqTrajectory};
pub use query::{QueryEngine, QueryTarget, QueryWorkspace, ShardedQueryEngine, StrqOutcome};
pub use shard::{ReshardError, ShardRouter, ShardedPpqStream, ShardedSummary};
pub use summary::{BuildStats, CodebookStore, PpqSummary, SummaryBreakdown};
