//! # PPQ-Trajectory
//!
//! A production-quality Rust reproduction of *PPQ-Trajectory:
//! Spatio-temporal Quantization for Querying in Large Trajectory
//! Repositories* (Wang & Ferhatosmanoglu, PVLDB 14(2), 2021).
//!
//! This façade crate re-exports the workspace crates under stable names so
//! downstream users can depend on a single package:
//!
//! * [`geo`] — planar geometry primitives (points, boxes, grids).
//! * [`traj`] — trajectory model, synthetic dataset generators, CSV I/O.
//! * [`quantize`] — vector-quantization substrate (k-means, incremental
//!   error-bounded quantizer, product/residual quantizers).
//! * [`predict`] — linear prediction + AR(k) autocorrelation features.
//! * [`cqc`] — coordinate quadtree coding (paper §4).
//! * [`sindex`] — grid index, overlap removal, ID-list compression.
//! * [`tpi`] — partition index / temporal partition index (paper §5.1).
//! * [`storage`] — paged disk store with I/O accounting.
//! * [`core`] — the PPQ-trajectory pipeline itself: E-PQ, PPQ-S/PPQ-A,
//!   summary, and the STRQ/TPQ query engine.
//! * [`repo`] — the persistent, reopenable repository: segmented on-disk
//!   format, block directory, shared buffer pool, disk query engine.
//! * [`live`] — crash-safe live ingest over the repository: write-ahead
//!   log, bit-identical recovery from the chain, folding + auto-compaction.
//! * [`server`] — the live service shell: versioned binary wire
//!   protocol, threaded TCP transport, background maintenance worker,
//!   and a remote query-target client.
//! * [`baselines`] — Q-trajectory, PQ, RQ, TrajStore, REST.
//!
//! ## Quickstart
//!
//! ```
//! use ppq_trajectory::core::{PpqConfig, PartitionMode, PpqTrajectory};
//! use ppq_trajectory::traj::synth::{porto_like, PortoConfig};
//!
//! // A small synthetic dataset shaped like the Porto taxi data.
//! let dataset = porto_like(&PortoConfig { trajectories: 40, ..PortoConfig::small() });
//!
//! // Summarise it with the default paper parameters (ε₁ = 0.001°…).
//! let config = PpqConfig { partition_mode: PartitionMode::Spatial, ..PpqConfig::default() };
//! let built = PpqTrajectory::build(&dataset, &config);
//!
//! // Every reconstructed point is within (√2/2)·g_s of the original.
//! let bound = built.config().cqc_error_bound();
//! for (id, t, original) in dataset.iter_points() {
//!     let rec = built.reconstruct(id, t).unwrap();
//!     assert!(original.dist(&rec) <= bound + 1e-9);
//! }
//! ```

pub use ppq_baselines as baselines;
pub use ppq_core as core;
pub use ppq_cqc as cqc;
pub use ppq_geo as geo;
pub use ppq_live as live;
pub use ppq_obs as obs;
pub use ppq_predict as predict;
pub use ppq_quantize as quantize;
pub use ppq_repo as repo;
pub use ppq_server as server;
pub use ppq_sindex as sindex;
pub use ppq_storage as storage;
pub use ppq_tpi as tpi;
pub use ppq_traj as traj;
