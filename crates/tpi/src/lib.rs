//! Temporal Partition-based Index (paper §5.1).
//!
//! * [`pi`] — the per-timestep partition index **PI** (Algorithm 3):
//!   bounded spatial partitioning with `ε_s`, minimum bounding rectangles,
//!   overlap removal into disjoint rectangles, and a `g_c` grid per
//!   rectangle whose cells hold per-timestep trajectory-ID lists — raw
//!   per-timestep dictionaries while the period is open, one succinct
//!   dictionary for the whole period (Elias–Fano keys over `(region, t,
//!   cell)`, a fixed-width ID column) once it seals. Also hosts the
//!   trajectory-region-density machinery (TRD, Definition 5.1) and the
//!   average dropping rate (ADR, Eqs. 12–14).
//! * [`tpi`] — the temporal index **TPI** (Algorithm 4), grown one slice
//!   at a time: reuse the current PI while `ADR ≤ ε_d` (building small
//!   "Insertion" PIs for uncovered points), otherwise seal the period and
//!   re-build. Sealed periods are immutable and shared between clones.
//! * [`disk`] — the disk-resident variant of §6.5: period data written to
//!   1 MiB pages behind the lightweight page index, with I/O counting.

pub mod disk;
pub mod pi;
pub mod tpi;

pub use disk::DiskTpi;
pub use pi::{Pi, PiConfig, Region, SealedPostings, SealedSlice};
pub use tpi::{Tpi, TpiConfig, TpiStats};
