//! Persistent PPQ trajectory repository (the paper's §6.5 deployment
//! mode, grown into a reopenable, *incrementally growing* store).
//!
//! The in-memory pipeline produces a [`ppq_core::PpqSummary`] (or a
//! [`ppq_core::ShardedSummary`]); this crate makes that artifact
//! *durable, serveable, and appendable*:
//!
//! * [`RepoWriter::write`] lays a finished summary out as a
//!   single-directory store — a checksummed [`layout::Manifest`] (written
//!   temp + rename, so a crash mid-write leaves the previous state
//!   intact), one summary segment per shard, and TPI page segments whose
//!   `(period, region, t, cell)` ID blocks are addressed by a directory
//!   segment of Elias–Fano keys ([`dir`]): a block's place in the page
//!   stream is `select1` over its list boundary bits, so no per-block
//!   entry is stored.
//! * [`RepoWriter::append`] persists only what a *later snapshot of the
//!   same stream* adds: a summary-delta segment
//!   ([`ppq_core::summary_io::delta_to_bytes`]), the TPI blocks of the
//!   new timestep window, and the directory fragments of that window —
//!   one new *delta generation* stacked on the committed chain, instead of a full
//!   rewrite. The pipeline's state is append-only, so the writer can
//!   *verify* (not assume) that the committed store is an exact prefix of
//!   the new snapshot, and refuses with [`RepoError::NotAnExtension`]
//!   otherwise.
//! * [`Repo::open`] validates every segment of every live generation
//!   against the manifest's recorded lengths and CRCs, reassembles the
//!   summary chain (proving it equals the writer's summary via the
//!   recorded end-to-end CRC), stitches the generations' directory
//!   fragments, which partition time, into one [`dir::Directory`] —
//!   checking each generation once against its page segment — and
//!   attaches all
//!   page segments to one shared segmented-LRU buffer pool
//!   ([`ppq_storage::SharedBufferPool`], frames keyed per generation) —
//!   data pages are only touched when a query needs them.
//! * [`Repo::compact`] collapses the chain back into a single fresh base
//!   generation with the same crash-safe commit protocol — and can
//!   re-shard the store `S → S′` in the same pass
//!   ([`ppq_core::ShardedSummary::reshard`] keeps every trajectory's
//!   encoding bit-for-bit). Superseded segments are swept only after the
//!   commit.
//! * [`DiskQueryEngine`] answers STRQ/TPQ straight off the open
//!   repository. It is `ppq_core`'s one query kernel over a paged posting
//!   source, so it is bit-identical to the in-memory
//!   `QueryEngine`/`ShardedQueryEngine` on the same summary — whether the
//!   store was written in one shot, grown by appends, or compacted — with
//!   page I/Os counted the way Table 9 counts them (a buffer hit is not
//!   an I/O), per query and cumulatively.
//!
//! The directory is the structural win over the scan-based
//! [`ppq_tpi::DiskTpi`]: where `DiskTpi` must read a period's pages until
//! the wanted block happens to parse past, the directory maps the block
//! to `(page, offset)` and pages in only the page(s) it spans;
//! `tests/persistence.rs` checks it pages in strictly fewer. Every byte
//! of the on-disk format is specified in `docs/FORMAT.md`.
//!
//! Build → append → compact → reopen:
//!
//! ```no_run
//! use ppq_core::{PpqConfig, PpqStream, Variant};
//! use ppq_repo::{DiskQueryEngine, Repo, RepoWriter};
//! use ppq_traj::synth::{porto_like, PortoConfig};
//!
//! let data = porto_like(&PortoConfig::small());
//! let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
//! let slices: Vec<_> = data.time_slices().collect();
//!
//! // Stream the first half, persist the snapshot, keep ingesting.
//! let dir = std::env::temp_dir().join("ppq-repo-demo");
//! let writer = RepoWriter::new(&dir);
//! let mut stream = PpqStream::new(cfg.clone());
//! for s in &slices[..slices.len() / 2] {
//!     stream.push_slice(s.t, s.points);
//! }
//! writer.write(&stream.snapshot())?;                // build → close
//!
//! // Later: append only the new timestep window as a delta generation.
//! for s in &slices[slices.len() / 2..] {
//!     stream.push_slice(s.t, s.points);
//! }
//! writer.append(&stream.finish())?;                 // incremental append
//!
//! // Reopen the stitched chain and serve queries from disk.
//! let repo = Repo::open(&dir, 64)?;
//! assert_eq!(repo.num_generations(), 2);
//! let engine = DiskQueryEngine::new(&repo, &data, cfg.tpi.pi.gc);
//! let (id, t, p) = data.iter_points().next().unwrap();
//! assert!(engine.strq(t, &p)?.exact.contains(&id)); // query from disk
//!
//! // Maintenance: collapse the chain (answers are unchanged), reopen.
//! repo.compact(None)?;
//! let repo = Repo::open(&dir, 64)?;
//! assert_eq!(repo.num_generations(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod appender;
pub mod dir;
pub mod engine;
pub mod layout;
pub mod repo;
pub mod writer;

pub use appender::Appender;
pub use engine::{DiskProbe, DiskQueryEngine, DiskQueryWorkspace};
pub use layout::{GenKind, GenManifest, Manifest, RepoError, ShardManifest};
pub use repo::{ChainState, Repo, ShardStore};
pub use writer::RepoWriter;
