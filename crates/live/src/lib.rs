//! Crash-safe live ingest for the PPQ trajectory repository.
//!
//! [`ppq_repo`] persists *finished* snapshots: the writer assumes a
//! whole [`ppq_core::ShardedSummary`] is in hand and commits it as a
//! generation. A live deployment has the opposite shape — an unbounded
//! stream of per-timestep slices, a process that can die between any two
//! instructions, and clients that expect an acknowledged slice to
//! survive the crash. This crate closes that gap with three pieces:
//!
//! * **Write-ahead log** ([`wal::Wal`]) — every pushed slice is recorded
//!   in a CRC-sealed, length-prefixed log (group-committed fsyncs)
//!   *before* it enters the in-memory pipeline. Recovery replays the
//!   tail, trimming a torn final record and refusing (typed, never a
//!   panic) mid-log corruption that a crash cannot produce.
//! * **Recovery from the chain** ([`LiveRepo::recover`]) — each fold
//!   commits the pipeline state only a resumed stream needs
//!   ([`ppq_core::state`]) with its generation, under the same manifest
//!   rename, so recovery = the chain's summaries + that state + the WAL
//!   tail. Because
//!   the pipeline is deterministic, the recovered stream is *bit
//!   identical* to an uncrashed run over the same acknowledged slices —
//!   same summary bytes, same STRQ/TPQ answers (property-tested by the
//!   crash-anywhere suite at every instrumented I/O operation).
//! * **Folding and auto-compaction** ([`LiveRepo::fold`],
//!   [`LiveRepo::maybe_compact`], [`LiveRepo::maintain_if_due`]) — on a
//!   configurable cadence the WAL is
//!   drained into a delta generation, pipeline state included, through a
//!   cached [`ppq_repo::Appender`], the log is truncated, and the chain is compacted when it grows past a length
//!   or dead-byte threshold. Maintenance failures back off and retry;
//!   they never take down ingest — the WAL simply keeps absorbing
//!   slices until a fold succeeds.
//!
//! Every durable operation routes through [`ppq_storage::fault`], which
//! is what makes "crash at every single I/O operation and prove recovery
//! converges" a unit test instead of a hope.
//!
//! [`service::LiveService`] layers concurrent *serving* on top: a single
//! writer lane feeds the repo while readers answer STRQ/TPQ against
//! immutable published snapshots, versioned by the stream's `next_t` so
//! every answer is provably a function of an acknowledged slice prefix.
//! [`worker::MaintenanceWorker`] is the service's one maintainer: it runs
//! fold/compaction/WAL-sync on a dedicated background thread, takes the
//! writer lock only to freeze and to commit each fold, and drains on
//! shutdown — the deployment shape `ppq-server` runs.

pub mod live;
pub mod service;
pub mod wal;
pub mod worker;

pub use live::{LiveConfig, LiveError, LiveRepo, MaintenanceOutcome};
pub use service::{LiveService, Published, ServiceStatus};
pub use wal::{Wal, WalError, WalRecord, WAL_NAME};
pub use worker::{MaintenanceConfig, MaintenanceWorker, WorkerStats};
