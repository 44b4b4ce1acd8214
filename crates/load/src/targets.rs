//! [`crate::QueryTarget`] backends the harness drives.
//!
//! The trait itself lives in [`ppq_core::query::QueryTarget`] — it is
//! the repo-wide query-backend abstraction, not a harness detail — and
//! each implementation lives with its backend (the orphan rule wants it
//! there anyway):
//!
//! * `ShardedQueryEngine` and `DiskQueryEngine` — one query kernel
//!   (`ppq_core::query::QueryEngine`) over the in-memory and the paged
//!   posting source; the impls sit in `ppq-core` and `ppq-repo` (where
//!   I/O errors panic: an open-loop run cannot meaningfully continue
//!   past a failing disk).
//! * `LiveService` — in `ppq-live`, answering against published
//!   snapshots.
//! * `RemoteClient` — in `ppq-server`, driving a live server over TCP
//!   with one lazily-dialed connection per worker thread.
//!
//! All of them answer through the *production* query forms (no
//! ground-truth scoring scan), through each backend's reusable
//! per-thread workspace so the steady-state loop allocates only answer
//! vectors.
