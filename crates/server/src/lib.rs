//! Live trajectory service shell: the deployment face of the PPQ
//! repository.
//!
//! Everything below this crate is a library — `ppq_live::LiveService`
//! ingests and answers in-process. This crate is the missing network
//! layer, deliberately boring: a **versioned length-prefixed binary
//! protocol** ([`proto`]) in the same codec dialect as the on-disk
//! formats, a **threaded blocking TCP transport** ([`server`]) — no
//! async runtime, a handful of OS threads, each read spinning briefly
//! before it blocks while a core is free — and a **client** ([`client`])
//! whose [`client::RemoteClient`] implements
//! [`ppq_core::query::QueryTarget`], so a load driver drives a remote
//! server with the exact machinery it uses in-process.
//!
//! The serving contract is inherited, not invented: every answer is
//! computed against an immutable published snapshot and stamped with its
//! version, so a remote STRQ/TPQ is **bit-identical** to an in-process
//! query at the same version — the round-trip tests check equality on
//! the full answer structure, not cardinalities.
//!
//! Operationally the server owns what a deployment needs and a library
//! must not hardcode: a background [`ppq_live::MaintenanceWorker`]
//! keeping fold/compaction/WAL-sync off the ingest path, overload
//! shedding at the accept edge ([`proto::Response::Busy`]), and graceful
//! shutdown that drains in-flight requests and folds every
//! acknowledged slice into the chain before exit.

pub mod client;
pub mod proto;
pub mod server;
mod wait;

pub use client::{ClientError, RemoteClient, RemoteConn, RemoteCtx};
pub use proto::{ProtocolError, Request, Response, StatsBody, WireError, MAX_FRAME_LEN};
pub use server::{start, ServerConfig, ServerHandle, ServerStats};
pub use wait::SPIN_BUDGET;
