//! Paged disk storage substrate.
//!
//! The disk-resident comparison of the paper (§6.5, Table 9) writes the
//! trajectory points of each time period onto 1 MiB pages, keeps a
//! lightweight `(period, starting page, page count)` index, and reports
//! query response time and *page I/Os*. This crate supplies:
//!
//! * [`page`] — the fixed-size page abstraction, with a CRC-32 trailer
//!   sealed on write and verified on page-in.
//! * [`store`] — a file-backed page store with read/write I/O counters and
//!   an optional LRU buffer pool (a buffer hit is not an I/O, matching how
//!   TrajStore counts).
//! * [`pool`] — a segmented-LRU cache of immutable pages *shared* across
//!   segments (the repository's shard-aware pool) and the read-only
//!   [`Segment`] handle with per-call I/O accounting. Every read returns
//!   an owned `Arc<Page>`, so eviction never invalidates a page a caller
//!   holds.
//! * [`codec`] — a small byte codec (via `bytes`) for serializing
//!   fixed-layout records onto pages, with checked accessors for decoding
//!   untrusted input.
//! * [`mod@crc32`] — the shared CRC-32 implementation.
//! * [`page_index`] — the lightweight period → page-range index of §5.1.
//! * [`fault`] — deterministic fault injection under every durable I/O
//!   path (the crash-anywhere and torn-write test harness).
//!
//! A page is read one way: a positional read on the calling thread
//! through [`fault`], then the CRC check. The store, a segment and a
//! pool batch all page in through that one function.

#![forbid(unsafe_code)]

pub mod codec;
pub mod crc32;
pub mod fault;
pub mod page;
pub mod page_index;
pub mod pool;
pub mod store;

pub use crc32::crc32;
pub use page::{payload_capacity, Page, PAGE_SIZE, PAGE_TRAILER};
pub use page_index::PageIndex;
pub use pool::{FetchedPages, PageRequest, Segment, SharedBufferPool};
pub use store::{IoStats, PageStore};
