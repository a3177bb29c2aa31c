//! # dhs-par — a deterministic multi-threaded sharded ingest driver
//!
//! One layer: [`driver`], a threaded ingest driver over `dhs-shard`'s
//! [`dhs_shard::ShardRouter`] — one worker per shard set, bounded SPSC
//! queues, seeded per-worker RNGs, and a deterministic fan-in merge of
//! per-shard digests and per-worker metric registries, so two same-seed
//! runs produce identical digests at *any* thread count.
//!
//! It keeps the honesty invariant the rest of the repository enforces:
//! going fast (threads, chunk reordering) must be observationally
//! equivalent to the slow deterministic path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;

pub use driver::{run_saturation, SatConfig, SatReport, WorkerStats};
