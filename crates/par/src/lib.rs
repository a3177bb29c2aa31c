//! # dhs-par — out-of-order completions and a deterministic threaded driver
//!
//! Two layers on top of the `dhs-core` request state machines:
//!
//! * [`lab`] — a completion-based transport shim: sends are
//!   *submitted* to a [`lab::CompletionLab`] and *completed* later, in
//!   any seeded permutation. Because
//!   [`dhs_core::ScanMachine`] and [`dhs_core::StoreMachine`] keep all
//!   in-flight state explicit, replaying completions out of order
//!   cannot change an estimate: same seed ⇒ bit-identical registers,
//!   estimates, and RNG draw counts versus the strictly in-order
//!   [`dhs_core::DirectTransport`] drive.
//! * [`driver`] — a multi-threaded sharded ingest driver over
//!   `dhs-shard`'s [`dhs_shard::ShardRouter`]: one worker per shard
//!   set, bounded SPSC queues, seeded per-worker RNGs, and a
//!   deterministic fan-in merge of per-shard digests and per-worker
//!   metric registries, so two same-seed runs produce identical
//!   digests at *any* thread count.
//!
//! The point of both layers is the same honesty invariant the rest of
//! the repository enforces: going fast (threads, overlap, reordering)
//! must be observationally equivalent to the slow deterministic path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod lab;
pub mod rng;

pub use driver::{run_saturation, SatConfig, SatReport, WorkerStats};
pub use lab::{drive_store_ooo, CompletionLab, OooEngine, OooStats, Submission};
pub use rng::CountingRng;
