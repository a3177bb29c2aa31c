//! # dhs-shard — sharded multi-tenant sketch store
//!
//! The paper's §4.2 envisions one sketch per metric — per-user, per-bucket
//! histograms — at Internet scale. This crate is the subsystem that makes
//! "millions of sketches, one process" real:
//!
//! * [`SketchKey`] opens a **tenant dimension**: sketches are keyed by
//!   `(tenant, metric)`, packed into the existing 32-bit `MetricId` so
//!   every downstream layer (DHT tuples, caches, hints) stays unchanged.
//! * [`ShardRouter`] + [`FlushBatch`] **partition the key space across N
//!   shards** deterministically and generalize `dhs-core`'s owner-batched
//!   store path into cross-shard flush batches; [`flush_batch_to_dht`]
//!   drains a batch into the DHT through the same seam.
//! * [`ShardedStore`] keeps each shard's sketches in an **arena of
//!   compressed register tiers** (`dhs_sketch::TieredRegisters`:
//!   sparse → packed → dense as registers fill), with byte-exact
//!   **memory-budget accounting**, deterministic LRU **eviction**, and
//!   **spill-to-cold-tier hooks** ([`ColdTier`]).
//!
//! Determinism is load-bearing everywhere: routing is a pure hash, the
//! arena and every index iterate in key order, eviction order is a total
//! order, and recency comes from a logical clock — so two same-seed runs
//! produce byte-identical stores, estimates, and eviction sequences
//! (compare [`ShardedStore::eviction_digest`]).
//!
//! ## Quick example
//!
//! ```
//! use dhs_obs::NoopRecorder;
//! use dhs_shard::{ShardConfig, ShardedStore, SketchKey};
//! use dhs_sketch::{ItemHasher, SplitMix64};
//!
//! let mut store = ShardedStore::new(ShardConfig::new(4, 64)).unwrap();
//! let mut rec = NoopRecorder;
//! let hasher = SplitMix64::default();
//! let key = SketchKey::new(7, 0); // tenant 7, metric 0
//! for i in 0..10_000u64 {
//!     store.observe_item(key, hasher.hash_u64(i), &mut rec);
//! }
//! let est = store.estimate(key, &mut rec).unwrap();
//! assert!((est - 10_000.0).abs() / 10_000.0 < 0.25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dht;
pub mod router;
pub mod store;
pub mod tenant;

pub use dht::{flush_batch_to_dht, FlushShipReport};
pub use router::{FlushBatch, FlushUpdate, ShardRouter};
pub use store::{
    ColdTier, DiscardCold, MemoryColdTier, ShardConfig, ShardConfigError, ShardStats, ShardedStore,
    SLOT_OVERHEAD,
};
pub use tenant::{classify_hash, SketchKey, TenantId};
