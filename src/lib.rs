//! # counting-at-large — Distributed Hash Sketches
//!
//! Facade crate for the reproduction of *Counting at Large: Efficient
//! Cardinality Estimation in Internet-Scale Data Networks* (Ntarmos,
//! Triantafillou & Weikum, ICDE 2006).
//!
//! This crate re-exports the workspace's public API so examples and
//! integration tests can depend on a single crate:
//!
//! * [`sketch`] — hash sketches (PCSA, super-LogLog, HyperLogLog) plus
//!   the hashing substrate (SplitMix64).
//! * [`dht`] — a deterministic Chord-like DHT simulator with exact
//!   hop/byte cost accounting.
//! * [`net`] — a deterministic discrete-event network simulator (latency
//!   models, fault injection, per-message telemetry) that DHS operations
//!   run over via the `Transport` trait.
//! * [`dhs`] — Distributed Hash Sketches: the paper's contribution
//!   (interval mapping, insertion, the Alg. 1 counting procedure,
//!   soft-state maintenance, multi-metric counting).
//! * [`obs`] — unified observability: metrics registry, hierarchical
//!   spans on the virtual clock, and the per-interval load monitor that
//!   turns the paper's load-balance claim into a live metric.
//! * [`histogram`] — equi-width histograms over DHS, selectivity
//!   estimation and join-order optimization (paper §4.3/§5).
//! * [`baselines`] — the related-work counting protocols the paper
//!   argues against (single-node counters, gossip, tree aggregation,
//!   sampling), implemented for quantitative comparison.
//! * [`shard`] — the sharded multi-tenant sketch store: (tenant, metric)
//!   keys, deterministic shard routing with cross-shard flush batches,
//!   tiered compressed registers, and memory-budget eviction with
//!   cold-tier spill.
//! * [`workload`] — Zipf-distributed relations and multiset generators
//!   matching the paper's evaluation setup.
//! * [`traj`] — deterministic ablation harness (grid/LHS factor sweeps
//!   with declared KPI tolerances) and the append-only perf-trajectory
//!   registry that gates KPI regressions against committed baselines.

// The workspace's panic lints, for the library target only (see the
// root Cargo.toml's `[lints]`).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub use dhs_baselines as baselines;
pub use dhs_core as dhs;
pub use dhs_dht as dht;
pub use dhs_histogram as histogram;
pub use dhs_net as net;
pub use dhs_obs as obs;
pub use dhs_shard as shard;
pub use dhs_sketch as sketch;
pub use dhs_traj as traj;
pub use dhs_workload as workload;
