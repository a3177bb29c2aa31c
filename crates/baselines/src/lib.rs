//! # dhs-baselines — the related-work counting protocols
//!
//! The paper's introduction taxonomizes prior distributed counting into
//! four families and argues each violates at least one of its six
//! constraints. To make that argument quantitative, this crate implements
//! all four over the same DHT substrate and cost ledger as DHS:
//!
//! * [`single_node`] — **one-node-per-counter**: a counter lives at
//!   `successor(hash(metric))`. Exact, but every update and query hits
//!   one node (scalability + load-balance violations).
//! * [`partitioned`] — **hash-partitioned counters**: the counting space
//!   split over `P` fixed owner nodes. Exact and duplicate-insensitive,
//!   but the hotspot is diluted rather than removed, and the query must
//!   contact all `P` owners.
//! * [`gossip`] — **gossip/epidemic protocols**: push-sum for
//!   duplicate-sensitive sums, and sketch-gossip (merge hash sketches
//!   with random partners) for duplicate-insensitive counting. Converges
//!   eventually; total bandwidth is `O(rounds·N)` messages.
//! * [`tree`] — **broadcast/convergecast**: a spanning tree rooted at the
//!   querier; local sketches merge upward (à la Considine et al.). One
//!   shot, duplicate-insensitive, but costs `O(N)` messages per query.
//! * [`sampling`] — **node sampling**: probe `s` random nodes and
//!   extrapolate. Cheap, but duplicate-*sensitive* and high-variance.
//!
//! All baselines consume an [`ItemAssignment`]: the items each node
//! locally holds (the same item may sit on several nodes — that is what
//! the duplicate-insensitivity constraint is about).

#![forbid(unsafe_code)]
// Hash-ordered containers are fine off the replay path: offline estimator references, never replayed.
#![allow(clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod assignment;
pub mod gossip;
pub mod partitioned;
pub mod sampling;
pub mod single_node;
pub mod tree;

pub use assignment::ItemAssignment;
