//! # dhs-core — Distributed Hash Sketches
//!
//! The paper's contribution: hash sketches whose bits live *on the DHT
//! itself*, so that any node can maintain and query a duplicate-
//! insensitive cardinality estimator with
//!
//! * `O(log N)` hops per insertion (independent of the number of bitmaps),
//! * `O(k·log N)` hops per estimation (independent of the number of
//!   bitmaps *and* of the number of metrics — §4.2), and
//! * perfectly balanced access and storage load by construction (§3.1).
//!
//! ## How it works
//!
//! Bit position `r` of the (conceptual) sketch bitmap is mapped to the
//! identifier interval `I_r = [thr(r), thr(r−1))`, `thr(r) = 2^{L−r−1}`.
//! Because a pseudo-uniform item sets bit `r` with probability `2^{−r−1}`
//! and interval `I_r` contains a `2^{−r−1}` fraction of the nodes, every
//! node sees the same expected load ([`intervals`]).
//!
//! Inserting an item stores the soft-state tuple
//! `<metric_id, vector_id, bit, time_out>` at a uniformly random key in
//! the bit's interval ([`insert`]); estimating scans the intervals with
//! the paper's Algorithm 1 — one DHT lookup plus at most `lim` one-hop
//! successor/predecessor retries per interval — and feeds the recovered
//! register values into the PCSA or super-LogLog estimator ([`count`]).
//!
//! ```
//! use dhs_core::{Dhs, DhsConfig, EstimatorKind};
//! use dhs_dht::ring::{Ring, RingConfig};
//! use dhs_dht::cost::CostLedger;
//! use dhs_sketch::{ItemHasher, SplitMix64};
//! use rand::{SeedableRng, rngs::StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut ring = Ring::build(256, RingConfig::default(), &mut rng);
//! let dhs = Dhs::new(DhsConfig { m: 64, ..DhsConfig::default() }).unwrap();
//! let hasher = SplitMix64::default();
//! let metric = 1;
//!
//! // Every node records its items (here: one bulk writer for brevity).
//! let mut ledger = CostLedger::new();
//! let origin = ring.random_alive(&mut rng);
//! for item in 0..20_000u64 {
//!     dhs.insert(&mut ring, metric, hasher.hash_u64(item), origin, &mut rng, &mut ledger);
//! }
//!
//! // Any node can now estimate the cardinality.
//! let mut count_ledger = CostLedger::new();
//! let result = dhs.count(&ring, metric, origin, &mut rng, &mut count_ledger);
//! let err = (result.estimate - 20_000.0).abs() / 20_000.0;
//! assert!(err < 0.5, "estimate {} too far off", result.estimate);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod cast;
pub mod config;
pub mod count;
pub mod fast;
pub mod insert;
pub mod intervals;
pub mod maintenance;
pub mod retry;
pub mod stats;
pub mod transport;
pub mod tuple;

pub use cast::{checked_cast, try_cast};
pub use config::{ConfigError, DhsConfig, EstimatorKind};
pub use fast::{EpochCache, ScanHint};
pub use insert::Dhs;
pub use retry::{Backoff, RetryPolicy};
pub use stats::CountResult;
pub use stats::{CountStats, Summary};
pub use transport::{DirectTransport, MessageKind, Observed, Transport, TransportError};
pub use tuple::MetricId;
