//! # dhs-histogram — histograms over DHS and query optimization (§4.3, §5)
//!
//! The paper's flagship application: build equi-width histograms over
//! relations stored in a P2P overlay by dedicating one DHS *metric* to
//! each bucket, then reconstruct the whole histogram with a single
//! multi-dimensional counting scan — the same hop cost as estimating one
//! cardinality, independent of the number of buckets, bitmaps and tuples.
//!
//! Modules:
//!
//! * [`buckets`] — equi-width domain partitioning and bucket↔metric ids.
//! * [`dhs_histogram`] — build (insert every tuple into its bucket's
//!   metric) and reconstruct (one `count_multi` scan) over a DHS.
//! * [`exact`] — ground-truth histograms computed locally.
//! * [`selectivity`] — range/equality selectivity estimation from any
//!   histogram (exact or reconstructed).
//! * [`query`] — single-attribute equi-join queries and their result-size
//!   estimation from histograms.
//! * [`optimizer`] — a Selinger-style join-order optimizer over a
//!   shipped-bytes cost model, reproducing the paper's §5 "Histograms and
//!   Query Processing" case study (PIER/FREddies setting).
//! * [`executor`] — a distributed hash-join *executor* that grounds the
//!   optimizer's cost model: tuples are actually routed and joined on
//!   the simulated overlay, and shipped bytes are ledger-measured.

#![forbid(unsafe_code)]
// Hash-ordered containers are fine off the replay path: query-side tables and a join executor, never replayed.
#![allow(clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod buckets;
pub mod dhs_histogram;
pub mod exact;
pub mod executor;
pub mod optimizer;
pub mod query;
pub mod selectivity;

pub use buckets::BucketSpec;
pub use dhs_histogram::DhsHistogram;
pub use exact::ExactHistogram;
pub use optimizer::{JoinPlan, Optimizer};
pub use query::JoinQuery;
