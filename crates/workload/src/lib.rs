//! # dhs-workload — evaluation workloads
//!
//! Generates the data the paper's evaluation runs on (§5.1):
//!
//! * [`zipf::Zipf`] — a Zipf(θ) sampler over a finite integer domain,
//!   implemented from scratch (exact CDF inversion).
//! * [`relation`] — the four relations Q, R, S, T (10/20/40/80 million
//!   single-integer-attribute tuples at paper scale, Zipf θ = 0.7), with a
//!   configurable scale factor so tests and CI run at 1/100 scale while
//!   `--scale 1.0` reproduces the paper's sizes.
//! * [`multiset`] — duplicate-laden item streams for the
//!   duplicate-(in)sensitivity experiments.
//! * [`tenants`] — the multi-tenant metric stream (10⁶ sketches, Zipf
//!   popularity) that drives the sharded sketch store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod multiset;
pub mod relation;
pub mod tenants;
pub mod zipf;

pub use multiset::DuplicatedMultiset;
pub use relation::{Relation, RelationSpec, Tuple, PAPER_RELATIONS};
pub use tenants::{TenantUpdate, TenantWorkload};
pub use zipf::Zipf;
