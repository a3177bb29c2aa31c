//! # dhs-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5) plus
//! the ablations DESIGN.md calls out. The `repro` binary drives the
//! experiments; it reads no clock, so its output is a pure function of
//! its arguments (wall-clock speed is the `benchmark/` crate's job).
//!
//! Experiment ids (see DESIGN.md §3 for the full index):
//!
//! | id | paper artifact | function |
//! |----|----------------|----------|
//! | E1 | §5.2 insertion/maintenance costs | [`experiments::insertion`] |
//! | E2 | Table 2 (counting costs) | [`experiments::table2`] |
//! | E3 | §5.2 scalability | [`experiments::scalability`] |
//! | E4 | §5.2 accuracy vs m | [`experiments::accuracy`] |
//! | E5 | Table 3 (histogram costs) | [`experiments::table3`] |
//! | E6 | §5.2 histogram accuracy | [`experiments::hist_accuracy`] |
//! | E7 | §5.2 query processing | [`experiments::queryopt`] |
//! | A1 | §4.1 retry-limit ablation | [`experiments::ablation_lim`] |
//! | A2 | §3.5 failures/replication ablation | [`experiments::ablation_failures`] |
//! | A3 | §3.5 bit-shift ablation | [`experiments::ablation_bitshift`] |
//! | A4 | §3.3 TTL/maintenance ablation | [`experiments::ablation_ttl`] |
//! | A5 | Chord finger staleness under churn | [`experiments::ablation_churn`] |
//! | A6 | continuous churn with/without replica repair | [`experiments::ablation_dynamics`] |
//! | B1 | §1 baseline comparison | [`experiments::baselines`] |
//! | G1 | §1 DHT-agnosticism (Chord vs Kademlia) | [`experiments::geometry`] |
//! | N5 | dhs-traj ablation harness + trajectory registry | [`experiments::trajectory`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod experiments;
pub mod provenance;
pub mod table;

pub use env::ExpConfig;
