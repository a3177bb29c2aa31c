//! The experiments, one module per paper artifact (see crate docs).

mod ablations;
mod accuracy;
mod baselines_cmp;
mod fastpath;
mod geometry;
mod hist;
mod insertion_costs;
mod load_balance;
mod network;
mod queryopt;
mod saturation;
mod scalability_exp;
mod shard_exp;
mod table2_exp;
mod trajectory;

pub use ablations::{
    ablation_bitshift, ablation_churn, ablation_dynamics, ablation_failures, ablation_lim,
    ablation_ttl,
};
pub use accuracy::accuracy;
pub use baselines_cmp::baselines;
pub use fastpath::fastpath;
pub use geometry::geometry;
pub use hist::{hist_accuracy, table3};
pub use insertion_costs::insertion;
pub use load_balance::load_balance;
pub use network::network;
pub use queryopt::queryopt;
pub use saturation::saturation;
pub use scalability_exp::scalability;
pub use shard_exp::shard;
pub use table2_exp::table2;
pub use trajectory::{
    ablation_plans, n3_fastpath_plan, n4_shard_plan, n6_saturation_plan, smoke_fastpath_plan,
    smoke_saturation_plan, smoke_shard_plan, trajectory, BenchRunner, RunnerKind, PLAN_NAMES,
};
