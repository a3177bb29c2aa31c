//! Property tests for plan expansion stability.
//!
//! The central claim of `AblationPlan` is that expansion order and the
//! plan hash depend only on the plan's *content*, never on the order the
//! builder inserted factors — two call sites constructing "the same"
//! plan in different orders must agree on every job and on the hash that
//! keys registry provenance.

use dhs_traj::{AblationPlan, FactorValue, KpiSource, Tolerance};
use proptest::prelude::*;

const NAMES: [&str; 5] = ["k", "lim", "m", "nodes", "theta"];

/// SplitMix64 — local copy for deterministic test-side shuffles.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates on indices, seeded by the generated shuffle seed.
#[expect(
    clippy::cast_possible_truncation,
    reason = "reduced mod i + 1 ≤ n, fits usize"
)]
fn shuffled(n: usize, mut state: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Split flat values into per-factor lists of 1–3 values.
fn factor_lists(values: &[i64]) -> Vec<(String, Vec<FactorValue>)> {
    values
        .chunks(3)
        .take(NAMES.len())
        .enumerate()
        .map(|(i, chunk)| {
            (
                NAMES[i].to_string(),
                chunk.iter().map(|&v| FactorValue::Int(v)).collect(),
            )
        })
        .collect()
}

fn with_factors(order: &[usize], factors: &[(String, Vec<FactorValue>)]) -> AblationPlan {
    let mut plan = AblationPlan::grid("prop")
        .fix("scale", FactorValue::Float(0.25))
        .kpi(
            "kpi",
            KpiSource::Counter("ablation.accesses".to_string()),
            Tolerance::default(),
        );
    for &i in order {
        let (name, values) = &factors[i];
        plan = plan.factor(name, values.clone());
    }
    plan
}

proptest! {
    /// Grid expansion and plan hash are invariant under factor insertion
    /// order: jobs come out in factor-name order with the last name
    /// varying fastest, no matter how the builder was driven.
    #[test]
    fn grid_expansion_stable_under_insertion_order(
        values in prop::collection::vec(-1000i64..1000, 1..13),
        shuffle_seed in any::<u64>(),
    ) {
        let factors = factor_lists(&values);
        let forward: Vec<usize> = (0..factors.len()).collect();
        let permuted = shuffled(factors.len(), shuffle_seed);

        let a = with_factors(&forward, &factors);
        let b = with_factors(&permuted, &factors);

        prop_assert_eq!(a.plan_hash(), b.plan_hash());
        prop_assert_eq!(a.canonical(), b.canonical());
        let jobs_a = a.expand().unwrap();
        let jobs_b = b.expand().unwrap();
        prop_assert_eq!(&jobs_a, &jobs_b);
        // Job count is the full cartesian product.
        let expected: usize = factors.iter().map(|(_, v)| v.len()).product();
        prop_assert_eq!(jobs_a.len(), expected);
    }
}
