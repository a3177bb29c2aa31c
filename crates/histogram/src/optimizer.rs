//! A Selinger-style join-order optimizer over a shipped-bytes cost model
//! (the paper's §5 "Histograms and Query Processing" case study).
//!
//! The setting mirrors PIER-class distributed query processors: a binary
//! equi-join rehashes both inputs across the overlay, so executing
//! `(…((R_{π1} ⋈ R_{π2}) ⋈ R_{π3}) …)` ships
//!
//! ```text
//! cost(π) = Σ_joins (|left input| + |right input|) · tuple_bytes
//! ```
//!
//! where intermediate sizes come from the histograms. The optimizer
//! enumerates left-deep orders (exhaustively — the paper's queries join
//! 3–4 relations) and picks the cheapest; comparing the chosen plan's
//! *actual* cost against the naive order's quantifies the benefit, and
//! comparing against the histogram-reconstruction bandwidth shows the
//! paper's punchline: the statistics cost megabytes, the savings tens.

use crate::buckets::BucketSpec;
use crate::query::{join_histogram, JoinQuery};
use dhs_core::checked_cast;

/// A left-deep join plan.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPlan {
    /// Relation indices in execution order.
    pub order: Vec<usize>,
    /// Estimated shipped bytes.
    pub est_cost_bytes: f64,
    /// Estimated intermediate result sizes (after each join).
    pub est_intermediate_sizes: Vec<f64>,
}

/// The optimizer: a catalog of per-relation histograms over a common
/// partitioning, plus the tuple width used by the cost model.
#[derive(Debug, Clone)]
pub struct Optimizer {
    spec: BucketSpec,
    /// Per-relation bucket counts (estimated or exact).
    histograms: Vec<Vec<f64>>,
    tuple_bytes: f64,
}

impl Optimizer {
    /// Build an optimizer from per-relation histograms (all over `spec`).
    pub fn new(spec: BucketSpec, histograms: Vec<Vec<f64>>, tuple_bytes: u64) -> Self {
        for h in &histograms {
            assert_eq!(h.len(), checked_cast::<usize, _>(spec.buckets));
        }
        Optimizer {
            spec,
            histograms,
            tuple_bytes: tuple_bytes as f64,
        }
    }

    /// Cost a specific left-deep order.
    pub fn cost_of_order(&self, order: &[usize]) -> JoinPlan {
        assert!(order.len() >= 2);
        let mut acc = self.histograms[order[0]].clone();
        let mut acc_size: f64 = acc.iter().sum();
        let mut cost = 0.0;
        let mut sizes = Vec::new();
        for &next in &order[1..] {
            let right = &self.histograms[next];
            let right_size: f64 = right.iter().sum();
            cost += (acc_size + right_size) * self.tuple_bytes;
            acc = join_histogram(&self.spec, &acc, right);
            acc_size = acc.iter().sum();
            sizes.push(acc_size);
        }
        JoinPlan {
            order: order.to_vec(),
            est_cost_bytes: cost,
            est_intermediate_sizes: sizes,
        }
    }

    /// Exhaustively enumerate left-deep orders of `query` and return the
    /// cheapest plan.
    #[expect(
        clippy::expect_used,
        reason = "invariant: at least one order is always scored"
    )]
    pub fn optimize(&self, query: &JoinQuery) -> JoinPlan {
        let mut best: Option<JoinPlan> = None;
        permute(&query.relations, &mut |order| {
            let plan = self.cost_of_order(order);
            if best
                .as_ref()
                .is_none_or(|b| plan.est_cost_bytes < b.est_cost_bytes)
            {
                best = Some(plan);
            }
        });
        best.expect("at least one order")
    }

    /// The most expensive order — the adversarial baseline.
    #[expect(
        clippy::expect_used,
        reason = "invariant: at least one order is always scored"
    )]
    pub fn pessimize(&self, query: &JoinQuery) -> JoinPlan {
        let mut worst: Option<JoinPlan> = None;
        permute(&query.relations, &mut |order| {
            let plan = self.cost_of_order(order);
            if worst
                .as_ref()
                .is_none_or(|w| plan.est_cost_bytes > w.est_cost_bytes)
            {
                worst = Some(plan);
            }
        });
        worst.expect("at least one order")
    }
}

/// Heap's algorithm, calling `visit` with each permutation.
fn permute(items: &[usize], visit: &mut impl FnMut(&[usize])) {
    let mut v = items.to_vec();
    let n = v.len();
    let mut c = vec![0usize; n];
    visit(&v);
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                v.swap(0, i);
            } else {
                v.swap(c[i], i);
            }
            visit(&v);
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> BucketSpec {
        BucketSpec::new(0, 99, 10, 0)
    }

    /// Three relations: tiny selective A, huge B, huge C. Joining A first
    /// shrinks intermediates; the optimizer must discover that.
    fn catalog() -> Optimizer {
        let mut a = vec![0.0; 10];
        a[0] = 100.0; // 100 tuples, all in bucket 0
        let b = vec![10_000.0; 10]; // 100k tuples, uniform
        let c = vec![10_000.0; 10];
        Optimizer::new(spec(), vec![a, b, c], 1024)
    }

    #[test]
    fn optimizer_picks_selective_relation_first() {
        let opt = catalog();
        let plan = opt.optimize(&JoinQuery::chain(vec![0, 1, 2]));
        // The small relation (index 0) must be in the first join.
        assert!(
            plan.order[0] == 0 || plan.order[1] == 0,
            "order {:?}",
            plan.order
        );
        let worst = opt.pessimize(&JoinQuery::chain(vec![0, 1, 2]));
        assert!(worst.est_cost_bytes > plan.est_cost_bytes);
        // B ⋈ C first produces a 10^8-tuple intermediate: the gap must be
        // dramatic.
        assert!(
            worst.est_cost_bytes / plan.est_cost_bytes > 10.0,
            "best {} vs worst {}",
            plan.est_cost_bytes,
            worst.est_cost_bytes
        );
    }

    #[test]
    fn cost_of_order_accumulates_inputs() {
        let opt = catalog();
        let plan = opt.cost_of_order(&[0, 1]);
        // One join: (100 + 100_000) × 1024 bytes.
        assert!((plan.est_cost_bytes - 100_100.0 * 1024.0).abs() < 1e-6);
        assert_eq!(plan.est_intermediate_sizes.len(), 1);
        // A ⋈ B: bucket 0 only: 100 · 10_000 / 10 = 100_000.
        assert!((plan.est_intermediate_sizes[0] - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn permute_visits_factorial_many() {
        let mut count = 0;
        permute(&[1, 2, 3, 4], &mut |_| count += 1);
        assert_eq!(count, 24);
        let mut seen = std::collections::HashSet::new();
        permute(&[1, 2, 3], &mut |p| {
            seen.insert(p.to_vec());
        });
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn two_relation_join_order_is_symmetric_in_cost() {
        let opt = catalog();
        let ab = opt.cost_of_order(&[0, 1]);
        let ba = opt.cost_of_order(&[1, 0]);
        assert!((ab.est_cost_bytes - ba.est_cost_bytes).abs() < 1e-9);
    }
}
