//! Broadcast/convergecast tree aggregation (Astrolabe / SDIMS / Considine
//! et al. style).
//!
//! The querier broadcasts down a spanning tree over the overlay; each
//! node merges its local hash sketch with its children's and forwards
//! the merge to its parent. One query therefore costs `2·(N−1)` messages
//! — every node participates — but the result is exactly the sketch of
//! the union (no distributed-probing error), and with sketches it is
//! duplicate-insensitive.
//!
//! The tree is built over "overlay links": each node's parent is chosen
//! among nodes closer (in hop distance) to the root, modeled here as a
//! random `fanout`-ary spanning tree over the alive nodes — the paper's
//! critique is about message *counts*, which any spanning tree shares.

use rand::Rng;

use dhs_dht::cost::CostLedger;
use dhs_dht::ring::Ring;
use dhs_sketch::{CardinalityEstimator, ItemHasher, SplitMix64, SuperLogLog};

use crate::assignment::ItemAssignment;

/// Result of a tree-aggregation query.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeOutcome {
    /// Distinct-count estimate at the root.
    pub estimate: f64,
    /// Tree depth (broadcast latency in hops).
    pub depth: u32,
    /// Messages sent (broadcast + convergecast).
    pub messages: u64,
}

/// Run one broadcast/convergecast query with `m`-bucket super-LogLog
/// sketches over a random `fanout`-ary spanning tree rooted at `root`.
pub fn aggregate(
    ring: &Ring,
    assignment: &ItemAssignment,
    root: u64,
    m: usize,
    fanout: usize,
    rng: &mut impl Rng,
    ledger: &mut CostLedger,
) -> TreeOutcome {
    assert!(fanout >= 1);
    let mut ids: Vec<u64> = ring.alive_ids().to_vec();
    // Shuffle everyone except the root to the front positions randomly so
    // tree shape is seed-driven.
    #[expect(
        clippy::expect_used,
        reason = "invariant: root is drawn from the alive set"
    )]
    let root_pos = ids.binary_search(&root).expect("root must be alive");
    ids.swap(0, root_pos);
    for i in (2..ids.len()).rev() {
        let j = rng.gen_range(1..=i);
        ids.swap(i, j);
    }
    let n = ids.len();
    // Node at position p > 0 has parent (p − 1) / fanout: a complete
    // fanout-ary tree over the shuffled order.
    let parent_of = |p: usize| (p - 1) / fanout;
    let depth_of = |mut p: usize| {
        let mut d = 0u32;
        while p > 0 {
            p = parent_of(p);
            d += 1;
        }
        d
    };
    let depth = (1..n).map(depth_of).max().unwrap_or(0);

    let hasher = SplitMix64::default();
    use dhs_sketch::WireSketch;
    let sketch_bytes = SuperLogLog::encoded_size(m) as u64;
    let mut messages = 0u64;

    // Broadcast: one query message per tree edge.
    for &id in ids.iter().take(n).skip(1) {
        ledger.charge_hops(1);
        ledger.charge_message(16);
        ledger.record_visit(id);
        messages += 1;
    }

    // Convergecast: children merge into parents, deepest first. Process
    // positions in reverse order — parents always have lower positions.
    let mut sketches: Vec<SuperLogLog> = ids
        .iter()
        .map(|&id| {
            #[expect(
                clippy::expect_used,
                reason = "invariant: m was validated by the caller's config"
            )]
            let mut s = SuperLogLog::new(m).expect("valid m");
            for &item in assignment.items_of(id) {
                s.insert_hash(hasher.hash_u64(item));
            }
            s
        })
        .collect();
    for p in (1..n).rev() {
        let parent = parent_of(p);
        let child_sketch = sketches[p].clone();
        #[expect(
            clippy::expect_used,
            reason = "invariant: all sketches in the tree share one m"
        )]
        sketches[parent].merge(&child_sketch).expect("same m");
        ledger.charge_hops(1);
        ledger.charge_message(sketch_bytes);
        ledger.record_visit(ids[parent]);
        messages += 1;
    }

    TreeOutcome {
        estimate: sketches[0].estimate(),
        depth,
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhs_dht::ring::RingConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64, copies: usize) -> (Ring, ItemAssignment, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ring = Ring::build(128, RingConfig::default(), &mut rng);
        let stream: Vec<u64> = (0..4_000 * copies as u64).map(|i| i % 4_000).collect();
        let a = ItemAssignment::uniform(&ring, &stream, &mut rng);
        (ring, a, rng)
    }

    #[test]
    fn tree_estimate_matches_local_sketch_accuracy() {
        let (ring, a, mut rng) = setup(1, 2);
        let root = ring.alive_ids()[0];
        let mut ledger = CostLedger::new();
        let out = aggregate(&ring, &a, root, 256, 4, &mut rng, &mut ledger);
        let distinct = a.distinct_items() as f64;
        // Tree aggregation has *no* distribution error: only the sketch's
        // own ~1.05/√256 ≈ 6.6% standard error. Allow 3σ.
        assert!(
            (out.estimate - distinct).abs() / distinct < 0.20,
            "tree: {} vs {distinct}",
            out.estimate
        );
    }

    #[test]
    fn tree_costs_two_messages_per_non_root_node() {
        let (ring, a, mut rng) = setup(2, 1);
        let root = ring.alive_ids()[5];
        let mut ledger = CostLedger::new();
        let out = aggregate(&ring, &a, root, 128, 4, &mut rng, &mut ledger);
        let n = ring.len_alive() as u64;
        assert_eq!(out.messages, 2 * (n - 1));
        assert_eq!(ledger.hops(), 2 * (n - 1));
    }

    #[test]
    fn tree_depth_is_logarithmic_in_fanout() {
        let (ring, a, mut rng) = setup(3, 1);
        let root = ring.alive_ids()[0];
        let mut l1 = CostLedger::new();
        let wide = aggregate(&ring, &a, root, 64, 16, &mut rng, &mut l1);
        let mut l2 = CostLedger::new();
        let narrow = aggregate(&ring, &a, root, 64, 2, &mut rng, &mut l2);
        assert!(wide.depth < narrow.depth);
        // 128 nodes, fanout 2 ⇒ depth ≈ log2(128) = 7 (±1 for shape).
        assert!((6..=8).contains(&narrow.depth), "depth {}", narrow.depth);
    }

    #[test]
    fn duplicates_do_not_inflate_tree_counts() {
        let (ring, a1, mut rng) = setup(4, 1);
        let root = ring.alive_ids()[0];
        let mut l1 = CostLedger::new();
        let once = aggregate(&ring, &a1, root, 256, 4, &mut rng, &mut l1);
        let (ring2, a4, mut rng2) = setup(4, 4);
        let root2 = ring2.alive_ids()[0];
        let mut l2 = CostLedger::new();
        let quad = aggregate(&ring2, &a4, root2, 256, 4, &mut rng2, &mut l2);
        // Same distinct universe, 4× the stream: estimates must agree.
        let drift = (once.estimate - quad.estimate).abs() / once.estimate;
        assert!(drift < 0.15, "duplicate drift {drift}");
    }
}
