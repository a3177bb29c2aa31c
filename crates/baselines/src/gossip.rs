//! Gossip/epidemic aggregation baselines.
//!
//! Two variants from the literature the paper cites:
//!
//! * **Push-sum** (Kempe, Dobra & Gehrke, FOCS '03): every node keeps a
//!   `(value, weight)` pair, initialized to `(local_count, 1)`; each
//!   round it halves its pair and sends one half to a uniformly random
//!   node. `value/weight` converges to the network average, so
//!   `N · value/weight` estimates the total — *duplicate-sensitively*.
//! * **Sketch gossip**: every node keeps a local hash sketch of its
//!   items; each round it sends a copy to a random node, which merges it.
//!   Duplicate-insensitive (sketch merge is idempotent), and after
//!   `O(log N)` rounds every node's sketch converges to the global one.
//!
//! Both illustrate the paper's critique: per-round cost is `N` messages,
//! and the semantics are "eventual" — the [`GossipTrace`] exposes the
//! error after each round so experiments can plot convergence vs cost.

use rand::Rng;

use dhs_dht::cost::CostLedger;
use dhs_dht::ring::Ring;
use dhs_sketch::{CardinalityEstimator, ItemHasher, SplitMix64, SuperLogLog};

use crate::assignment::ItemAssignment;

/// Per-round snapshot of a gossip run.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipTrace {
    /// Estimate read at a fixed observer node after each round
    /// (index 0 = after round 1).
    pub estimates_per_round: Vec<f64>,
    /// Messages sent in total.
    pub messages: u64,
    /// Bytes sent in total.
    pub bytes: u64,
}

/// Run push-sum for `rounds` rounds and report the *total count* estimate
/// (`N · value/weight` at an observer node) after each round.
///
/// Gossip partners are drawn uniformly; each message carries a 16-byte
/// `(value, weight)` pair and is charged one hop (gossip protocols keep
/// direct addresses of partners).
pub fn push_sum(
    ring: &Ring,
    assignment: &ItemAssignment,
    rounds: usize,
    rng: &mut impl Rng,
    ledger: &mut CostLedger,
) -> GossipTrace {
    let ids: Vec<u64> = ring.alive_ids().to_vec();
    let n = ids.len();
    #[expect(
        clippy::expect_used,
        reason = "invariant: ids is the sorted alive set; every id is drawn from it"
    )]
    let index_of = |id: u64| ids.binary_search(&id).expect("alive node");
    let mut value: Vec<f64> = ids
        .iter()
        .map(|&id| assignment.local_count(id) as f64)
        .collect();
    let mut weight = vec![1.0f64; n];
    let observer = 0usize;

    let msg_bytes = 16u64;
    let mut estimates = Vec::with_capacity(rounds);
    let (mut msgs, mut bytes) = (0u64, 0u64);
    for _ in 0..rounds {
        // Synchronous round: everyone halves and pushes to a random node.
        let mut inbox_value = vec![0.0f64; n];
        let mut inbox_weight = vec![0.0f64; n];
        for i in 0..n {
            value[i] /= 2.0;
            weight[i] /= 2.0;
            let partner = index_of(ring.random_alive(rng));
            inbox_value[partner] += value[i];
            inbox_weight[partner] += weight[i];
            ledger.charge_hops(1);
            ledger.charge_message(msg_bytes);
            ledger.record_visit(ids[partner]);
            msgs += 1;
            bytes += msg_bytes;
        }
        for i in 0..n {
            value[i] += inbox_value[i];
            weight[i] += inbox_weight[i];
        }
        let avg = if weight[observer] > 0.0 {
            value[observer] / weight[observer]
        } else {
            0.0
        };
        estimates.push(avg * n as f64);
    }
    GossipTrace {
        estimates_per_round: estimates,
        messages: msgs,
        bytes,
    }
}

/// Run sketch-gossip with `m`-bucket super-LogLog sketches for `rounds`
/// rounds; the estimate after each round is the observer node's sketch
/// estimate. Duplicate-insensitive.
pub fn sketch_gossip(
    ring: &Ring,
    assignment: &ItemAssignment,
    m: usize,
    rounds: usize,
    rng: &mut impl Rng,
    ledger: &mut CostLedger,
) -> GossipTrace {
    let ids: Vec<u64> = ring.alive_ids().to_vec();
    #[expect(
        clippy::expect_used,
        reason = "invariant: ids is the sorted alive set; every id is drawn from it"
    )]
    let index_of = |id: u64| ids.binary_search(&id).expect("alive node");
    let hasher = SplitMix64::default();
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
    let observer = 0usize;

    // Exact wire size of a super-LogLog sketch message.
    use dhs_sketch::WireSketch;
    let msg_bytes = dhs_sketch::SuperLogLog::encoded_size(m) as u64;
    let mut estimates = Vec::with_capacity(rounds);
    let (mut msgs, mut bytes) = (0u64, 0u64);
    for _ in 0..rounds {
        // Each node pushes its current sketch to one random partner; the
        // updates apply simultaneously (synchronous model).
        let snapshot = sketches.clone();
        for sent in &snapshot {
            let partner = index_of(ring.random_alive(rng));
            #[expect(
                clippy::expect_used,
                reason = "invariant: all sketches in the round share one m"
            )]
            sketches[partner].merge(sent).expect("same m");
            ledger.charge_hops(1);
            ledger.charge_message(msg_bytes);
            ledger.record_visit(ids[partner]);
            msgs += 1;
            bytes += msg_bytes;
        }
        estimates.push(sketches[observer].estimate());
    }
    GossipTrace {
        estimates_per_round: estimates,
        messages: msgs,
        bytes,
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
        let ring = Ring::build(64, RingConfig::default(), &mut rng);
        let stream: Vec<u64> = (0..2_000 * copies as u64).map(|i| i % 2_000).collect();
        let a = ItemAssignment::uniform(&ring, &stream, &mut rng);
        (ring, a, rng)
    }

    #[test]
    fn push_sum_converges_to_stream_total() {
        let (ring, a, mut rng) = setup(1, 1);
        let mut ledger = CostLedger::new();
        let trace = push_sum(&ring, &a, 30, &mut rng, &mut ledger);
        let last = *trace.estimates_per_round.last().unwrap();
        let total = a.total_items() as f64;
        assert!(
            (last - total).abs() / total < 0.01,
            "push-sum after 30 rounds: {last} vs {total}"
        );
    }

    #[test]
    fn push_sum_is_duplicate_sensitive() {
        let (ring, a, mut rng) = setup(2, 3); // 3 copies of each item
        let mut ledger = CostLedger::new();
        let trace = push_sum(&ring, &a, 30, &mut rng, &mut ledger);
        let last = *trace.estimates_per_round.last().unwrap();
        let distinct = a.distinct_items() as f64;
        // Converges to 3× the distinct count — the constraint-6 failure.
        assert!(last > 2.5 * distinct, "{last} vs distinct {distinct}");
    }

    #[test]
    fn push_sum_improves_over_rounds() {
        let (ring, a, mut rng) = setup(3, 1);
        let mut ledger = CostLedger::new();
        let trace = push_sum(&ring, &a, 25, &mut rng, &mut ledger);
        let total = a.total_items() as f64;
        let err = |e: f64| (e - total).abs() / total;
        let early = err(trace.estimates_per_round[2]);
        let late = err(*trace.estimates_per_round.last().unwrap());
        assert!(late <= early, "early {early} late {late}");
    }

    #[test]
    fn sketch_gossip_counts_distinct_despite_duplicates() {
        let (ring, a, mut rng) = setup(4, 4); // heavy duplication
        let mut ledger = CostLedger::new();
        let trace = sketch_gossip(&ring, &a, 128, 12, &mut rng, &mut ledger);
        let last = *trace.estimates_per_round.last().unwrap();
        let distinct = a.distinct_items() as f64;
        assert!(
            (last - distinct).abs() / distinct < 0.35,
            "sketch gossip: {last} vs distinct {distinct}"
        );
    }

    #[test]
    fn gossip_cost_is_linear_per_round() {
        let (ring, a, mut rng) = setup(5, 1);
        let mut ledger = CostLedger::new();
        let rounds = 10;
        let trace = push_sum(&ring, &a, rounds, &mut rng, &mut ledger);
        assert_eq!(trace.messages, (ring.len_alive() * rounds) as u64);
        assert_eq!(ledger.hops(), trace.messages);
        // Orders of magnitude above a DHS count (~100 hops): the paper's
        // constraint-1 violation.
        assert!(trace.messages > 500);
    }
}
