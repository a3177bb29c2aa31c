//! Hash-partitioned counters — the other §1 "one-node-per-counter"
//! variant.
//!
//! "Hash-partitioned counters, where the counting space is partitioned
//! into disjoint intervals, with each such interval mapped to a (set of)
//! node(s) in the overlay, also fall in this category." Each item is
//! routed (by item-hash range) to one of `P` partition owners, which
//! keeps the distinct-id set of its slice; a query sums the `P` owners.
//!
//! This fixes single-node's storage hoarding (`O(n/P)` per owner) and is
//! exactly duplicate-insensitive — but, as the paper argues, it only
//! *dilutes* the hotspot: every update still lands on one of `P` fixed
//! nodes, and the query must contact all of them (`P` lookups), so the
//! paper's constraints (1)–(3) are violated as soon as `P` is small, and
//! constraint (1) is violated when `P` is large.

use std::collections::HashSet;

use dhs_dht::cost::CostLedger;
use dhs_dht::ring::Ring;
use dhs_sketch::{ItemHasher, SplitMix64};

use crate::assignment::ItemAssignment;

/// Result of running the hash-partitioned counter protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedOutcome {
    /// Exact distinct count (the protocol is exact).
    pub estimate: f64,
    /// The partition-owner nodes, in partition order.
    pub owners: Vec<u64>,
    /// Distinct ids stored per owner (the storage burden).
    pub entries_per_owner: Vec<u64>,
    /// Query cost alone (hops for contacting all `P` owners).
    pub query_hops: u64,
}

/// Run the protocol with `partitions` disjoint hash-range partitions.
#[expect(
    clippy::cast_possible_truncation,
    reason = "mod partitions, fits usize"
)]
pub fn run(
    ring: &Ring,
    assignment: &ItemAssignment,
    metric: u32,
    partitions: usize,
    ledger: &mut CostLedger,
) -> PartitionedOutcome {
    assert!(partitions >= 1);
    let hasher = SplitMix64::default();
    // Partition owners: successor(hash(metric, p)).
    let owner_keys: Vec<u64> = (0..partitions)
        .map(|p| hasher.hash_u64((u64::from(metric) << 32) | p as u64))
        .collect();
    let owners: Vec<u64> = owner_keys.iter().map(|&k| ring.successor(k)).collect();

    // Updates: every node ships each of its items to the item's partition
    // owner (batched per (node, partition): one message per pair).
    let mut sets: Vec<HashSet<u64>> = vec![HashSet::new(); partitions];
    for &node in ring.alive_ids() {
        let items = assignment.items_of(node);
        if items.is_empty() {
            continue;
        }
        let mut batches: Vec<Vec<u64>> = vec![Vec::new(); partitions];
        for &item in items {
            let p = (hasher.hash_u64(item) % partitions as u64) as usize;
            batches[p].push(item);
        }
        for (p, batch) in batches.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let hops_before = ledger.hops();
            ring.route(node, owner_keys[p], ledger);
            let hops = ledger.hops() - hops_before;
            ledger.charge_message(0);
            ledger.charge_bytes(8 * batch.len() as u64 * hops.max(1));
            sets[p].extend(batch);
        }
    }

    // Query: contact every owner, sum the counts.
    let querier = ring.alive_ids()[0];
    let hops_before = ledger.hops();
    for (&key, _) in owner_keys.iter().zip(&owners) {
        ring.route(querier, key, ledger);
        ledger.charge_message(0);
        ledger.charge_bytes(16);
    }
    let query_hops = ledger.hops() - hops_before;

    PartitionedOutcome {
        estimate: sets.iter().map(HashSet::len).sum::<usize>() as f64,
        owners,
        entries_per_owner: sets.iter().map(|s| s.len() as u64).collect(),
        query_hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhs_dht::ring::RingConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (Ring, ItemAssignment) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ring = Ring::build(128, RingConfig::default(), &mut rng);
        let stream: Vec<u64> = (0..6_000).map(|i| i % 2_000).collect(); // 3 copies
        let a = ItemAssignment::uniform(&ring, &stream, &mut rng);
        (ring, a)
    }

    #[test]
    fn exact_and_duplicate_insensitive() {
        let (ring, a) = setup(1);
        for partitions in [1usize, 4, 16] {
            let mut ledger = CostLedger::new();
            let out = run(&ring, &a, 7, partitions, &mut ledger);
            assert_eq!(out.estimate, 2_000.0, "P = {partitions}");
            assert_eq!(out.entries_per_owner.iter().sum::<u64>(), 2_000);
        }
    }

    #[test]
    fn partitions_dilute_storage_roughly_evenly() {
        let (ring, a) = setup(2);
        let mut ledger = CostLedger::new();
        let out = run(&ring, &a, 7, 16, &mut ledger);
        let max = *out.entries_per_owner.iter().max().unwrap();
        let min = *out.entries_per_owner.iter().min().unwrap();
        // 2000 ids over 16 partitions ≈ 125 each; hashing keeps it tight.
        assert!(max < 2 * 125, "max {max}");
        assert!(min > 125 / 2, "min {min}");
    }

    #[test]
    fn query_cost_scales_with_partition_count() {
        let (ring, a) = setup(3);
        let mut l1 = CostLedger::new();
        let one = run(&ring, &a, 7, 1, &mut l1);
        let mut l2 = CostLedger::new();
        let sixteen = run(&ring, &a, 7, 16, &mut l2);
        assert!(
            sixteen.query_hops > 4 * one.query_hops.max(1),
            "P=16 query {} vs P=1 {}",
            sixteen.query_hops,
            one.query_hops
        );
    }

    #[test]
    fn owners_remain_hotspots() {
        let (ring, a) = setup(4);
        let mut ledger = CostLedger::new();
        let out = run(&ring, &a, 7, 4, &mut ledger);
        // The four owners must absorb far more traffic than typical nodes.
        let owner_visits: u64 = out.owners.iter().map(|&o| ledger.visits_to(o)).sum();
        let summary = ledger.load_summary();
        assert!(
            owner_visits as f64 / out.owners.len() as f64 > 4.0 * summary.mean,
            "owners {} visits vs mean {}",
            owner_visits,
            summary.mean
        );
    }
}
