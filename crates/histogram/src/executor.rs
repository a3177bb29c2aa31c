//! A distributed hash-join executor.
//!
//! The optimizer (and the paper's §5 argument) rests on a cost model:
//! executing `A ⋈ B` on a DHT rehashes both inputs by join value. This
//! module *executes* that plan on the simulated overlay — every tuple is
//! actually routed to `successor(hash(value))`, owners build hash tables
//! and emit result tuples — so the model's "shipped bytes" can be
//! validated against a ledger-measured execution, and result sizes
//! against the exact frequency algebra.

use std::collections::HashMap;

use rand::Rng;

use dhs_core::checked_cast;
use dhs_dht::cost::CostLedger;
use dhs_dht::ring::Ring;
use dhs_sketch::{ItemHasher, SplitMix64};
use dhs_workload::relation::{Relation, Tuple};

/// A relation physically partitioned over the overlay's nodes.
#[derive(Debug, Clone, Default)]
pub struct DistributedRelation {
    /// Node → locally stored tuples.
    pub partitions: HashMap<u64, Vec<Tuple>>,
}

impl DistributedRelation {
    /// Spread `rel`'s tuples uniformly over the alive nodes.
    pub fn scatter(rel: &Relation, ring: &Ring, rng: &mut impl Rng) -> Self {
        let mut partitions: HashMap<u64, Vec<Tuple>> = HashMap::new();
        for &t in &rel.tuples {
            partitions
                .entry(ring.random_alive(rng))
                .or_default()
                .push(t);
        }
        DistributedRelation { partitions }
    }

    /// Total tuples across nodes.
    pub fn len(&self) -> usize {
        self.partitions.values().map(Vec::len).sum()
    }

    /// True when no node holds any tuple.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact per-value frequency vector (for verification).
    pub fn value_frequencies(&self, domain: usize) -> Vec<u64> {
        let mut freq = vec![0u64; domain];
        for tuples in self.partitions.values() {
            for t in tuples {
                freq[checked_cast::<usize, _>(t.value)] += 1;
            }
        }
        freq
    }
}

/// Execute one distributed hash join: rehash both inputs by join value,
/// join at the hash owners, and leave the result partitioned by value
/// owner. Ships `tuple_bytes` per tuple per routing hop into `ledger`.
///
/// Result tuple ids are synthesized from the joined pair's ids.
pub fn hash_join(
    ring: &Ring,
    left: &DistributedRelation,
    right: &DistributedRelation,
    tuple_bytes: u64,
    ledger: &mut CostLedger,
) -> DistributedRelation {
    let hasher = SplitMix64::default();
    // Rehash phase: every node ships its tuples, batched per target owner
    // (one routed message per (source node, owner) pair).
    let ship = |side: &DistributedRelation, ledger: &mut CostLedger| -> HashMap<u64, Vec<Tuple>> {
        let mut at_owner: HashMap<u64, Vec<Tuple>> = HashMap::new();
        for (&source, tuples) in &side.partitions {
            let mut batches: HashMap<u64, Vec<Tuple>> = HashMap::new();
            for &t in tuples {
                let owner = ring.successor(hasher.hash_u64(u64::from(t.value)));
                batches.entry(owner).or_default().push(t);
            }
            for (owner, batch) in batches {
                if owner != source {
                    let hops_before = ledger.hops();
                    ring.route(source, owner, ledger);
                    let hops = ledger.hops() - hops_before;
                    ledger.charge_message(0);
                    ledger.charge_bytes(tuple_bytes * batch.len() as u64 * hops.max(1));
                }
                at_owner.entry(owner).or_default().extend(batch);
            }
        }
        at_owner
    };
    let left_at = ship(left, ledger);
    let right_at = ship(right, ledger);

    // Local join at every owner.
    let mut partitions: HashMap<u64, Vec<Tuple>> = HashMap::new();
    for (owner, left_tuples) in left_at {
        let Some(right_tuples) = right_at.get(&owner) else {
            continue;
        };
        // Build side: right tuples by value.
        let mut by_value: HashMap<u32, Vec<&Tuple>> = HashMap::new();
        for t in right_tuples {
            by_value.entry(t.value).or_default().push(t);
        }
        let out = partitions.entry(owner).or_default();
        for l in &left_tuples {
            if let Some(matches) = by_value.get(&l.value) {
                for r in matches {
                    out.push(Tuple {
                        id: SplitMix64::mix(l.id ^ r.id.rotate_left(32)),
                        value: l.value,
                    });
                }
            }
        }
    }
    DistributedRelation { partitions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::exact_join_size;
    use dhs_dht::ring::RingConfig;
    use dhs_workload::relation::RelationSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Ring, Relation, Relation, StdRng) {
        let mut rng = StdRng::seed_from_u64(7);
        let ring = Ring::build(64, RingConfig::default(), &mut rng);
        let mk = |name: &'static str, n: u64, theta: f64, tag: u8, rng: &mut StdRng| {
            Relation::generate(
                &RelationSpec {
                    name,
                    paper_tuples: n,
                    domain: 200,
                    theta,
                },
                1.0,
                tag,
                rng,
            )
        };
        let a = mk("A", 3_000, 0.0, 1, &mut rng);
        let b = mk("B", 5_000, 0.9, 2, &mut rng);
        (ring, a, b, rng)
    }

    #[test]
    fn join_size_matches_frequency_algebra() {
        let (ring, a, b, mut rng) = setup();
        let da = DistributedRelation::scatter(&a, &ring, &mut rng);
        let db = DistributedRelation::scatter(&b, &ring, &mut rng);
        let mut ledger = CostLedger::new();
        let joined = hash_join(&ring, &da, &db, 1024, &mut ledger);
        let expected = exact_join_size(&a.value_frequencies(), &b.value_frequencies());
        assert_eq!(joined.len() as u64, expected);
        assert!(ledger.bytes() > 0);
    }

    #[test]
    fn join_result_frequencies_are_products() {
        let (ring, a, b, mut rng) = setup();
        let da = DistributedRelation::scatter(&a, &ring, &mut rng);
        let db = DistributedRelation::scatter(&b, &ring, &mut rng);
        let mut ledger = CostLedger::new();
        let joined = hash_join(&ring, &da, &db, 1024, &mut ledger);
        let fa = a.value_frequencies();
        let fb = b.value_frequencies();
        let fj = joined.value_frequencies(200);
        for v in 0..200 {
            assert_eq!(fj[v], fa[v] * fb[v], "value {v}");
        }
    }

    #[test]
    fn shipped_bytes_close_to_cost_model() {
        // The model says cost ≈ (|L| + |R|) · tuple_bytes · avg_hops; the
        // executed cost (batched, some tuples already local) must be the
        // same order: between 0.5× and 1.5× of model × expected hops.
        let (ring, a, b, mut rng) = setup();
        let da = DistributedRelation::scatter(&a, &ring, &mut rng);
        let db = DistributedRelation::scatter(&b, &ring, &mut rng);
        let mut ledger = CostLedger::new();
        let _ = hash_join(&ring, &da, &db, 1024, &mut ledger);
        let tuples_shipped = (a.len() + b.len()) as f64;
        let avg_hops = 0.5 * (64f64).log2(); // Chord expectation, 64 nodes
        let model = tuples_shipped * 1024.0 * avg_hops;
        let measured = ledger.bytes() as f64;
        let ratio = measured / model;
        assert!(
            (0.5..2.0).contains(&ratio),
            "measured {measured:.0} vs model {model:.0} (ratio {ratio})"
        );
    }

    #[test]
    fn empty_side_joins_to_empty() {
        let (ring, a, _, mut rng) = setup();
        let da = DistributedRelation::scatter(&a, &ring, &mut rng);
        let empty = DistributedRelation::default();
        let mut ledger = CostLedger::new();
        let joined = hash_join(&ring, &da, &empty, 1024, &mut ledger);
        assert!(joined.is_empty());
    }
}
