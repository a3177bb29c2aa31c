//! Property-based tests for the DHT substrate.

use std::collections::BTreeMap;

use dhs_dht::cost::{CostLedger, LoadSummary};
use dhs_dht::ring::{Ring, RingConfig};
use dhs_dht::storage::StoredRecord;
use dhs_dht::{cw_contains, cw_distance};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ring(n: usize, seed: u64) -> Ring {
    let mut rng = StdRng::seed_from_u64(seed);
    Ring::build(n, RingConfig::default(), &mut rng)
}

proptest! {
    /// Clockwise distance composes: d(a,b) + d(b,c) ≡ d(a,c) mod 2^64.
    #[test]
    fn cw_distance_composes(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        prop_assert_eq!(
            cw_distance(a, b).wrapping_add(cw_distance(b, c)),
            cw_distance(a, c)
        );
    }

    /// Exactly one node owns any key, and succ/pred tile the circle.
    #[test]
    fn ownership_partition(seed in any::<u64>(), key in any::<u64>(), n in 1usize..80) {
        let r = ring(n, seed);
        let owner = r.successor(key);
        let owners = r
            .alive_ids()
            .iter()
            .filter(|&&node| cw_contains(r.pred_of(node), node, key))
            .count();
        if n == 1 {
            prop_assert_eq!(owner, r.alive_ids()[0]);
        } else {
            prop_assert_eq!(owners, 1, "exactly one arc contains the key");
        }
    }

    /// Routing from any start reaches the owner within 2·log2-ish hops
    /// and the hop charge matches what the ledger saw.
    #[test]
    fn routing_terminates_and_charges(seed in any::<u64>(), key in any::<u64>(), n in 1usize..200) {
        let r = ring(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let from = r.random_alive(&mut rng);
        let mut ledger = CostLedger::new();
        let owner = r.route(from, key, &mut ledger);
        prop_assert_eq!(owner, r.successor(key));
        prop_assert!(ledger.hops() <= 64, "hops {}", ledger.hops());
    }

    /// The visit table answers like an ordered map under any mix of
    /// `record_visit` and `absorb`: id-ordered `visits()`, distinct
    /// count, per-node counts and the load summary.
    #[test]
    fn ledger_visits_match_ordered_map_model(ops in prop::collection::vec((0u8..5, 0u64..48, any::<u64>()), 0..400)) {
        let mut ledgers = [CostLedger::new(), CostLedger::new()];
        let mut models: [BTreeMap<u64, u64>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for &(kind, small, big) in &ops {
            let side = usize::from(kind & 1);
            match kind {
                // Dense small ids collide in the table; wide ids spread.
                0 | 1 => {
                    ledgers[side].record_visit(small);
                    *models[side].entry(small).or_insert(0) += 1;
                }
                2 | 3 => {
                    ledgers[side].record_visit(big);
                    *models[side].entry(big).or_insert(0) += 1;
                }
                _ => {
                    let other = ledgers[1].clone();
                    ledgers[0].absorb(&other);
                    for (&node, &count) in &models[1].clone() {
                        *models[0].entry(node).or_insert(0) += count;
                    }
                }
            }
        }
        for (ledger, model) in ledgers.iter().zip(&models) {
            let got: Vec<(u64, u64)> = ledger.visits().map(|(&n, &c)| (n, c)).collect();
            let want: Vec<(u64, u64)> = model.iter().map(|(&n, &c)| (n, c)).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(ledger.nodes_visited(), model.len());
            for node in (0..48).chain(model.keys().copied()).chain([u64::MAX]) {
                prop_assert_eq!(ledger.visits_to(node), model.get(&node).copied().unwrap_or(0));
            }
            prop_assert_eq!(
                ledger.load_summary(),
                LoadSummary::from_counts(model.values().copied())
            );
        }
    }

    /// Failing any (non-last) subset keeps succ/pred consistent over the
    /// survivors.
    #[test]
    fn churn_keeps_ring_consistent(seed in any::<u64>(), n in 3usize..40, kill_mask in any::<u64>()) {
        let mut r = ring(n, seed);
        let ids = r.alive_ids().to_vec();
        for (i, &id) in ids.iter().enumerate() {
            if r.len_alive() > 1 && (kill_mask >> (i % 64)) & 1 == 1 {
                r.fail_node(id);
            }
        }
        for &id in r.alive_ids() {
            prop_assert_eq!(r.pred_of(r.succ_of(id)), id);
        }
        // Ownership still covers arbitrary keys.
        let owner = r.successor(12345);
        prop_assert!(r.is_alive(owner));
    }

    /// Graceful leave loses no records: totals before == totals after.
    #[test]
    fn graceful_leave_conserves_records(seed in any::<u64>(), n in 3usize..30, leavers in 1usize..5) {
        let mut r = ring(n, seed);
        let ids = r.alive_ids().to_vec();
        for (i, &id) in ids.iter().enumerate() {
            r.store_at(id, i as u64, StoredRecord {
                expires_at: u64::MAX,
                size_bytes: 8,
                routing_key: id,
            });
        }
        let before = r.total_live_bytes();
        for &id in ids.iter().take(leavers.min(n - 1)) {
            r.graceful_leave(id);
        }
        prop_assert_eq!(r.total_live_bytes(), before);
    }

    /// Join conserves records and respects ownership of routing keys.
    #[test]
    fn join_conserves_and_rebalances(seed in any::<u64>(), n in 2usize..30, new_id in any::<u64>()) {
        let mut r = ring(n, seed);
        prop_assume!(r.store_of(new_id).is_none());
        // Store a record under every existing node keyed by its own id.
        for &id in r.alive_ids().to_vec().iter() {
            r.store_at(id, id, StoredRecord {
                expires_at: u64::MAX,
                size_bytes: 8,
                routing_key: id,
            });
        }
        let before = r.total_live_bytes();
        r.join(new_id);
        prop_assert_eq!(r.total_live_bytes(), before);
        // Every record sits at the owner of its routing key.
        for &node in r.alive_ids() {
            if let Some(store) = r.store_of(node) {
                for (_, rec) in store.iter() {
                    prop_assert_eq!(r.successor(rec.routing_key), node);
                }
            }
        }
    }

    /// The Gini coefficient is scale-invariant and bounded.
    #[test]
    fn gini_properties(counts in prop::collection::vec(0u64..1000, 1..100), factor in 1u64..10) {
        let s1 = LoadSummary::from_counts(counts.iter().copied());
        prop_assert!((0.0..=1.0).contains(&s1.gini));
        let s2 = LoadSummary::from_counts(counts.iter().map(|&c| c * factor));
        prop_assert!((s1.gini - s2.gini).abs() < 1e-9, "scale invariance");
    }

    /// TTL semantics: a record is visible strictly before its expiry and
    /// invisible from it on, regardless of sweeps.
    #[test]
    fn ttl_visibility(expires in 1u64..1000, probe in 0u64..1500, sweep in any::<bool>()) {
        let mut r = ring(4, 9);
        let node = r.alive_ids()[0];
        r.store_at(node, 7, StoredRecord {
            expires_at: expires,
            size_bytes: 8,
            routing_key: 0,
        });
        r.advance_time(probe);
        if sweep {
            r.sweep_all();
        }
        prop_assert_eq!(r.get_at(node, 7).is_some(), probe < expires);
    }
}

mod kademlia_props {
    use dhs_dht::cost::CostLedger;
    use dhs_dht::kademlia::Kademlia;
    use dhs_dht::overlay::Overlay;
    use dhs_dht::ring::RingConfig;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// XOR-closest matches a linear scan for arbitrary populations.
        #[test]
        fn xor_closest_is_global_minimum(seed in proptest::prelude::any::<u64>(), key in proptest::prelude::any::<u64>(), n in 1usize..100) {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = Kademlia::build(n, RingConfig::default(), &mut rng);
            let got = k.owner_of(key);
            let best = k
                .ring()
                .alive_ids()
                .iter()
                .copied()
                .min_by_key(|&id| id ^ key)
                .unwrap();
            prop_assert_eq!(got, best);
        }

        /// Prefix routing always terminates at the XOR owner and never
        /// exceeds ~2 hops per meaningful bit.
        #[test]
        fn xor_routing_terminates(seed in proptest::prelude::any::<u64>(), key in proptest::prelude::any::<u64>(), n in 1usize..200) {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = Kademlia::build(n, RingConfig::default(), &mut rng);
            let from = k.ring().random_alive(&mut rng);
            let mut ledger = CostLedger::new();
            let owner = k.route(from, key, &mut ledger);
            prop_assert_eq!(owner, k.owner_of(key));
            prop_assert!(ledger.hops() <= 130, "hops {}", ledger.hops());
        }

        /// Failing nodes never leaves a key without an alive owner, and
        /// the owner changes only when the previous owner died.
        #[test]
        fn xor_ownership_stable_under_failures(seed in proptest::prelude::any::<u64>(), key in proptest::prelude::any::<u64>(), kills in 1usize..10) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut k = Kademlia::build(20, RingConfig::default(), &mut rng);
            let before = k.owner_of(key);
            for _ in 0..kills {
                if k.ring().len_alive() <= 1 {
                    break;
                }
                let victim = k.ring().random_alive(&mut rng);
                k.ring_mut().fail_node(victim);
            }
            let after = k.owner_of(key);
            prop_assert!(k.ring().is_alive(after));
            if k.ring().is_alive(before) {
                prop_assert_eq!(after, before, "owner must not change while alive");
            }
        }
    }
}
