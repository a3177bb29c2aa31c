//! A Kademlia-style XOR-metric overlay.
//!
//! Same node population machinery as the Chord [`Ring`] (it wraps one for
//! storage, liveness and the numeric neighbor links), but with Kademlia's
//! geometry:
//!
//! * **ownership**: the owner of a key is the alive node with minimal
//!   XOR distance to it;
//! * **routing**: greedy prefix refinement — each hop moves to a contact
//!   sharing at least one more leading bit with the target (the node a
//!   real Kademlia node would find in the corresponding k-bucket),
//!   `O(log N)` hops in expectation.
//!
//! Existing so that `dhs-core`, written against the [`Overlay`] trait,
//! can run *unchanged* over a second DHT geometry — the paper's
//! "DHT-agnostic" claim, made testable.

use rand::Rng;

use crate::cost::CostLedger;
use crate::overlay::Overlay;
use crate::ring::{Ring, RingConfig};
use crate::storage::StoredRecord;

/// The XOR-metric overlay.
#[derive(Debug, Clone)]
pub struct Kademlia {
    inner: Ring,
}

impl Kademlia {
    /// Build an overlay of `n` nodes with uniform identifiers.
    pub fn build(n: usize, cfg: RingConfig, rng: &mut impl Rng) -> Self {
        Kademlia {
            inner: Ring::build(n, cfg, rng),
        }
    }

    /// The underlying node population (storage, churn, clock).
    pub fn ring(&self) -> &Ring {
        &self.inner
    }

    /// Mutable access to the underlying population.
    pub fn ring_mut(&mut self) -> &mut Ring {
        &mut self.inner
    }

    /// The alive node with minimal XOR distance to `key`.
    ///
    /// Implemented by descending the implicit binary trie over the sorted
    /// identifier array: at each bit, restrict to the half matching the
    /// key's bit when non-empty.
    pub fn xor_closest(&self, key: u64) -> u64 {
        let ids = self.inner.alive_ids();
        debug_assert!(!ids.is_empty());
        let (mut lo, mut hi) = (0usize, ids.len()); // candidate range
        for bit in (0..64).rev() {
            if hi - lo <= 1 {
                break;
            }
            // The candidates share all bits above `bit`; being sorted,
            // they split at the first id with `bit` set.
            let mask = 1u64 << bit;
            let split = ids[lo..hi].partition_point(|&id| id & mask == 0) + lo;
            let key_bit_set = key & mask != 0;
            if key_bit_set {
                if split < hi {
                    lo = split; // ids with the bit set exist: take them
                } // else keep the zero side (forced mismatch)
            } else if split > lo {
                hi = split;
            }
        }
        ids[lo]
    }

    /// Length of the common bit prefix of `a` and `b`.
    fn lcp(a: u64, b: u64) -> u32 {
        (a ^ b).leading_zeros()
    }

    /// Smallest alive id sharing the top `prefix_len` bits of `key`,
    /// if any ("the bucket head" a node would know for that block).
    fn block_head(&self, key: u64, prefix_len: u32) -> Option<u64> {
        debug_assert!(prefix_len <= 64);
        let ids = self.inner.alive_ids();
        if prefix_len == 0 {
            return ids.first().copied();
        }
        let shift = 64 - prefix_len;
        let lo = if shift == 64 {
            0
        } else {
            (key >> shift) << shift
        };
        let hi = if shift == 0 {
            lo
        } else {
            lo | ((1u64 << shift) - 1)
        };
        let start = ids.partition_point(|&id| id < lo);
        if start < ids.len() && ids[start] <= hi {
            Some(ids[start])
        } else {
            None
        }
    }
}

impl Overlay for Kademlia {
    fn node_count(&self) -> usize {
        self.inner.len_alive()
    }

    fn time(&self) -> u64 {
        self.inner.now()
    }

    fn owner_of(&self, key: u64) -> u64 {
        self.xor_closest(key)
    }

    fn route(&self, from: u64, key: u64, ledger: &mut CostLedger) -> u64 {
        let owner = self.xor_closest(key);
        let mut cur = from;
        for _ in 0..128 {
            if cur == owner {
                return cur;
            }
            let p = Self::lcp(cur, key);
            // The contact in cur's bucket for "differs at bit p": some
            // node sharing p+1 bits with the key. If none exists, cur's
            // block is the owner's block and cur can reach the owner
            // directly (it is in cur's own neighborhood bucket).
            let next = self.block_head(key, p + 1).unwrap_or(owner);
            ledger.charge_hops(1);
            ledger.record_visit(next);
            if next == cur {
                // cur is the block head itself; final hop to the owner.
                ledger.charge_hops(1);
                ledger.record_visit(owner);
                return owner;
            }
            cur = next;
        }
        unreachable!("XOR routing failed to converge");
    }

    fn next_node(&self, node: u64) -> u64 {
        self.inner.succ_of(node)
    }

    fn prev_node(&self, node: u64) -> u64 {
        self.inner.pred_of(node)
    }

    fn put_at(&mut self, node: u64, app_key: u64, record: StoredRecord) {
        self.inner.store_at(node, app_key, record);
    }

    fn fetch_at(&self, node: u64, app_key: u64) -> Option<StoredRecord> {
        self.inner.get_at(node, app_key).copied()
    }

    fn any_node(&self, rng: &mut impl rand::Rng) -> u64 {
        self.inner.random_alive(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn overlay(n: usize, seed: u64) -> (Kademlia, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = Kademlia::build(n, RingConfig::default(), &mut rng);
        (k, rng)
    }

    #[test]
    fn xor_closest_matches_linear_scan() {
        let (k, mut rng) = overlay(100, 1);
        for _ in 0..200 {
            let key: u64 = rng.gen();
            let got = k.xor_closest(key);
            let want = k
                .ring()
                .alive_ids()
                .iter()
                .copied()
                .min_by_key(|&id| id ^ key)
                .unwrap();
            assert_eq!(got, want, "key {key:#x}");
        }
    }

    #[test]
    fn routing_reaches_the_xor_owner() {
        let (k, mut rng) = overlay(256, 2);
        for _ in 0..100 {
            let from = k.ring().random_alive(&mut rng);
            let key: u64 = rng.gen();
            let mut ledger = CostLedger::new();
            let got = k.route(from, key, &mut ledger);
            assert_eq!(got, k.xor_closest(key));
        }
    }

    #[test]
    fn routing_hops_are_logarithmic() {
        let (k, mut rng) = overlay(1024, 3);
        let mut total = 0u64;
        let trials = 300;
        for _ in 0..trials {
            let from = k.ring().random_alive(&mut rng);
            let key: u64 = rng.gen();
            let mut ledger = CostLedger::new();
            k.route(from, key, &mut ledger);
            total += ledger.hops();
        }
        let avg = total as f64 / f64::from(trials);
        // Prefix-refinement: about one hop per resolved bit among the
        // log2(N) meaningful ones.
        assert!((3.0..15.0).contains(&avg), "avg hops {avg}");
    }

    #[test]
    fn ownership_partition_is_total() {
        // Every key has exactly one owner; owners are alive.
        let (mut k, mut rng) = overlay(64, 4);
        k.ring_mut().fail_random(0.3, &mut rng);
        for _ in 0..100 {
            let key: u64 = rng.gen();
            let owner = k.owner_of(key);
            assert!(k.ring().is_alive(owner));
        }
    }

    #[test]
    fn storage_round_trips_via_trait() {
        let (mut k, mut rng) = overlay(32, 5);
        let key: u64 = rng.gen();
        let owner = k.owner_of(key);
        k.put_at(
            owner,
            42,
            StoredRecord {
                expires_at: u64::MAX,
                size_bytes: 8,
                routing_key: key,
            },
        );
        assert!(k.fetch_at(owner, 42).is_some());
        assert!(k.fetch_at(k.next_node(owner), 42).is_none() || k.node_count() == 1);
    }

    #[test]
    fn numeric_neighbors_are_ring_neighbors() {
        let (k, _) = overlay(20, 6);
        for &id in k.ring().alive_ids() {
            assert_eq!(k.prev_node(k.next_node(id)), id);
        }
    }
}
