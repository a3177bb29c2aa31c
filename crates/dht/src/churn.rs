//! Overlay dynamics: fail-stop crashes, graceful leaves, and joins.
//!
//! The paper's fault-tolerance analysis (§3.5) assumes fail-stop crashes
//! with probability `p_f` per node: a crashed node's stored bits become
//! unavailable (unless replicated on successors), while routing converges
//! around it. Graceful leave and join additionally hand records off along
//! the ownership rule, which is what keeps DHS data reachable under
//! *planned* churn.
//!
//! Records carry the routing key they were stored under (see
//! [`crate::storage::StoredRecord`]'s producer, the `dhs-core` crate, which
//! packs it into the application key space) — handoff here moves whole
//! stores (leave) or ownership-range slices (join).

use rand::Rng;

use crate::ring::{NodeState, Ring};
use crate::storage::NodeStore;

/// Outcome of a mass-failure event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureReport {
    /// Nodes that crashed.
    pub failed: usize,
    /// Records that became unreachable with them.
    pub records_lost: usize,
}

impl Ring {
    /// Crash `node` (fail-stop). Its store becomes unreachable but is kept,
    /// mirroring a machine that may later rejoin. No handoff happens —
    /// that is the point of the failure model.
    ///
    /// Panics if this would crash the last alive node.
    pub fn fail_node(&mut self, node: u64) {
        assert!(self.len_alive() > 1, "cannot fail the last alive node");
        #[expect(
            clippy::expect_used,
            reason = "invariant: node ids come from the alive set"
        )]
        let state = self.node_mut(node).expect("unknown node");
        assert!(state.alive, "node already failed");
        state.alive = false;
        self.remove_alive(node);
    }

    /// Crash each alive node independently with probability `p_f`
    /// (keeping at least one alive). Returns what was lost.
    pub fn fail_random(&mut self, p_f: f64, rng: &mut impl Rng) -> FailureReport {
        assert!((0.0..=1.0).contains(&p_f), "p_f must be a probability");
        let candidates: Vec<u64> = self
            .alive_ids()
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(p_f))
            .collect();
        let mut failed = 0;
        let mut records_lost = 0;
        for id in candidates {
            if self.len_alive() <= 1 {
                break;
            }
            records_lost += self.store_of(id).map_or(0, NodeStore::len);
            self.fail_node(id);
            failed += 1;
        }
        FailureReport {
            failed,
            records_lost,
        }
    }

    /// A previously failed node rejoins with its (stale) store intact.
    pub fn revive_node(&mut self, node: u64) {
        #[expect(
            clippy::expect_used,
            reason = "invariant: node ids come from the alive set"
        )]
        let state = self.node_mut(node).expect("unknown node");
        assert!(!state.alive, "node is not failed");
        state.alive = true;
        // Re-insert into the alive view.
        #[expect(
            clippy::expect_used,
            reason = "invariant: a failed node is out of the alive view"
        )]
        let pos = self
            .alive_ids_mut_position(node)
            .expect_err("revived node already in alive view");
        self.insert_alive_at(pos, node);
    }

    /// Graceful departure: hand every record to the successor, then leave.
    ///
    /// Panics if `node` is the last alive node.
    pub fn graceful_leave(&mut self, node: u64) {
        assert!(self.len_alive() > 1, "cannot leave an empty ring behind");
        let succ = self.succ_of(node);
        assert_ne!(succ, node);
        let records: Vec<_> = {
            #[expect(
                clippy::expect_used,
                reason = "invariant: node ids come from the alive set"
            )]
            let state = self.node_mut(node).expect("unknown node");
            assert!(state.alive, "failed nodes cannot leave gracefully");
            state.store.drain().collect()
        };
        {
            #[expect(
                clippy::expect_used,
                reason = "invariant: successor_of always returns an alive node"
            )]
            let succ_state = self.node_mut(succ).expect("successor exists");
            for (key, rec) in records {
                succ_state.store.put(key, rec);
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "invariant: node ids come from the alive set"
        )]
        let state = self.node_mut(node).expect("unknown node");
        state.alive = false;
        self.remove_alive(node);
    }

    /// A new node with identifier `id` joins, taking over from its
    /// successor the records whose stored routing key now belongs to it
    /// (routing key ∈ `(pred(id), id]`).
    ///
    /// Panics if `id` is already present.
    pub fn join(&mut self, id: u64) {
        assert!(
            self.store_of(id).is_none(),
            "node id {id} already in overlay"
        );
        // Insert first so ownership math includes the newcomer.
        self.insert_node(
            id,
            NodeState {
                alive: true,
                store: NodeStore::new(),
            },
        );
        let succ = self.succ_of(id);
        if succ == id {
            return; // first node of the ring
        }
        let pred = self.pred_of(id);
        // Records at the successor whose routing key is now owned by `id`
        // (routing key ∈ (pred, id]) move over.
        #[expect(
            clippy::expect_used,
            reason = "invariant: successor_of always returns an alive node"
        )]
        let moving: Vec<u64> = self
            .store_of(succ)
            .expect("successor exists")
            .iter()
            .filter(|&(_, rec)| crate::id::cw_contains(pred, id, rec.routing_key))
            .map(|(app_key, _)| app_key)
            .collect();
        for app_key in moving {
            #[expect(
                clippy::expect_used,
                reason = "invariant: successor_of returns an alive node, and the key comes from its store's own iteration"
            )]
            let rec = self
                .node_mut(succ)
                .expect("successor exists")
                .store
                .remove(app_key)
                .expect("record present");
            #[expect(
                clippy::expect_used,
                reason = "invariant: the joining node was inserted just above"
            )]
            self.node_mut(id)
                .expect("new node present")
                .store
                .put(app_key, rec);
        }
    }

    // Small private helpers over the alive view, kept here so churn logic
    // stays in one file.
    fn alive_ids_mut_position(&self, id: u64) -> Result<usize, usize> {
        self.alive_ids().binary_search(&id)
    }

    fn insert_alive_at(&mut self, pos: usize, id: u64) {
        self.insert_alive(pos, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostLedger;
    use crate::ring::RingConfig;
    use crate::storage::StoredRecord;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: usize, seed: u64) -> Ring {
        let mut rng = StdRng::seed_from_u64(seed);
        Ring::build(n, RingConfig::default(), &mut rng)
    }

    fn rec() -> StoredRecord {
        rec_at(0)
    }

    fn rec_at(routing_key: u64) -> StoredRecord {
        StoredRecord {
            expires_at: u64::MAX,
            size_bytes: 8,
            routing_key,
        }
    }

    #[test]
    fn fail_removes_from_alive_view() {
        let mut r = ring(16, 1);
        let victim = r.alive_ids()[5];
        r.fail_node(victim);
        assert_eq!(r.len_alive(), 15);
        assert!(!r.is_alive(victim));
        assert!(!r.alive_ids().contains(&victim));
        // Routing still works and never lands on the failed node.
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let from = r.random_alive(&mut rng);
            let key: u64 = rng.gen();
            let mut ledger = CostLedger::new();
            let owner = r.route(from, key, &mut ledger);
            assert!(r.is_alive(owner));
        }
    }

    #[test]
    fn failed_node_data_unreachable() {
        let mut r = ring(8, 3);
        let victim = r.alive_ids()[2];
        r.store_at(victim, 42, rec());
        assert!(r.get_at(victim, 42).is_some());
        r.fail_node(victim);
        assert!(r.get_at(victim, 42).is_none());
    }

    #[test]
    fn revive_restores_data() {
        let mut r = ring(8, 4);
        let victim = r.alive_ids()[2];
        r.store_at(victim, 42, rec());
        r.fail_node(victim);
        r.revive_node(victim);
        assert!(r.is_alive(victim));
        assert!(r.get_at(victim, 42).is_some());
        assert_eq!(r.len_alive(), 8);
    }

    #[test]
    fn fail_random_respects_probability_extremes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut r = ring(64, 5);
        let report = r.fail_random(0.0, &mut rng);
        assert_eq!(report.failed, 0);
        let report = r.fail_random(1.0, &mut rng);
        // Keeps one alive.
        assert_eq!(report.failed, 63);
        assert_eq!(r.len_alive(), 1);
    }

    #[test]
    fn fail_random_counts_lost_records() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut r = ring(32, 6);
        for (i, &id) in r.alive_ids().to_vec().iter().enumerate() {
            r.store_at(id, i as u64, rec());
        }
        let report = r.fail_random(0.5, &mut rng);
        assert_eq!(report.records_lost, report.failed);
    }

    #[test]
    fn graceful_leave_hands_off_to_successor() {
        let mut r = ring(8, 7);
        let leaver = r.alive_ids()[3];
        let succ = r.succ_of(leaver);
        r.store_at(leaver, 1, rec());
        r.store_at(leaver, 2, rec());
        r.graceful_leave(leaver);
        assert!(!r.is_alive(leaver));
        assert!(r.get_at(succ, 1).is_some());
        assert!(r.get_at(succ, 2).is_some());
    }

    #[test]
    fn join_takes_over_owned_range() {
        let mut r = ring(4, 8);
        let ids = r.alive_ids().to_vec();
        // Place records at ids[1] keyed by routing keys on both sides of a
        // midpoint between ids[0] and ids[1].
        let lo = ids[0];
        let hi = ids[1];
        let mid = lo + (hi - lo) / 2;
        let key_before_mid = lo.wrapping_add(1); // ≤ mid → newcomer owns
        let key_after_mid = mid.wrapping_add(1); // stays with old owner hi
        r.store_at(hi, 100, rec_at(key_before_mid));
        r.store_at(hi, 200, rec_at(key_after_mid));
        r.join(mid);
        assert_eq!(r.len_alive(), 5);
        assert!(r.get_at(mid, 100).is_some(), "newcomer owns keys ≤ mid");
        assert!(r.get_at(hi, 100).is_none());
        assert!(r.get_at(hi, 200).is_some(), "old owner keeps keys > mid");
        assert_eq!(r.successor(key_before_mid), mid);
        assert_eq!(r.successor(key_after_mid), hi);
    }

    #[test]
    #[should_panic(expected = "already in overlay")]
    fn join_duplicate_id_panics() {
        let mut r = ring(4, 9);
        let existing = r.alive_ids()[0];
        r.join(existing);
    }

    #[test]
    #[should_panic(expected = "last alive node")]
    fn cannot_fail_last_node() {
        let mut r = ring(1, 10);
        let only = r.alive_ids()[0];
        r.fail_node(only);
    }
}
