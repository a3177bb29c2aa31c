//! The Chord-like overlay ring.
//!
//! Nodes live on the `u64` identifier circle; node `s` owns the keys in
//! `(pred(s), s]`. Routing simulates Chord's greedy
//! closest-preceding-finger rule over the *converged* overlay: the finger
//! of node `x` for level `j` is `successor(x + 2^j)`, computed on demand
//! from the sorted alive-node array. This is exactly the hop count of a
//! Chord network whose finger tables are up to date — the regime the
//! paper's evaluation assumes — without paying `O(N log N)` memory.
//!
//! A lookup walks in *slot space*: it keeps the index, in the sorted
//! alive array, of the current node's successor link, so following that
//! link is `slot + 1` (wrapping) and the finger search hands back the
//! slot it landed on. A lookup pays one binary search for the owner, one
//! for the start's successor link and one per finger tried; hops, visits
//! and owners are those of the per-hop `succ_of` formulation, which this
//! module's tests keep as an oracle (the hop order through a test-only
//! visit log in `CostLedger`). `successor` itself, which the count path
//! calls per probe, keeps its own `binary_search` body: written as a
//! wrapper over `successor_slot` it moved the count path's `fetch_at` to
//! a code address that cost ~15 % of `dhs-read`'s count rate (DESIGN.md,
//! "Code placement moves count rates").
//!
//! A logical clock (`now`) drives the soft-state TTL semantics of the
//! per-node stores.

use std::collections::BTreeMap;

use rand::Rng;

use crate::cost::{CostLedger, LoadSummary};
use crate::id::cw_contains;
use crate::storage::{NodeStore, StoredRecord};

/// Ring construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct RingConfig {
    /// Hops charged when an operation contacts a node that turns out to
    /// have failed (timeout + retry cost). Default 1.
    pub failed_contact_hops: u64,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            failed_contact_hops: 1,
        }
    }
}

/// State of a single overlay node.
#[derive(Debug, Clone)]
pub struct NodeState {
    /// False once the node has crashed (fail-stop); its store is then
    /// unreachable but retained, mirroring a machine that may later rejoin.
    pub alive: bool,
    /// The node's local soft-state store.
    pub store: NodeStore,
}

/// The simulated DHT overlay.
#[derive(Debug, Clone)]
pub struct Ring {
    /// Sorted identifiers of alive nodes.
    alive_ids: Vec<u64>,
    /// All nodes ever part of the overlay, alive or failed. Ordered map:
    /// `sweep_all` iterates it, and replayed runs must visit stores in
    /// identifier order, not `HashMap` seed order.
    nodes: BTreeMap<u64, NodeState>,
    /// Logical clock for TTL semantics.
    now: u64,
    cfg: RingConfig,
}

impl Ring {
    /// Build a ring of `n` nodes with identifiers drawn uniformly from the
    /// 64-bit space (the paper creates them by hashing node addresses with
    /// MD4; a seeded uniform draw is distributionally identical).
    ///
    /// Panics if `n == 0`.
    pub fn build(n: usize, cfg: RingConfig, rng: &mut impl Rng) -> Self {
        assert!(n > 0, "a ring needs at least one node");
        let mut ids = Vec::with_capacity(n);
        let mut nodes = BTreeMap::new();
        while ids.len() < n {
            let id: u64 = rng.gen();
            if nodes.contains_key(&id) {
                continue; // astronomically rare, but keep ids unique
            }
            nodes.insert(
                id,
                NodeState {
                    alive: true,
                    store: NodeStore::new(),
                },
            );
            ids.push(id);
        }
        ids.sort_unstable();
        Ring {
            alive_ids: ids,
            nodes,
            now: 0,
            cfg,
        }
    }

    /// Number of alive nodes.
    pub fn len_alive(&self) -> usize {
        self.alive_ids.len()
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advance the logical clock by `dt`.
    pub fn advance_time(&mut self, dt: u64) {
        self.now += dt;
    }

    /// The ring configuration.
    pub fn config(&self) -> RingConfig {
        self.cfg
    }

    /// Sorted identifiers of the alive nodes.
    pub fn alive_ids(&self) -> &[u64] {
        &self.alive_ids
    }

    /// Whether `node` exists and is alive.
    pub fn is_alive(&self, node: u64) -> bool {
        self.nodes.get(&node).is_some_and(|n| n.alive)
    }

    /// The alive node owning `key`: the first alive identifier
    /// clockwise-≥ `key` (wrapping).
    pub fn successor(&self, key: u64) -> u64 {
        let ids = &self.alive_ids;
        debug_assert!(!ids.is_empty());
        match ids.binary_search(&key) {
            Ok(i) => ids[i],
            Err(i) if i == ids.len() => ids[0],
            Err(i) => ids[i],
        }
    }

    /// Slot in [`Self::alive_ids`] of [`Self::successor`]`(key)`.
    fn successor_slot(&self, key: u64) -> usize {
        match self.alive_ids.binary_search(&key) {
            Ok(i) => i,
            Err(i) if i == self.alive_ids.len() => 0,
            Err(i) => i,
        }
    }

    /// The alive node immediately clockwise of `node` (its successor link).
    pub fn succ_of(&self, node: u64) -> u64 {
        self.successor(node.wrapping_add(1))
    }

    /// The alive node immediately counter-clockwise of `node`.
    pub fn pred_of(&self, node: u64) -> u64 {
        let ids = &self.alive_ids;
        match ids.binary_search(&node) {
            // dhs-lint: allow(panic_hygiene) — invariant: ring construction
            // guarantees at least one node.
            Ok(0) | Err(0) => *ids.last().expect("non-empty ring"),
            Ok(i) => ids[i - 1],
            Err(i) => ids[i - 1],
        }
    }

    /// A uniformly random alive node.
    pub fn random_alive(&self, rng: &mut impl Rng) -> u64 {
        self.alive_ids[rng.gen_range(0..self.alive_ids.len())]
    }

    /// Route from node `from` to the owner of `key` with Chord greedy
    /// finger routing, charging one hop per routing step (and recording
    /// each intermediate delivery as a visit). Returns the owner.
    ///
    /// A `from` that is not alive (a crashed node, or any identifier)
    /// routes from its position on the circle: its successor link is the
    /// first alive node clockwise of it, and that node is the first hop
    /// unless a finger goes further.
    pub fn route(&self, from: u64, key: u64, ledger: &mut CostLedger) -> u64 {
        let ids = &self.alive_ids;
        let owner = self.successor(key);
        let mut cur = from;
        // Slot of `cur`'s successor link. The one search, from `from + 1`,
        // is right whether or not `from` is alive; after a hop `cur` is the
        // alive node at some slot `s`, whose successor is slot `s + 1`.
        let mut succ_slot = self.successor_slot(from.wrapping_add(1));
        // Safety valve: greedy Chord terminates in ≤ 64 finger jumps.
        for _ in 0..128 {
            if cur == owner {
                return cur;
            }
            // If the key falls between us and our successor, the successor
            // is the owner: final hop.
            let succ = ids[succ_slot];
            if cw_contains(cur, succ, key) {
                ledger.charge_hops(1);
                ledger.record_visit(succ);
                return succ;
            }
            // Closest preceding finger: the largest j with
            // successor(cur + 2^j) still strictly between us and the key.
            let dist = key.wrapping_sub(cur);
            let mut next_slot = succ_slot; // fallback: always progresses
            let max_j = 63 - dist.leading_zeros().min(63);
            for j in (0..=max_j).rev() {
                let slot = self.successor_slot(cur.wrapping_add(1u64 << j));
                let finger = ids[slot];
                if finger != cur && cw_contains(cur, key.wrapping_sub(1), finger) {
                    next_slot = slot;
                    break;
                }
            }
            cur = ids[next_slot];
            ledger.charge_hops(1);
            ledger.record_visit(cur);
            succ_slot = if next_slot + 1 == ids.len() {
                0
            } else {
                next_slot + 1
            };
        }
        unreachable!("greedy Chord routing failed to converge");
    }

    /// Store a record at `node` under the application key `app_key`.
    ///
    /// `node` must be alive. Re-storing an existing `app_key` refreshes
    /// the record in place (soft-state refresh).
    pub fn store_at(&mut self, node: u64, app_key: u64, record: StoredRecord) {
        // dhs-lint: allow(panic_hygiene) — invariant: callers pass ids owned
        // by this ring.
        let state = self.nodes.get_mut(&node).expect("unknown node");
        assert!(state.alive, "cannot store at a failed node");
        state.store.put(app_key, record);
    }

    /// Read a live (non-expired) record from `node`; `None` if the node is
    /// failed, unknown, or holds no live record for `app_key`.
    pub fn get_at(&self, node: u64, app_key: u64) -> Option<&StoredRecord> {
        let state = self.nodes.get(&node)?;
        if !state.alive {
            return None;
        }
        state.store.get(app_key, self.now)
    }

    /// Direct read-only access to a node's store (experiments and
    /// handoff); `None` for unknown nodes.
    pub fn store_of(&self, node: u64) -> Option<&NodeStore> {
        self.nodes.get(&node).map(|n| &n.store)
    }

    /// Mutable access to a node's state (crate-internal: churn handoff).
    pub(crate) fn node_mut(&mut self, node: u64) -> Option<&mut NodeState> {
        self.nodes.get_mut(&node)
    }

    /// Insert a brand-new node record (crate-internal: churn join).
    pub(crate) fn insert_node(&mut self, id: u64, state: NodeState) {
        let pos = self
            .alive_ids
            .binary_search(&id)
            .expect_err("node id already present");
        self.alive_ids.insert(pos, id);
        self.nodes.insert(id, state);
    }

    /// Re-insert an existing node id into the alive view at `pos`
    /// (crate-internal: churn revive).
    pub(crate) fn insert_alive(&mut self, pos: usize, id: u64) {
        self.alive_ids.insert(pos, id);
    }

    /// Remove `id` from the alive view (crate-internal: churn).
    pub(crate) fn remove_alive(&mut self, id: u64) {
        if let Ok(pos) = self.alive_ids.binary_search(&id) {
            self.alive_ids.remove(pos);
        }
    }

    /// Expire old records everywhere; returns the number dropped.
    pub fn sweep_all(&mut self) -> usize {
        let now = self.now;
        self.nodes.values_mut().map(|n| n.store.sweep(now)).sum()
    }

    /// Storage-load summary (live bytes per alive node).
    pub fn storage_summary(&self) -> LoadSummary {
        let now = self.now;
        LoadSummary::from_counts(
            self.alive_ids
                .iter()
                .map(|id| self.nodes[id].store.live_bytes(now)),
        )
    }

    /// Total live stored bytes across alive nodes.
    pub fn total_live_bytes(&self) -> u64 {
        let now = self.now;
        self.alive_ids
            .iter()
            .map(|id| self.nodes[id].store.live_bytes(now))
            .sum()
    }
}

impl crate::overlay::Overlay for Ring {
    fn node_count(&self) -> usize {
        self.len_alive()
    }

    fn time(&self) -> u64 {
        self.now()
    }

    fn owner_of(&self, key: u64) -> u64 {
        self.successor(key)
    }

    fn route(&self, from: u64, key: u64, ledger: &mut CostLedger) -> u64 {
        Ring::route(self, from, key, ledger)
    }

    fn next_node(&self, node: u64) -> u64 {
        self.succ_of(node)
    }

    fn prev_node(&self, node: u64) -> u64 {
        self.pred_of(node)
    }

    fn put_at(&mut self, node: u64, app_key: u64, record: StoredRecord) {
        self.store_at(node, app_key, record);
    }

    fn fetch_at(&self, node: u64, app_key: u64) -> Option<StoredRecord> {
        self.get_at(node, app_key).copied()
    }

    fn any_node(&self, rng: &mut impl rand::Rng) -> u64 {
        self.random_alive(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: usize, seed: u64) -> Ring {
        let mut rng = StdRng::seed_from_u64(seed);
        Ring::build(n, RingConfig::default(), &mut rng)
    }

    #[test]
    fn build_is_deterministic() {
        let a = ring(64, 1);
        let b = ring(64, 1);
        assert_eq!(a.alive_ids(), b.alive_ids());
        assert_ne!(a.alive_ids(), ring(64, 2).alive_ids());
    }

    #[test]
    fn successor_wraps_and_matches_linear_scan() {
        let r = ring(50, 3);
        let ids = r.alive_ids().to_vec();
        for key in [0u64, 1, u64::MAX, ids[0], ids[10], ids[10] + 1] {
            let expected = ids.iter().copied().find(|&id| id >= key).unwrap_or(ids[0]);
            assert_eq!(r.successor(key), expected, "key {key}");
        }
    }

    #[test]
    fn succ_pred_are_inverse() {
        let r = ring(40, 4);
        for &id in r.alive_ids() {
            assert_eq!(r.pred_of(r.succ_of(id)), id);
            assert_eq!(r.succ_of(r.pred_of(id)), id);
        }
    }

    #[test]
    fn succ_of_last_wraps_to_first() {
        let r = ring(10, 5);
        let ids = r.alive_ids();
        assert_eq!(r.succ_of(*ids.last().unwrap()), ids[0]);
        assert_eq!(r.pred_of(ids[0]), *ids.last().unwrap());
    }

    #[test]
    fn route_reaches_owner_from_everywhere() {
        let r = ring(128, 6);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let from = r.random_alive(&mut rng);
            let key: u64 = rng.gen();
            let mut ledger = CostLedger::new();
            let got = r.route(from, key, &mut ledger);
            assert_eq!(got, r.successor(key));
        }
    }

    #[test]
    fn route_hops_are_logarithmic() {
        let r = ring(1024, 7);
        let mut rng = StdRng::seed_from_u64(10);
        let mut total = 0u64;
        let trials = 500;
        for _ in 0..trials {
            let from = r.random_alive(&mut rng);
            let key: u64 = rng.gen();
            let mut ledger = CostLedger::new();
            r.route(from, key, &mut ledger);
            total += ledger.hops();
        }
        let avg = total as f64 / f64::from(trials);
        // Chord expectation: ~0.5·log2(N) = 5 for N = 1024.
        assert!((3.0..8.0).contains(&avg), "avg hops {avg}");
    }

    #[test]
    fn route_to_own_key_is_free() {
        let r = ring(32, 8);
        let id = r.alive_ids()[0];
        let mut ledger = CostLedger::new();
        // The node owns its own identifier.
        assert_eq!(r.route(id, id, &mut ledger), id);
        assert_eq!(ledger.hops(), 0);
    }

    #[test]
    fn single_node_ring_owns_everything() {
        let r = ring(1, 11);
        let id = r.alive_ids()[0];
        assert_eq!(r.successor(0), id);
        assert_eq!(r.successor(u64::MAX), id);
        assert_eq!(r.succ_of(id), id);
        assert_eq!(r.pred_of(id), id);
        let mut ledger = CostLedger::new();
        assert_eq!(r.route(id, 12345, &mut ledger), id);
        assert_eq!(ledger.hops(), 0);
    }

    #[test]
    fn storage_roundtrip_with_ttl() {
        let mut r = ring(8, 12);
        let node = r.alive_ids()[3];
        r.store_at(
            node,
            77,
            StoredRecord {
                expires_at: 100,
                size_bytes: 8,
                routing_key: 77,
            },
        );
        assert!(r.get_at(node, 77).is_some());
        r.advance_time(100);
        assert!(r.get_at(node, 77).is_none(), "expired at its deadline");
        assert_eq!(r.sweep_all(), 1);
    }

    #[test]
    fn storage_summary_counts_live_bytes() {
        let mut r = ring(4, 13);
        let ids = r.alive_ids().to_vec();
        for (i, &id) in ids.iter().enumerate() {
            r.store_at(
                id,
                i as u64,
                StoredRecord {
                    expires_at: u64::MAX,
                    size_bytes: 10,
                    routing_key: 0,
                },
            );
        }
        let s = r.storage_summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 10.0);
        assert_eq!(r.total_live_bytes(), 40);
    }

    #[test]
    fn node_ids_nearly_uniform_on_circle() {
        // Max gap between consecutive ids of a 4096-node ring should be
        // within ~a few times the mean gap times ln(n).
        let r = ring(4096, 14);
        let ids = r.alive_ids();
        let mut max_gap = u64::MAX - ids[ids.len() - 1] + ids[0] + 1;
        for w in ids.windows(2) {
            max_gap = max_gap.max(w[1] - w[0]);
        }
        let mean_gap = u64::MAX / 4096;
        assert!(
            max_gap < mean_gap.saturating_mul(20),
            "max gap {max_gap} vs mean {mean_gap}"
        );
    }

    /// The element of `items` that `pick` selects (uniform enough for tests).
    fn nth(items: &[u64], pick: u64) -> u64 {
        items[usize::try_from(pick % items.len() as u64).unwrap()]
    }

    /// The per-hop formulation of greedy Chord routing that `route` must
    /// reproduce: the successor link is a `succ_of` search and every
    /// finger tried is a `successor(cur + 2^j)` search on identifiers.
    /// Returns the owner and the nodes delivered to, in hop order.
    fn oracle_route(r: &Ring, from: u64, key: u64) -> (u64, Vec<u64>) {
        let owner = r.successor(key);
        let mut cur = from;
        let mut path = Vec::new();
        for _ in 0..128 {
            if cur == owner {
                return (cur, path);
            }
            let succ = r.succ_of(cur);
            if cw_contains(cur, succ, key) {
                path.push(succ);
                return (succ, path);
            }
            let dist = key.wrapping_sub(cur);
            let mut next = succ;
            let max_j = 63 - dist.leading_zeros().min(63);
            for j in (0..=max_j).rev() {
                let finger = r.successor(cur.wrapping_add(1u64 << j));
                if finger != cur && cw_contains(cur, key.wrapping_sub(1), finger) {
                    next = finger;
                    break;
                }
            }
            path.push(next);
            cur = next;
        }
        panic!("oracle routing failed to converge");
    }

    /// The nodes `route` from `from` for `key` delivers to, in hop order.
    fn route_path(r: &Ring, from: u64, key: u64) -> Vec<u64> {
        let mut ledger = CostLedger::new();
        r.route(from, key, &mut ledger);
        ledger.visit_log
    }

    /// `route` from `from` agrees with the oracle on the owner, the hop
    /// count and the in-order path.
    fn assert_route_matches_oracle(r: &Ring, from: u64, key: u64) {
        let (owner, path) = oracle_route(r, from, key);
        let mut ledger = CostLedger::new();
        assert_eq!(r.route(from, key, &mut ledger), owner);
        assert_eq!(ledger.hops(), path.len() as u64);
        assert_eq!(ledger.visit_log, path, "from {from:#x} key {key:#x}");
    }

    /// Apply `ops` as crash / leave / join / revive events (each keeps at
    /// least one node alive); returns the identifiers no longer alive.
    fn churn(r: &mut Ring, ops: &[(u8, u64)]) -> Vec<u64> {
        let mut gone = Vec::new();
        for &(kind, pick) in ops {
            let alive = r.alive_ids();
            let victim = nth(alive, pick);
            match kind {
                0 if alive.len() > 1 => {
                    r.fail_node(victim);
                    gone.push(victim);
                }
                1 if alive.len() > 1 => {
                    r.graceful_leave(victim);
                    gone.push(victim);
                }
                2 if r.store_of(pick).is_none() => r.join(pick),
                3 if !gone.is_empty() => {
                    let back = nth(&gone, pick);
                    gone.retain(|&id| id != back);
                    r.revive_node(back);
                }
                _ => {}
            }
        }
        gone
    }

    proptest! {
        /// Slot-space routing is the per-hop search formulation: same
        /// owner, hops and path, from every alive start.
        #[test]
        fn route_matches_per_hop_oracle(seed in any::<u64>(), n in 1usize..300, keys in prop::collection::vec((any::<u64>(), any::<u64>()), 1..16)) {
            let r = ring(n, seed);
            for (pick, key) in keys {
                let from = nth(r.alive_ids(), pick);
                assert_route_matches_oracle(&r, from, key);
                // Keys at and next to node ids exercise the ownership edges.
                assert_route_matches_oracle(&r, from, from.wrapping_add(1));
                assert_route_matches_oracle(&r, from, r.successor(key));
            }
        }

        /// The same after crashes, leaves, joins and revivals, and also
        /// from starts that are not alive: crashed or departed nodes and
        /// arbitrary identifiers route from their position on the circle.
        #[test]
        fn route_matches_oracle_after_churn(seed in any::<u64>(), n in 2usize..120, ops in prop::collection::vec((0u8..4, any::<u64>()), 0..40), keys in prop::collection::vec((any::<u64>(), any::<u64>()), 1..12)) {
            let mut r = ring(n, seed);
            let gone = churn(&mut r, &ops);
            for &id in r.alive_ids() {
                prop_assert_eq!(r.pred_of(r.succ_of(id)), id);
            }
            for (pick, key) in keys {
                let from = nth(r.alive_ids(), pick);
                assert_route_matches_oracle(&r, from, key);
                assert_route_matches_oracle(&r, pick, key);
                for &dead in &gone {
                    if !r.is_alive(dead) {
                        assert_route_matches_oracle(&r, dead, key);
                    }
                }
            }
        }
    }

    /// A crashed node that still routes does so from its identifier: its
    /// successor link is the first alive node after it, so a key owned by
    /// that node costs one hop to it — the node is not skipped.
    #[test]
    fn route_from_a_crashed_node_starts_at_its_successor_link() {
        let mut r = ring(64, 21);
        let ids = r.alive_ids().to_vec();
        let (dead, next) = (ids[10], ids[11]);
        r.fail_node(dead);
        assert!(!r.is_alive(dead));
        assert_eq!(route_path(&r, dead, next), vec![next]);
        assert_eq!(
            route_path(&r, dead, dead),
            vec![next],
            "its own id now belongs to the successor"
        );
        // Far keys match the per-hop formulation too.
        for key in [ids[40], ids[9], ids[0].wrapping_sub(1), u64::MAX] {
            assert_route_matches_oracle(&r, dead, key);
        }
        // An identifier that never was a node behaves the same way.
        let between = ids[20] + (ids[21] - ids[20]) / 2;
        assert_eq!(route_path(&r, between, ids[21]), vec![ids[21]]);
    }
}
