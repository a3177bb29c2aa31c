//! Explicit Chord finger tables with stabilization.
//!
//! [`crate::ring::Ring::route`] models a *converged* overlay: every
//! routing step consults perfect (implicitly recomputed) fingers. Real
//! Chord nodes hold materialized finger tables and successor lists that
//! go **stale** under churn until the periodic `fix_fingers`/`stabilize`
//! protocol repairs them. This module materializes those tables so
//! experiments can measure what staleness costs:
//!
//! * [`FingerTables::build`] — converged tables for the current ring;
//! * [`FingerTables::route`] — greedy routing over the *stored* tables,
//!   pinging entries before use (a dead entry costs a hop and is
//!   skipped), falling back down the successor list;
//! * [`FingerTables::stabilize_node`] / [`FingerTables::stabilize_fraction`] — the
//!   repair protocol, chargeable per node.
//!
//! A lookup under stale tables can be *misdelivered*: it lands on the
//! node the stale view believes owns the key (e.g. when a recently
//! joined node took over part of the range). [`RouteOutcome`] reports
//! both the delivered node and whether it is the true current owner.

use std::collections::HashMap;

use rand::Rng;

use crate::cost::CostLedger;
use crate::id::cw_contains;
use crate::ring::Ring;

/// Number of successor-list entries each node maintains (Chord suggests
/// `O(log N)`; 8 is plenty for the overlay sizes simulated here).
pub const SUCCESSOR_LIST_LEN: usize = 8;

/// One node's materialized routing state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeFingers {
    /// `fingers[j] = successor(node + 2^j)` at build/stabilize time.
    pub fingers: Vec<u64>,
    /// The next `SUCCESSOR_LIST_LEN` nodes clockwise at build time.
    pub successors: Vec<u64>,
}

/// Outcome of routing over materialized tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// Delivered to the true current owner of the key.
    Delivered(u64),
    /// Delivered to a node the stale view believes is the owner, but the
    /// real owner differs (e.g. a newer join took the range).
    Misdelivered {
        /// Where the lookup landed.
        landed: u64,
        /// The true current owner.
        owner: u64,
    },
    /// Routing got stuck (every known successor of some hop is dead).
    Failed,
}

impl RouteOutcome {
    /// Whether the lookup reached the true owner.
    pub fn is_correct(&self) -> bool {
        matches!(self, RouteOutcome::Delivered(_))
    }
}

/// Materialized finger tables for every node of a ring snapshot.
#[derive(Debug, Clone)]
pub struct FingerTables {
    tables: HashMap<u64, NodeFingers>,
}

impl FingerTables {
    /// Build converged tables for every currently alive node.
    pub fn build(ring: &Ring) -> Self {
        let mut tables = HashMap::with_capacity(ring.len_alive());
        for &node in ring.alive_ids() {
            tables.insert(node, Self::compute_node(ring, node));
        }
        FingerTables { tables }
    }

    /// The converged table of one node under the *current* ring.
    fn compute_node(ring: &Ring, node: u64) -> NodeFingers {
        let fingers = (0..64)
            .map(|j| ring.successor(node.wrapping_add(1u64 << j)))
            .collect();
        let mut successors = Vec::with_capacity(SUCCESSOR_LIST_LEN);
        let mut cur = node;
        for _ in 0..SUCCESSOR_LIST_LEN {
            cur = ring.succ_of(cur);
            successors.push(cur);
            if cur == node {
                break; // tiny ring
            }
        }
        NodeFingers {
            fingers,
            successors,
        }
    }

    /// Re-run the stabilization protocol on one node: recompute its
    /// fingers and successor list from the current ring. Charges the
    /// `O(log N)` lookups the protocol performs (one per finger level
    /// that changed, at least one for the successor check).
    #[allow(clippy::cast_possible_truncation)]
    pub fn stabilize_node(&mut self, ring: &Ring, node: u64, ledger: &mut CostLedger) {
        let fresh = Self::compute_node(ring, node);
        let changed = match self.tables.get(&node) {
            Some(old) => {
                let finger_changes = old
                    .fingers
                    .iter()
                    .zip(&fresh.fingers)
                    .filter(|(a, b)| a != b)
                    .count() as u64;
                finger_changes.max(1)
            }
            None => 64,
        };
        // Each repaired entry costs one lookup's worth of hops.
        ledger.charge_hops(changed * (ring.len_alive().max(2) as f64).log2() as u64 / 2);
        ledger.charge_message(0);
        self.tables.insert(node, fresh);
    }

    /// Stabilize a random `fraction` of the alive nodes (one maintenance
    /// round). Returns how many nodes ran the protocol.
    pub fn stabilize_fraction(
        &mut self,
        ring: &Ring,
        fraction: f64,
        rng: &mut impl Rng,
        ledger: &mut CostLedger,
    ) -> usize {
        assert!((0.0..=1.0).contains(&fraction));
        let nodes: Vec<u64> = ring
            .alive_ids()
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(fraction))
            .collect();
        for &node in &nodes {
            self.stabilize_node(ring, node, ledger);
        }
        nodes.len()
    }

    /// Ensure every alive node has *some* table (new joiners bootstrap by
    /// stabilizing immediately; Chord join does this too).
    pub fn admit_joined(&mut self, ring: &Ring, ledger: &mut CostLedger) -> usize {
        let missing: Vec<u64> = ring
            .alive_ids()
            .iter()
            .copied()
            .filter(|n| !self.tables.contains_key(n))
            .collect();
        for &node in &missing {
            self.stabilize_node(ring, node, ledger);
        }
        missing.len()
    }

    /// Route from `from` to the believed owner of `key` using only the
    /// stored tables. Dead entries are detected on contact (one hop
    /// each) and skipped. Misdelivery and routing failure are reported,
    /// not panicked on.
    pub fn route(&self, ring: &Ring, from: u64, key: u64, ledger: &mut CostLedger) -> RouteOutcome {
        let true_owner = ring.successor(key);
        let mut cur = from;
        // Enough iterations for any monotone path plus dead-entry noise.
        for _ in 0..(4 * 64) {
            let Some(table) = self.tables.get(&cur) else {
                return RouteOutcome::Failed; // node has no table (never stabilized)
            };
            // First alive successor in the stored list.
            let mut alive_succ = None;
            for &s in &table.successors {
                if ring.is_alive(s) {
                    alive_succ = Some(s);
                    break;
                }
                // Pinging a dead successor costs a hop.
                ledger.charge_hops(ring.config().failed_contact_hops);
            }
            let Some(succ) = alive_succ else {
                return RouteOutcome::Failed;
            };
            // Believed delivery: the key falls between us and our (alive)
            // successor.
            if cw_contains(cur, succ, key) {
                ledger.charge_hops(1);
                ledger.record_visit(succ);
                return if succ == true_owner {
                    RouteOutcome::Delivered(succ)
                } else {
                    RouteOutcome::Misdelivered {
                        landed: succ,
                        owner: true_owner,
                    }
                };
            }
            // Closest preceding alive finger.
            let mut next = succ;
            for j in (0..64).rev() {
                let f = table.fingers[j];
                if f != cur && cw_contains(cur, key.wrapping_sub(1), f) {
                    if ring.is_alive(f) {
                        next = f;
                        break;
                    }
                    // Dead finger: detected on contact, try lower level.
                    ledger.charge_hops(ring.config().failed_contact_hops);
                }
            }
            ledger.charge_hops(1);
            ledger.record_visit(next);
            if next == cur {
                return RouteOutcome::Failed; // no progress possible
            }
            cur = next;
        }
        RouteOutcome::Failed
    }
}

/// A **read-only** overlay view that routes with (possibly stale)
/// materialized finger tables instead of the converged ring.
///
/// Lets read-side protocols — DHS counting in particular — run against a
/// churned-but-not-yet-stabilized overlay: lookups land wherever the
/// stale tables deliver them (possibly the wrong node, possibly nowhere),
/// while storage reads and ID-space neighbor links reflect the live ring.
///
/// Writes are not supported: [`Overlay::put_at`](crate::overlay::Overlay::put_at)
/// panics. Insert through
/// the [`Ring`] directly; wrap it in a `StaleView` only for querying.
#[derive(Debug, Clone, Copy)]
pub struct StaleView<'a> {
    ring: &'a Ring,
    tables: &'a FingerTables,
}

impl<'a> StaleView<'a> {
    /// Wrap a ring and a (possibly stale) table snapshot.
    pub fn new(ring: &'a Ring, tables: &'a FingerTables) -> Self {
        StaleView { ring, tables }
    }
}

impl crate::overlay::Overlay for StaleView<'_> {
    fn node_count(&self) -> usize {
        self.ring.len_alive()
    }

    fn time(&self) -> u64 {
        self.ring.now()
    }

    fn owner_of(&self, key: u64) -> u64 {
        self.ring.successor(key)
    }

    /// Route with the stale tables. A misdelivered lookup returns the node
    /// it *landed* on (the reader will simply not find data there); a
    /// failed lookup stays at `from`.
    fn route(&self, from: u64, key: u64, ledger: &mut CostLedger) -> u64 {
        match self.tables.route(self.ring, from, key, ledger) {
            RouteOutcome::Delivered(node) => node,
            RouteOutcome::Misdelivered { landed, .. } => landed,
            RouteOutcome::Failed => from,
        }
    }

    fn next_node(&self, node: u64) -> u64 {
        self.ring.succ_of(node)
    }

    fn prev_node(&self, node: u64) -> u64 {
        self.ring.pred_of(node)
    }

    fn put_at(&mut self, _node: u64, _app_key: u64, _record: crate::storage::StoredRecord) {
        unreachable!("StaleView is read-only: insert through the Ring, query through the view");
    }

    fn fetch_at(&self, node: u64, app_key: u64) -> Option<crate::storage::StoredRecord> {
        self.ring.get_at(node, app_key).copied()
    }

    fn any_node(&self, rng: &mut impl rand::Rng) -> u64 {
        self.ring.random_alive(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: usize, seed: u64) -> (Ring, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = Ring::build(n, RingConfig::default(), &mut rng);
        (r, rng)
    }

    #[test]
    fn fresh_tables_route_like_the_ideal_ring() {
        let (r, mut rng) = ring(128, 1);
        let tables = FingerTables::build(&r);
        for _ in 0..100 {
            let from = r.random_alive(&mut rng);
            let key: u64 = rng.gen();
            let mut l1 = CostLedger::new();
            let mut l2 = CostLedger::new();
            let outcome = tables.route(&r, from, key, &mut l1);
            let ideal = r.route(from, key, &mut l2);
            assert_eq!(outcome, RouteOutcome::Delivered(ideal));
            // Hop counts agree on a converged overlay.
            assert_eq!(l1.hops(), l2.hops());
        }
    }

    #[test]
    fn routing_survives_failures_with_extra_hops() {
        let (mut r, mut rng) = ring(256, 2);
        let tables = FingerTables::build(&r);
        r.fail_random(0.2, &mut rng);
        let mut correct = 0;
        let mut failed = 0;
        let trials = 200;
        for _ in 0..trials {
            let from = r.random_alive(&mut rng);
            let key: u64 = rng.gen();
            let mut ledger = CostLedger::new();
            match tables.route(&r, from, key, &mut ledger) {
                RouteOutcome::Delivered(_) => correct += 1,
                RouteOutcome::Misdelivered { .. } => {}
                RouteOutcome::Failed => failed += 1,
            }
        }
        // Successor lists of length 8 make total failure very unlikely at
        // 20% churn; most lookups still reach the true owner.
        assert!(failed <= trials / 50, "failed {failed}/{trials}");
        assert!(correct >= trials * 8 / 10, "correct {correct}/{trials}");
    }

    #[test]
    fn joins_cause_misdelivery_until_stabilized() {
        let (mut r, mut rng) = ring(64, 3);
        let mut tables = FingerTables::build(&r);
        // Many new nodes join; old tables don't know them.
        for _ in 0..64 {
            loop {
                let id: u64 = rng.gen();
                if r.store_of(id).is_none() {
                    r.join(id);
                    break;
                }
            }
        }
        let mut ledger = CostLedger::new();
        tables.admit_joined(&r, &mut ledger);
        let mut mis = 0;
        let trials = 300;
        for _ in 0..trials {
            // Route from an *old* node so its stale view is exercised.
            let from = *tables
                .tables
                .keys()
                .find(|n| r.is_alive(**n))
                .expect("old node alive");
            let key: u64 = rng.gen();
            let mut l = CostLedger::new();
            if !tables.route(&r, from, key, &mut l).is_correct() {
                mis += 1;
            }
        }
        assert!(mis > 0, "doubling the ring must misdeliver sometimes");

        // Full stabilization repairs everything.
        let mut l = CostLedger::new();
        for &node in r.alive_ids().to_vec().iter() {
            tables.stabilize_node(&r, node, &mut l);
        }
        assert!(l.hops() > 0, "stabilization costs hops");
        for _ in 0..100 {
            let from = r.random_alive(&mut rng);
            let key: u64 = rng.gen();
            let mut l = CostLedger::new();
            assert!(tables.route(&r, from, key, &mut l).is_correct());
        }
    }

    #[test]
    fn stabilize_fraction_repairs_progressively() {
        let (mut r, mut rng) = ring(128, 4);
        let mut tables = FingerTables::build(&r);
        r.fail_random(0.3, &mut rng);
        let error_rate = |tables: &FingerTables, rng: &mut StdRng| {
            let trials = 200;
            let mut bad = 0;
            for _ in 0..trials {
                let from = r.random_alive(rng);
                let key: u64 = rng.gen();
                let mut l = CostLedger::new();
                if !tables.route(&r, from, key, &mut l).is_correct() {
                    bad += 1;
                }
            }
            bad
        };
        let before_hops = {
            let mut total = 0;
            for _ in 0..100 {
                let from = r.random_alive(&mut rng);
                let key: u64 = rng.gen();
                let mut l = CostLedger::new();
                let _ = tables.route(&r, from, key, &mut l);
                total += l.hops();
            }
            total
        };
        let bad_before = error_rate(&tables, &mut rng);
        let mut ledger = CostLedger::new();
        tables.stabilize_fraction(&r, 1.0, &mut rng, &mut ledger);
        let bad_after = error_rate(&tables, &mut rng);
        assert!(bad_after <= bad_before);
        // And routing gets cheaper after repair (no dead-entry pings).
        let after_hops = {
            let mut total = 0;
            for _ in 0..100 {
                let from = r.random_alive(&mut rng);
                let key: u64 = rng.gen();
                let mut l = CostLedger::new();
                let _ = tables.route(&r, from, key, &mut l);
                total += l.hops();
            }
            total
        };
        assert!(after_hops <= before_hops, "{after_hops} > {before_hops}");
    }

    #[test]
    fn single_node_ring_tables() {
        let (r, mut rng) = ring(1, 5);
        let tables = FingerTables::build(&r);
        let only = r.alive_ids()[0];
        let mut l = CostLedger::new();
        let key: u64 = rng.gen();
        assert_eq!(
            tables.route(&r, only, key, &mut l),
            RouteOutcome::Delivered(only)
        );
    }
}
