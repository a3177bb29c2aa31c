//! An LRU route cache over any [`Overlay`] (`dhs-fast` layer 2).
//!
//! Chord resolves a key in `O(log N)` hops, and DHS pays that price on
//! every insertion and every interval lookup. But ownership is coarse:
//! one lookup to owner `s` teaches the requester the whole ownership
//! range `(pred(s), s]` — Chord lookup replies carry the owner's
//! predecessor precisely so callers can cache it. [`CachedOverlay`]
//! exploits that: it remembers recent `(pred, owner]` resolutions and
//! answers later lookups that fall inside a cached range with a single
//! direct hop to the cached owner.
//!
//! Staleness is handled the way a real deployment handles it: the cached
//! owner is *contacted* (one hop) and either confirms it still owns the
//! key or the requester falls back to a full routed lookup. The
//! simulator models the confirm/redirect with an authoritative
//! [`Overlay::owner_of`] check, so a cached lookup can **never** return
//! a node that no longer owns the key — joins that split a cached range
//! and departures of a cached owner are both caught, the entry is
//! evicted, and the full route re-primes the cache. Explicit
//! [`CachedOverlay::invalidate_node`] hook lets churn-aware callers drop
//! entries eagerly instead of paying the one-hop stale contact.
//!
//! Because `owner_of` stays authoritative (it never consults the cache),
//! everything *stored or fetched* through a `CachedOverlay` lands exactly
//! where it would on the bare overlay — the cache can only change hop
//! and message counts, never placement, which is what keeps DHS stored
//! state and estimates byte-identical with the cache on or off.

use std::cell::RefCell;

use rand::Rng;

use dhs_obs::{names, Recorder};

use crate::cost::CostLedger;
use crate::id::cw_contains;
use crate::overlay::Overlay;
use crate::storage::StoredRecord;

/// Hit/miss/eviction counters of a [`RouteCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Lookups answered from a cached ownership range (one direct hop).
    pub hits: u64,
    /// Lookups that fell through to a full routed lookup.
    pub misses: u64,
    /// Cached entries dropped because the contacted owner no longer
    /// owned the key (departed, or a join split its range).
    pub stale_evictions: u64,
    /// Entries dropped through [`RouteCache::invalidate_node`].
    pub invalidations: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Predecessor of `owner` at caching time: the cached claim is
    /// "`owner` owns `(pred, owner]`".
    pred: u64,
    owner: u64,
    last_used: u64,
}

/// A fixed-capacity LRU map from key ranges to their resolved owners.
///
/// Capacity is small ([`Self::DEFAULT_CAPACITY`]) and lookups are a
/// linear scan — deterministic, allocation-free after construction, and
/// far below the cost of even one routing hop at these sizes.
#[derive(Debug, Clone)]
pub struct RouteCache {
    entries: Vec<Entry>,
    tick: u64,
    stats: RouteCacheStats,
}

impl RouteCache {
    /// Entry capacity.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// An empty cache holding at most [`Self::DEFAULT_CAPACITY`]
    /// ownership ranges.
    pub fn new() -> Self {
        RouteCache {
            entries: Vec::with_capacity(Self::DEFAULT_CAPACITY),
            tick: 0,
            stats: RouteCacheStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> RouteCacheStats {
        self.stats
    }

    /// Number of cached ranges.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached owner whose range contains `key`, if any (refreshes its
    /// LRU position; does not count a hit — the caller decides whether
    /// the candidate validates).
    fn candidate(&mut self, key: u64) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let hit = self
            .entries
            .iter_mut()
            .find(|e| cw_contains(e.pred, e.owner, key))?;
        hit.last_used = tick;
        Some(hit.owner)
    }

    /// Cache "`owner` owns `(pred, owner]`", evicting the least recently
    /// used entry when full. A stale entry for the same owner is replaced.
    fn insert(&mut self, pred: u64, owner: u64) {
        self.tick += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.owner == owner) {
            e.pred = pred;
            e.last_used = self.tick;
            return;
        }
        if self.entries.len() == Self::DEFAULT_CAPACITY {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i);
            if let Some(lru) = lru {
                self.entries.swap_remove(lru);
            }
        }
        self.entries.push(Entry {
            pred,
            owner,
            last_used: self.tick,
        });
    }

    /// Drop the entry claiming `owner` as an owner, counting a stale
    /// eviction.
    fn evict_stale(&mut self, owner: u64) {
        if let Some(i) = self.entries.iter().position(|e| e.owner == owner) {
            self.entries.swap_remove(i);
            self.stats.stale_evictions += 1;
        }
    }

    /// Churn hook: drop every entry that names `node` as owner *or* as the
    /// range predecessor (a departed predecessor widens the successor's
    /// true range, so the cached range boundary is wrong too).
    pub fn invalidate_node(&mut self, node: u64) {
        let before = self.entries.len();
        self.entries.retain(|e| e.owner != node && e.pred != node);
        self.stats.invalidations += (before - self.entries.len()) as u64;
    }
}

impl Default for RouteCache {
    fn default() -> Self {
        RouteCache::new()
    }
}

/// An [`Overlay`] wrapper that serves routed lookups from a [`RouteCache`]
/// when possible. See the module docs for the staleness contract.
#[derive(Debug)]
pub struct CachedOverlay<O> {
    inner: O,
    cache: RefCell<RouteCache>,
}

impl<O: Overlay> CachedOverlay<O> {
    /// Wrap `inner` with an empty route cache.
    pub fn new(inner: O) -> Self {
        CachedOverlay {
            inner,
            cache: RefCell::new(RouteCache::new()),
        }
    }

    /// The wrapped overlay.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// The wrapped overlay, mutably (churn operations go here; pair them
    /// with [`Self::invalidate_node`] or rely on the stale-contact
    /// fallback).
    pub fn inner_mut(&mut self) -> &mut O {
        &mut self.inner
    }

    /// Unwrap into the overlay and the cache.
    pub fn into_parts(self) -> (O, RouteCache) {
        (self.inner, self.cache.into_inner())
    }

    /// Cache counters so far.
    pub fn cache_stats(&self) -> RouteCacheStats {
        self.cache.borrow().stats()
    }

    /// Churn hook: forget every cached range involving `node`.
    pub fn invalidate_node(&self, node: u64) {
        self.cache.borrow_mut().invalidate_node(node);
    }
}

impl<O: Overlay> Overlay for CachedOverlay<O> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn time(&self) -> u64 {
        self.inner.time()
    }

    /// Authoritative — never consults the cache, so placement decisions
    /// made through a `CachedOverlay` match the bare overlay exactly.
    fn owner_of(&self, key: u64) -> u64 {
        self.inner.owner_of(key)
    }

    fn route(&self, from: u64, key: u64, ledger: &mut CostLedger) -> u64 {
        let candidate = self.cache.borrow_mut().candidate(key);
        if let Some(owner) = candidate {
            if self.inner.owner_of(key) == owner {
                // Confirmed: one direct hop to the cached owner (free when
                // the requester is the owner, like a converged self-route).
                let mut cache = self.cache.borrow_mut();
                cache.stats.hits += 1;
                if owner != from {
                    ledger.charge_hops(1);
                    ledger.record_visit(owner);
                }
                return owner;
            }
            // Stale: the contact cost one hop and got a redirect (or a
            // timeout from a departed node); evict and fall through.
            ledger.charge_hops(1);
            self.cache.borrow_mut().evict_stale(owner);
        }
        let owner = self.inner.route(from, key, ledger);
        let pred = self.inner.prev_node(owner);
        {
            let mut cache = self.cache.borrow_mut();
            cache.stats.misses += 1;
            cache.insert(pred, owner);
        }
        owner
    }

    fn route_observed(
        &self,
        from: u64,
        key: u64,
        ledger: &mut CostLedger,
        obs: &mut dyn Recorder,
    ) -> u64 {
        let before = self.cache_stats();
        let hops_before = ledger.hops();
        let owner = self.route(from, key, ledger);
        obs.observe(names::ROUTE_HOPS, ledger.hops() - hops_before);
        let after = self.cache_stats();
        obs.incr(names::ROUTE_CACHE_HIT, after.hits - before.hits);
        obs.incr(names::ROUTE_CACHE_MISS, after.misses - before.misses);
        obs.incr(
            names::ROUTE_CACHE_STALE,
            after.stale_evictions - before.stale_evictions,
        );
        owner
    }

    fn next_node(&self, node: u64) -> u64 {
        self.inner.next_node(node)
    }

    fn prev_node(&self, node: u64) -> u64 {
        self.inner.prev_node(node)
    }

    fn put_at(&mut self, node: u64, app_key: u64, record: StoredRecord) {
        self.inner.put_at(node, app_key, record);
    }

    fn fetch_at(&self, node: u64, app_key: u64) -> Option<StoredRecord> {
        self.inner.fetch_at(node, app_key)
    }

    fn any_node(&self, rng: &mut impl Rng) -> u64 {
        self.inner.any_node(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{Ring, RingConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: usize, seed: u64) -> Ring {
        let mut rng = StdRng::seed_from_u64(seed);
        Ring::build(n, RingConfig::default(), &mut rng)
    }

    #[test]
    fn repeat_lookups_hit_and_cost_one_hop() {
        let overlay = CachedOverlay::new(ring(256, 1));
        let from = overlay.inner().alive_ids()[0];
        let key = 0xDEAD_BEEF_CAFE_F00Du64;

        let mut ledger = CostLedger::new();
        let first = overlay.route(from, key, &mut ledger);
        assert_eq!(first, overlay.inner().successor(key));
        let cold_hops = ledger.hops();

        let mut ledger = CostLedger::new();
        let second = overlay.route(from, key, &mut ledger);
        assert_eq!(second, first);
        assert_eq!(ledger.hops(), 1, "warm lookup is one direct hop");
        assert!(cold_hops >= 1);
        let stats = overlay.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn nearby_keys_share_a_cached_range() {
        let overlay = CachedOverlay::new(ring(64, 2));
        let from = overlay.inner().alive_ids()[0];
        let owner_id = overlay.inner().alive_ids()[10];
        let mut ledger = CostLedger::new();
        // Prime with the owner's own id, then look up another key in the
        // same ownership range.
        overlay.route(from, owner_id, &mut ledger);
        let pred = overlay.inner().pred_of(owner_id);
        let inside = pred.wrapping_add(1 + (owner_id.wrapping_sub(pred)) / 2);
        let mut warm = CostLedger::new();
        assert_eq!(overlay.route(from, inside, &mut warm), owner_id);
        assert_eq!(warm.hops(), 1);
        assert_eq!(overlay.cache_stats().hits, 1);
    }

    #[test]
    fn routes_match_bare_overlay_everywhere() {
        let bare = ring(128, 3);
        let overlay = CachedOverlay::new(bare.clone());
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..500 {
            let from = bare.random_alive(&mut rng);
            let key: u64 = rng.gen();
            let mut l1 = CostLedger::new();
            let mut l2 = CostLedger::new();
            assert_eq!(
                overlay.route(from, key, &mut l1),
                bare.route(from, key, &mut l2)
            );
        }
        let stats = overlay.cache_stats();
        assert!(stats.hits > 0, "a 500-draw workload must hit sometimes");
    }

    #[test]
    fn departed_owner_is_never_returned() {
        let mut overlay = CachedOverlay::new(ring(64, 4));
        let from = overlay.inner().alive_ids()[0];
        let victim = overlay.inner().alive_ids()[20];
        let mut ledger = CostLedger::new();
        // Cache the victim's range, then fail the victim.
        overlay.route(from, victim, &mut ledger);
        overlay.inner_mut().fail_node(victim);
        let got = overlay.route(from, victim, &mut ledger);
        assert_ne!(got, victim);
        assert_eq!(got, overlay.inner().successor(victim));
        assert_eq!(overlay.cache_stats().stale_evictions, 1);
    }

    #[test]
    fn join_splitting_a_range_is_caught() {
        let mut overlay = CachedOverlay::new(ring(32, 5));
        let from = overlay.inner().alive_ids()[0];
        let owner = overlay.inner().alive_ids()[7];
        let pred = overlay.inner().pred_of(owner);
        let mid = pred.wrapping_add((owner.wrapping_sub(pred)) / 2);
        let key = pred.wrapping_add(1);
        let mut ledger = CostLedger::new();
        assert_eq!(overlay.route(from, key, &mut ledger), owner);
        // A newcomer takes over (pred, mid]; the cached range is stale.
        overlay.inner_mut().join(mid);
        assert_eq!(overlay.route(from, key, &mut ledger), mid);
        assert_eq!(overlay.cache_stats().stale_evictions, 1);
    }

    #[test]
    fn invalidate_node_drops_owner_and_pred_entries() {
        let overlay = CachedOverlay::new(ring(32, 6));
        let from = overlay.inner().alive_ids()[0];
        let a = overlay.inner().alive_ids()[3];
        let b = overlay.inner().next_node(a);
        let mut ledger = CostLedger::new();
        overlay.route(from, a, &mut ledger); // entry (pred(a), a]
        overlay.route(from, b, &mut ledger); // entry (a, b]
        overlay.invalidate_node(a);
        let stats = overlay.cache_stats();
        assert_eq!(stats.invalidations, 2, "both entries name node a");
        let mut warm = CostLedger::new();
        overlay.route(from, b, &mut warm);
        assert!(warm.hops() > 0 || b == from, "entry was really gone");
    }

    #[test]
    fn lru_evicts_oldest_range() {
        let mut cache = RouteCache::new();
        let cap = RouteCache::DEFAULT_CAPACITY as u64;
        for i in 0..cap {
            cache.insert(10 * i, 10 * i + 10);
        }
        assert!(cache.candidate(5).is_some()); // touches (0, 10]
        cache.insert(10 * cap, 10 * cap + 10); // evicts (10, 20]
        assert_eq!(cache.len(), RouteCache::DEFAULT_CAPACITY);
        assert!(cache.candidate(15).is_none(), "LRU entry evicted");
        assert!(cache.candidate(5).is_some());
        assert!(cache.candidate(10 * cap + 5).is_some());
    }

    #[test]
    fn single_node_ring_caches_full_circle() {
        let overlay = CachedOverlay::new(ring(1, 7));
        let only = overlay.inner().alive_ids()[0];
        let mut ledger = CostLedger::new();
        assert_eq!(overlay.route(only, 12345, &mut ledger), only);
        assert_eq!(overlay.route(only, 99999, &mut ledger), only);
        assert_eq!(ledger.hops(), 0, "self-routes stay free through the cache");
        assert_eq!(overlay.cache_stats().hits, 1);
    }
}
