//! DHS insertion (§3.2) and the protocol handle.
//!
//! To record an item with DHT key `o.id`:
//!
//! 1. take the `k` low-order bits, split them into a vector index
//!    (`lsb_k(o.id) mod m`) and a rank (`ρ(lsb_k(o.id) div m)`);
//! 2. choose a key uniformly at random in the rank's ID-space interval;
//! 3. route to its owner and store the tuple
//!    `<metric_id, vector_id, bit, time_out>` there (the owner keeps at
//!    most one tuple per `(metric, vector, bit)` — re-insertions refresh
//!    the timestamp);
//! 4. optionally replicate the tuple on the `R − 1` immediate successors
//!    (§3.5).
//!
//! A node with many items can group them by rank and bulk-insert each
//! group with a single lookup, touching at most `k` nodes per round
//! ([`Dhs::bulk_insert`]).

use rand::Rng;

use dhs_dht::cost::CostLedger;
use dhs_dht::overlay::Overlay;
use dhs_dht::storage::StoredRecord;
use dhs_obs::names;
use dhs_sketch::rho::{lsb, rho};

use crate::cast::checked_cast;
use crate::config::{ConfigError, DhsConfig};
use crate::fast::EpochCache;
use crate::intervals::interval_for_rank;
use crate::transport::{
    end_span, routed_send, start_span, with_retry, DirectTransport, MessageKind, Transport,
};
use crate::tuple::{DhsTuple, MetricId};

/// The DHS protocol handle: a validated configuration plus the insertion
/// and counting operations (counting lives in [`crate::count`]).
///
/// `Dhs` is stateless — all distributed state lives in the overlay — and
/// generic over any [`Overlay`] (Chord ring, Kademlia, …): the paper's
/// "DHT-agnostic" design, enforced by the type system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dhs {
    cfg: DhsConfig,
}

impl Dhs {
    /// Validate `cfg` and build a handle.
    pub fn new(cfg: DhsConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Dhs { cfg })
    }

    /// The configuration.
    pub fn config(&self) -> &DhsConfig {
        &self.cfg
    }

    /// Split an item's DHT key into `(vector, rank)` — the bitmap it
    /// updates and the bit position it sets.
    ///
    /// The rank saturates at the top storable position when the key's
    /// rank bits are all zero (probability `2^{−rank_bits}`).
    pub fn classify(&self, item_key: u64) -> (u16, u32) {
        let low = lsb(item_key, self.cfg.k);
        let vector: u16 = checked_cast(low & (self.cfg.m as u64 - 1));
        let rest = low >> self.cfg.bucket_bits();
        let rank = rho(rest).min(self.cfg.rank_bits() - 1);
        (vector, rank)
    }

    /// Record one item for `metric`, initiated by overlay node `origin`.
    ///
    /// Returns `false` when the item's bit position is below the
    /// configured `bit_shift` (the bit is implied, nothing is stored and
    /// nothing is charged); `true` otherwise.
    pub fn insert<O: Overlay>(
        &self,
        ring: &mut O,
        metric: MetricId,
        item_key: u64,
        origin: u64,
        rng: &mut impl Rng,
        ledger: &mut CostLedger,
    ) -> bool {
        self.insert_via(
            ring,
            &mut DirectTransport,
            metric,
            item_key,
            origin,
            rng,
            ledger,
        )
    }

    /// [`Self::insert`] over an explicit [`Transport`]: message delivery
    /// (latency, loss, retries) follows the transport; a store whose
    /// every attempt times out is silently lost, exactly like a dropped
    /// soft-state refresh in the paper's failure model (§3.5).
    #[allow(clippy::too_many_arguments)]
    pub fn insert_via<O: Overlay, T: Transport>(
        &self,
        ring: &mut O,
        transport: &mut T,
        metric: MetricId,
        item_key: u64,
        origin: u64,
        rng: &mut impl Rng,
        ledger: &mut CostLedger,
    ) -> bool {
        self.store_one(ring, transport, None, metric, item_key, origin, rng, ledger)
    }

    /// [`Self::insert`] with an origin-side [`EpochCache`]: a tuple this
    /// origin already stored in the current TTL epoch is elided outright —
    /// no routing key is drawn, no message is sent — because re-storing it
    /// could only refresh a timestamp that already outlives the epoch.
    ///
    /// Return value matches [`Self::insert`]: `false` only for bit-shift
    /// elision, `true` whenever the bit is (already) recorded.
    #[allow(clippy::too_many_arguments)]
    pub fn insert_cached<O: Overlay>(
        &self,
        ring: &mut O,
        cache: &mut EpochCache,
        metric: MetricId,
        item_key: u64,
        origin: u64,
        rng: &mut impl Rng,
        ledger: &mut CostLedger,
    ) -> bool {
        self.store_one(
            ring,
            &mut DirectTransport,
            Some(cache),
            metric,
            item_key,
            origin,
            rng,
            ledger,
        )
    }

    /// Record a batch of items for `metric`, grouping them by bit
    /// position so that each position costs a single lookup (§3.2's bulk
    /// insertion: "every node will need to contact at most k ≤ L nodes").
    ///
    /// Returns the number of tuples actually shipped (after per-group
    /// `(vector, bit)` deduplication and bit-shift elision).
    pub fn bulk_insert<O: Overlay>(
        &self,
        ring: &mut O,
        metric: MetricId,
        item_keys: &[u64],
        origin: u64,
        rng: &mut impl Rng,
        ledger: &mut CostLedger,
    ) -> usize {
        self.bulk_insert_via(
            ring,
            &mut DirectTransport,
            metric,
            item_keys,
            origin,
            rng,
            ledger,
        )
    }

    /// [`Self::bulk_insert`] over an explicit [`Transport`].
    #[allow(clippy::too_many_arguments)]
    pub fn bulk_insert_via<O: Overlay, T: Transport>(
        &self,
        ring: &mut O,
        transport: &mut T,
        metric: MetricId,
        item_keys: &[u64],
        origin: u64,
        rng: &mut impl Rng,
        ledger: &mut CostLedger,
    ) -> usize {
        self.store_many(
            ring, transport, None, metric, item_keys, origin, rng, ledger,
        )
    }

    /// [`Self::bulk_insert`] with an origin-side [`EpochCache`]: tuples
    /// already stored this epoch are dropped before grouping, so a hot
    /// batch costs at most one message per rank whose group has *new*
    /// tuples. Returns the number of tuples actually shipped.
    #[allow(clippy::too_many_arguments)]
    pub fn bulk_insert_cached<O: Overlay>(
        &self,
        ring: &mut O,
        cache: &mut EpochCache,
        metric: MetricId,
        item_keys: &[u64],
        origin: u64,
        rng: &mut impl Rng,
        ledger: &mut CostLedger,
    ) -> usize {
        self.store_many(
            ring,
            &mut DirectTransport,
            Some(cache),
            metric,
            item_keys,
            origin,
            rng,
            ledger,
        )
    }

    /// The one-item store body behind every `insert*` form. With a
    /// `cache`, a tuple it already holds is elided before any routing key
    /// is drawn; the cache is only marked when the store actually went
    /// through, so a lost store stays retryable.
    #[allow(clippy::too_many_arguments)]
    fn store_one<O: Overlay, T: Transport>(
        &self,
        ring: &mut O,
        transport: &mut T,
        mut cache: Option<&mut EpochCache>,
        metric: MetricId,
        item_key: u64,
        origin: u64,
        rng: &mut impl Rng,
        ledger: &mut CostLedger,
    ) -> bool {
        let (vector, rank) = self.classify(item_key);
        if rank < self.cfg.bit_shift {
            if let Some(r) = transport.recorder() {
                r.incr(names::OP_INSERT_ELIDED, 1);
            }
            return false;
        }
        if let Some(cache) = cache.as_deref_mut() {
            let hit = cache.probe(metric, vector, rank);
            if let Some(r) = transport.recorder() {
                let key = if hit {
                    names::CACHE_HIT
                } else {
                    names::CACHE_MISS
                };
                r.incr(key, 1);
            }
            if hit {
                return true;
            }
        }
        let tuple = DhsTuple {
            metric,
            vector,
            bit: checked_cast(rank),
        };
        let span = start_span(transport, names::SPAN_INSERT, u64::from(rank));
        let bytes_before = ledger.bytes();
        let groups = [(rank, vec![tuple])];
        let ok = self.store_groups_via(ring, transport, &groups, origin, rng, ledger);
        let bytes = ledger.bytes() - bytes_before;
        if let Some(r) = transport.recorder() {
            r.incr(names::OP_INSERT, 1);
            r.observe(names::OP_INSERT_BYTES, bytes);
        }
        end_span(transport, span);
        if let Some(cache) = cache {
            if ok[0] {
                cache.mark(metric, vector, rank);
            }
        }
        true
    }

    /// The many-items store body behind every `bulk_insert*` form and
    /// [`crate::maintenance`]'s refresh rounds: group by rank, dedup
    /// vectors inside each group, ship one routed store per group. With a
    /// `cache`, tuples it already holds are dropped before shipping and
    /// the stored ones are marked afterwards.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn store_many<O: Overlay, T: Transport>(
        &self,
        ring: &mut O,
        transport: &mut T,
        mut cache: Option<&mut EpochCache>,
        metric: MetricId,
        item_keys: &[u64],
        origin: u64,
        rng: &mut impl Rng,
        ledger: &mut CostLedger,
    ) -> usize {
        let span = start_span(transport, names::SPAN_BULK_INSERT, item_keys.len() as u64);
        let rank_count: usize = checked_cast(self.cfg.rank_bits());
        let mut groups: Vec<Vec<u16>> = vec![Vec::new(); rank_count];
        for &key in item_keys {
            let (vector, rank) = self.classify(key);
            if rank >= self.cfg.bit_shift {
                groups[checked_cast::<usize, _>(rank)].push(vector);
            }
        }
        let mut grouped = Self::rank_groups(metric, groups);
        let mut hits = 0u64;
        if let Some(cache) = cache.as_deref_mut() {
            for (rank, tuples) in &mut grouped {
                tuples.retain(|t| {
                    let hit = cache.probe(metric, t.vector, *rank);
                    hits += u64::from(hit);
                    !hit
                });
            }
            grouped.retain(|(_, tuples)| !tuples.is_empty());
        }
        let shipped = grouped.iter().map(|(_, t)| t.len()).sum::<usize>();
        if cache.is_some() {
            if let Some(r) = transport.recorder() {
                r.incr(names::CACHE_HIT, hits);
                r.incr(names::CACHE_MISS, shipped as u64);
            }
        }
        let ok = self.store_groups_via(ring, transport, &grouped, origin, rng, ledger);
        if let Some(cache) = cache {
            for (stored, (rank, tuples)) in ok.iter().zip(&grouped) {
                if *stored {
                    for t in tuples {
                        cache.mark(metric, t.vector, *rank);
                    }
                }
            }
        }
        if let Some(r) = transport.recorder() {
            r.incr(names::OP_BULK_INSERT, 1);
            r.incr(names::OP_BULK_INSERT_TUPLES, shipped as u64);
        }
        end_span(transport, span);
        shipped
    }

    /// Turn per-rank vector lists into sorted, deduplicated tuple groups
    /// in ascending rank order (the order whose routing-key draws define
    /// the insertion RNG stream).
    fn rank_groups(metric: MetricId, groups: Vec<Vec<u16>>) -> Vec<(u32, Vec<DhsTuple>)> {
        groups
            .into_iter()
            .enumerate()
            .filter(|(_, vectors)| !vectors.is_empty())
            .map(|(rank, mut vectors)| {
                vectors.sort_unstable();
                vectors.dedup();
                let tuples = vectors
                    .into_iter()
                    .map(|vector| DhsTuple {
                        metric,
                        vector,
                        bit: checked_cast(rank),
                    })
                    .collect();
                (checked_cast(rank), tuples)
            })
            .collect()
    }

    /// Store each `(rank, tuples)` group at a random key in the rank's
    /// interval, batching groups that resolve to the *same owner* into a
    /// single `MessageKind::Store` (per-message overhead is charged once
    /// per owner, not once per rank). Returns one success flag per group.
    ///
    /// This is both the body under every `insert*` / `bulk_insert*` form
    /// and the public seam external aggregation layers drive —
    /// `dhs-shard`'s cross-shard flush builds its per-rank groups and
    /// hands them here, inheriting routing, retry, batching, and cost
    /// accounting unchanged. Groups must be in the caller's canonical
    /// order (ascending rank, deduplicated tuples).
    ///
    /// Pass 1 draws every group's routing key in group order — the exact
    /// RNG stream of per-group stores — so batching changes message counts
    /// but never placement: each tuple lands on precisely the node (and
    /// replicas) it would have reached unbatched. Pass 2 serves the owners
    /// one after another in ascending identifier order: one routed store,
    /// the put, then the §3.5 successor chain. Each send goes through
    /// `transport` under its retry policy; every attempt re-routes and
    /// re-charges (the resent message crosses the wire again). A primary
    /// store that never gets through stores nothing; a lost replica leg
    /// breaks the successor forwarding chain at that point.
    pub fn store_groups_via<O: Overlay, T: Transport>(
        &self,
        ring: &mut O,
        transport: &mut T,
        groups: &[(u32, Vec<DhsTuple>)],
        origin: u64,
        rng: &mut impl Rng,
        ledger: &mut CostLedger,
    ) -> Vec<bool> {
        let cfg = &self.cfg;
        // Pass 1: per-group `(owner, group, routing_key)`, keys drawn in
        // caller (ascending-rank) order. Sorting then lines the groups up
        // by ascending owner, each owner's groups in caller order.
        let mut placements: Vec<(u64, usize, u64)> = groups
            .iter()
            .enumerate()
            .map(|(group, &(rank, _))| {
                let interval = interval_for_rank(cfg, rank);
                let routing_key = rng.gen_range(interval.lo..=interval.hi);
                (ring.owner_of(routing_key), group, routing_key)
            })
            .collect();
        placements.sort_unstable();
        // Pass 2: one store chain per distinct owner, over its run of
        // placements.
        let mut ok = vec![false; groups.len()];
        for members in placements.chunk_by(|a, b| a.0 == b.0) {
            let (owner, _, routing_key) = members[0];
            let tuple_count: u64 = members
                .iter()
                .map(|&(_, i, _)| groups[i].1.len() as u64)
                .sum();
            let payload = u64::from(DhsConfig::TUPLE_BYTES) * tuple_count;
            let route_span = start_span(transport, names::SPAN_ROUTE, tuple_count);
            let stored = routed_send(
                &*ring,
                transport,
                ledger,
                origin,
                routing_key,
                owner,
                MessageKind::Store,
                payload,
            );
            end_span(transport, route_span);
            // Every attempt timed out: these tuples are lost.
            let lost = stored.is_err();
            if let Some(r) = transport.recorder() {
                r.observe(names::BATCH_SIZE, tuple_count);
                if lost {
                    r.incr(names::OP_STORE_LOST, 1);
                }
            }
            if lost {
                continue;
            }
            for &(_, i, _) in members {
                ok[i] = true;
            }
            let expires_at = ring.time().saturating_add(cfg.ttl);
            let store_span = start_span(transport, names::SPAN_STORE, tuple_count);
            // Store every member group's tuples at `holder`.
            let put_members = |ring: &mut O, holder: u64| {
                for &(_, i, routing_key) in members {
                    let record = StoredRecord {
                        expires_at,
                        size_bytes: DhsConfig::TUPLE_BYTES,
                        routing_key,
                    };
                    for tuple in &groups[i].1 {
                        ring.put_at(holder, tuple.app_key(), record);
                    }
                }
            };
            // Replication round 0: the primary holder stores the batch;
            // each further round forwards it one successor along.
            let mut holder = owner;
            put_members(ring, holder);
            for _ in 1..cfg.replication {
                let next = ring.next_node(holder);
                if next == owner {
                    // Ring smaller than the replication degree.
                    break;
                }
                ledger.charge_hops(1);
                let forwarded = with_retry(transport, |t| {
                    t.exchange(holder, next, MessageKind::Store, payload, 0, ledger)
                });
                if forwarded.is_err() {
                    // Forwarding chain broken at this successor.
                    break;
                }
                holder = next;
                ledger.record_visit(holder);
                put_members(ring, holder);
            }
            end_span(transport, store_span);
        }
        ok
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // test data has known ranges
mod tests {
    use super::*;
    use crate::intervals::interval_for_rank;
    use dhs_dht::ring::{Ring, RingConfig};
    use dhs_sketch::{ItemHasher, SplitMix64};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_cfg() -> DhsConfig {
        DhsConfig {
            k: 20,
            m: 16,
            ..DhsConfig::default()
        }
    }

    fn setup(nodes: usize, seed: u64) -> (Ring, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ring = Ring::build(nodes, RingConfig::default(), &mut rng);
        (ring, rng)
    }

    #[test]
    fn classify_matches_local_sketch_rule() {
        let dhs = Dhs::new(small_cfg()).unwrap();
        // k = 20, m = 16 → vector = low 4 bits, rank = ρ of next 16 bits.
        let key = 0b1010_0000_0000_0100_0111u64; // low 4 = 0b0111 = 7
        let (vector, rank) = dhs.classify(key);
        assert_eq!(vector, 7);
        // Remaining 16 bits: 0b1010_0000_0000_0100 → ρ = 2.
        assert_eq!(rank, 2);
    }

    #[test]
    fn classify_saturates_on_zero_rank_bits() {
        let dhs = Dhs::new(small_cfg()).unwrap();
        // Low 20 bits: vector bits nonzero, rank bits all zero.
        let key = 0xFFF0_0000_0000_0005u64;
        let (vector, rank) = dhs.classify(key);
        assert_eq!(vector, 5);
        assert_eq!(rank, dhs.config().rank_bits() - 1, "saturated");
    }

    #[test]
    fn insert_places_tuple_at_interval_owner() {
        let (mut ring, mut rng) = setup(64, 1);
        let dhs = Dhs::new(small_cfg()).unwrap();
        let origin = ring.random_alive(&mut rng);
        let mut ledger = CostLedger::new();
        let item = 0xABCDEF12_34567890u64;
        let (vector, rank) = dhs.classify(item);
        assert!(dhs.insert(&mut ring, 9, item, origin, &mut rng, &mut ledger));

        // Exactly one node must hold the tuple, and its routing key must
        // lie in the rank's interval.
        let tuple = DhsTuple {
            metric: 9,
            vector,
            bit: rank as u8,
        };
        let holders: Vec<u64> = ring
            .alive_ids()
            .iter()
            .copied()
            .filter(|&node| ring.get_at(node, tuple.app_key()).is_some())
            .collect();
        assert_eq!(holders.len(), 1);
        let rec = ring.get_at(holders[0], tuple.app_key()).unwrap();
        let interval = interval_for_rank(dhs.config(), rank);
        assert!(interval.contains(rec.routing_key));
        assert_eq!(ring.successor(rec.routing_key), holders[0]);
    }

    #[test]
    fn insert_costs_logarithmic_hops_and_paper_bandwidth() {
        let (mut ring, mut rng) = setup(1024, 2);
        let dhs = Dhs::new(DhsConfig::default()).unwrap();
        let hasher = SplitMix64::default();
        let mut ledger = CostLedger::new();
        let n = 2000u64;
        for i in 0..n {
            let origin = ring.random_alive(&mut rng);
            dhs.insert(
                &mut ring,
                1,
                hasher.hash_u64(i),
                origin,
                &mut rng,
                &mut ledger,
            );
        }
        let avg_hops = ledger.hops() as f64 / n as f64;
        // Paper: ~3.4 hops average on 1024 nodes; Chord theory ≤ log2 N.
        assert!((2.0..7.0).contains(&avg_hops), "avg hops {avg_hops}");
        let avg_bytes = ledger.bytes() as f64 / n as f64;
        // 8-byte tuples × avg hops ⇒ tens of bytes (paper: ~27).
        assert!((10.0..60.0).contains(&avg_bytes), "avg bytes {avg_bytes}");
    }

    #[test]
    fn reinsertion_dedups_at_node() {
        let (mut ring, mut rng) = setup(32, 3);
        let dhs = Dhs::new(small_cfg()).unwrap();
        let origin = ring.alive_ids()[0];
        let mut ledger = CostLedger::new();
        let item = 42u64;
        for _ in 0..10 {
            dhs.insert(&mut ring, 1, item, origin, &mut rng, &mut ledger);
        }
        // The same (metric, vector, bit) may land on several nodes (the
        // routing key is random per insertion), but each node holds at
        // most one copy, so total copies ≤ 10 and per-node copies == 1.
        let (vector, rank) = dhs.classify(item);
        let tuple = DhsTuple {
            metric: 1,
            vector,
            bit: rank as u8,
        };
        let holders = ring
            .alive_ids()
            .iter()
            .filter(|&&node| ring.get_at(node, tuple.app_key()).is_some())
            .count();
        assert!((1..=10).contains(&holders));
        // Storage accounting says at most `holders` tuples exist.
        assert_eq!(ring.total_live_bytes(), holders as u64 * 8);
    }

    #[test]
    fn bit_shift_elides_low_bits() {
        let cfg = DhsConfig {
            bit_shift: 3,
            ..small_cfg()
        };
        let (mut ring, mut rng) = setup(32, 4);
        let dhs = Dhs::new(cfg).unwrap();
        let origin = ring.alive_ids()[0];
        let mut ledger = CostLedger::new();
        let hasher = SplitMix64::default();
        let mut stored = 0;
        let mut elided = 0;
        for i in 0..2000u64 {
            if dhs.insert(
                &mut ring,
                1,
                hasher.hash_u64(i),
                origin,
                &mut rng,
                &mut ledger,
            ) {
                stored += 1;
            } else {
                elided += 1;
            }
        }
        // Ranks 0..2 cover 1/2 + 1/4 + 1/8 = 87.5% of items.
        let frac = f64::from(elided) / f64::from(stored + elided);
        assert!((0.82..0.92).contains(&frac), "elided fraction {frac}");
    }

    #[test]
    fn replication_stores_on_successors() {
        let cfg = DhsConfig {
            replication: 3,
            ..small_cfg()
        };
        let (mut ring, mut rng) = setup(64, 5);
        let dhs = Dhs::new(cfg).unwrap();
        let origin = ring.alive_ids()[0];
        let mut ledger = CostLedger::new();
        let item = 7u64;
        dhs.insert(&mut ring, 1, item, origin, &mut rng, &mut ledger);
        let (vector, rank) = dhs.classify(item);
        let tuple = DhsTuple {
            metric: 1,
            vector,
            bit: rank as u8,
        };
        let holders: Vec<u64> = ring
            .alive_ids()
            .iter()
            .copied()
            .filter(|&node| ring.get_at(node, tuple.app_key()).is_some())
            .collect();
        assert_eq!(holders.len(), 3);
        // Replicas are consecutive successors of the primary.
        let primary = ring.successor(
            ring.get_at(holders[0], tuple.app_key())
                .unwrap()
                .routing_key,
        );
        let r1 = ring.succ_of(primary);
        let r2 = ring.succ_of(r1);
        let mut expected = vec![primary, r1, r2];
        expected.sort_unstable();
        assert_eq!(holders, expected);
    }

    #[test]
    fn bulk_insert_touches_at_most_one_lookup_per_rank() {
        let (mut ring, mut rng) = setup(256, 6);
        let dhs = Dhs::new(small_cfg()).unwrap();
        let hasher = SplitMix64::default();
        let origin = ring.random_alive(&mut rng);
        let items: Vec<u64> = (0..5_000u64).map(|i| hasher.hash_u64(i)).collect();
        let mut ledger = CostLedger::new();
        let shipped = dhs.bulk_insert(&mut ring, 1, &items, origin, &mut rng, &mut ledger);
        // Dedup: at most m·rank_bits distinct tuples.
        assert!(shipped <= 16 * 16);
        // One logical message per non-empty rank group ⇒ ≤ rank_bits.
        assert!(ledger.messages() <= 16, "messages {}", ledger.messages());
    }

    #[test]
    fn bulk_insert_equals_individual_inserts_for_counting() {
        // The set of (node-agnostic) stored tuples after bulk insertion
        // must equal the deduplicated classify() image.
        let (mut ring, mut rng) = setup(64, 7);
        let dhs = Dhs::new(small_cfg()).unwrap();
        let hasher = SplitMix64::default();
        let origin = ring.alive_ids()[0];
        let items: Vec<u64> = (0..500u64).map(|i| hasher.hash_u64(i)).collect();
        let mut ledger = CostLedger::new();
        dhs.bulk_insert(&mut ring, 1, &items, origin, &mut rng, &mut ledger);

        let mut expected: Vec<(u16, u32)> = items.iter().map(|&k| dhs.classify(k)).collect();
        expected.sort_unstable();
        expected.dedup();
        for (vector, rank) in expected {
            let tuple = DhsTuple {
                metric: 1,
                vector,
                bit: rank as u8,
            };
            let present = ring
                .alive_ids()
                .iter()
                .any(|&node| ring.get_at(node, tuple.app_key()).is_some());
            assert!(
                present,
                "tuple ({vector}, {rank}) missing after bulk insert"
            );
        }
    }

    #[test]
    fn ttl_expires_tuples() {
        let cfg = DhsConfig {
            ttl: 50,
            ..small_cfg()
        };
        let (mut ring, mut rng) = setup(16, 8);
        let dhs = Dhs::new(cfg).unwrap();
        let origin = ring.alive_ids()[0];
        let mut ledger = CostLedger::new();
        dhs.insert(&mut ring, 1, 99, origin, &mut rng, &mut ledger);
        assert!(ring.total_live_bytes() > 0);
        ring.advance_time(50);
        assert_eq!(ring.total_live_bytes(), 0, "tuple aged out");
    }
}
