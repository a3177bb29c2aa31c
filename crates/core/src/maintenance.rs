//! Soft-state maintenance (§3.3).
//!
//! Deletion in DHS is implicit: every tuple carries a `time_out`, and
//! tuples not refreshed within it age out. A node that still holds items
//! re-inserts them periodically (re-insertion of an existing tuple only
//! refreshes its expiry at the storing node — and, because the refresh
//! picks a *new* random key in the interval, spreads the bit onto another
//! node, which is how the paper's "the node may choose a different set of
//! k nodes on each update round" materializes).
//!
//! The TTL trade-off the paper describes: long TTLs mean fewer refresh
//! messages per time unit but slower adaptation when the counted quantity
//! shrinks; short TTLs adapt fast but cost bandwidth.

use dhs_obs::names;
use rand::Rng;

use dhs_dht::cost::CostLedger;
use dhs_dht::overlay::Overlay;

use crate::config::DhsConfig;
use crate::fast::EpochCache;
use crate::insert::Dhs;
use crate::transport::{end_span, start_span, DirectTransport, Transport};
use crate::tuple::MetricId;

/// One maintenance round: the owner of `item_keys` re-inserts them all
/// (bulk, grouped by bit position), refreshing their TTLs.
///
/// Returns the number of tuples shipped.
pub fn refresh_round<O: Overlay>(
    dhs: &Dhs,
    ring: &mut O,
    metric: MetricId,
    item_keys: &[u64],
    origin: u64,
    rng: &mut impl Rng,
    ledger: &mut CostLedger,
) -> usize {
    refresh_round_via(
        dhs,
        ring,
        &mut DirectTransport,
        metric,
        item_keys,
        origin,
        rng,
        ledger,
    )
}

/// [`refresh_round`] over an explicit [`Transport`]: refresh traffic shows
/// up in the transport's observability (a `refresh` span wrapping the bulk
/// re-insertion, `op.refresh` / `op.refresh.tuples` counters) and follows
/// its delivery semantics.
#[allow(clippy::too_many_arguments)]
pub fn refresh_round_via<O: Overlay, T: Transport>(
    dhs: &Dhs,
    ring: &mut O,
    transport: &mut T,
    metric: MetricId,
    item_keys: &[u64],
    origin: u64,
    rng: &mut impl Rng,
    ledger: &mut CostLedger,
) -> usize {
    refresh(
        dhs, ring, transport, None, metric, item_keys, origin, rng, ledger,
    )
}

/// [`refresh_round`] with an origin-side [`EpochCache`]: rolls the cache
/// into a **new epoch first** (so this round re-stores — and thereby
/// renews — every live tuple, exactly like the uncached refresh), then
/// leaves the cache primed so that insertions between this round and the
/// next skip tuples the refresh already covered.
///
/// Soundness requires the refresh period ≤ the TTL, the same bound the
/// uncached refresh already lives under: every elided re-insertion this
/// epoch targets a tuple stored after the roll, whose expiry outlives the
/// epoch.
#[allow(clippy::too_many_arguments)]
pub fn refresh_round_cached<O: Overlay>(
    dhs: &Dhs,
    ring: &mut O,
    cache: &mut EpochCache,
    metric: MetricId,
    item_keys: &[u64],
    origin: u64,
    rng: &mut impl Rng,
    ledger: &mut CostLedger,
) -> usize {
    refresh(
        dhs,
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

/// The one refresh body: roll the cache's epoch (when there is one), then
/// one bulk re-insertion inside a `refresh` span.
#[allow(clippy::too_many_arguments)]
fn refresh<O: Overlay, T: Transport>(
    dhs: &Dhs,
    ring: &mut O,
    transport: &mut T,
    mut cache: Option<&mut EpochCache>,
    metric: MetricId,
    item_keys: &[u64],
    origin: u64,
    rng: &mut impl Rng,
    ledger: &mut CostLedger,
) -> usize {
    if let Some(cache) = cache.as_deref_mut() {
        cache.roll_epoch();
    }
    let span = start_span(transport, names::SPAN_REFRESH, item_keys.len() as u64);
    let shipped = dhs.store_many(
        ring, transport, cache, metric, item_keys, origin, rng, ledger,
    );
    if let Some(r) = transport.recorder() {
        r.incr(names::OP_REFRESH, 1);
        r.incr(names::OP_REFRESH_TUPLES, shipped as u64);
    }
    end_span(transport, span);
    shipped
}

/// Anti-entropy replica repair (§3.5's replication, kept alive under
/// churn): every alive node checks that the next `replication − 1`
/// ID-space successors hold a copy of each live record it stores, and
/// re-pushes missing copies (one hop and one tuple-sized message each).
///
/// Ring-specific (it enumerates per-node stores, which the `Overlay`
/// abstraction deliberately does not expose). Returns the number of
/// copies pushed.
pub fn repair_replicas(
    dhs: &Dhs,
    ring: &mut dhs_dht::ring::Ring,
    ledger: &mut CostLedger,
) -> usize {
    let replication = dhs.config().replication;
    if replication <= 1 {
        return 0;
    }
    let now = ring.now();
    // The canonical replica set of a record is the *current owner* of its
    // routing key plus the owner's `R − 1` successors — anchoring there
    // (rather than at whichever nodes happen to hold copies) is what makes
    // repair convergent: a second pass right after a first finds nothing.
    // BTreeMap keeps the push order (and thus every downstream report)
    // deterministic.
    let mut canonical: std::collections::BTreeMap<(u64, u64), dhs_dht::storage::StoredRecord> =
        std::collections::BTreeMap::new();
    for &node in ring.alive_ids() {
        let Some(store) = ring.store_of(node) else {
            continue;
        };
        for (app_key, rec) in store.iter() {
            if rec.expires_at > now {
                canonical.insert((app_key, rec.routing_key), *rec);
            }
        }
    }
    let mut pushes: Vec<(u64, u64, dhs_dht::storage::StoredRecord)> = Vec::new();
    for (&(app_key, routing_key), rec) in &canonical {
        let owner = ring.successor(routing_key);
        let mut holder = owner;
        for i in 0..replication {
            if i > 0 {
                holder = ring.succ_of(holder);
                if holder == owner {
                    break;
                }
            }
            if ring.get_at(holder, app_key).is_none() {
                pushes.push((holder, app_key, *rec));
            }
        }
    }
    let copies = pushes.len();
    for (target, app_key, rec) in pushes {
        ring.store_at(target, app_key, rec);
        ledger.charge_hops(1);
        ledger.charge_message(0);
        ledger.charge_bytes(u64::from(DhsConfig::TUPLE_BYTES));
        ledger.record_visit(target);
    }
    copies
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhs_dht::ring::{Ring, RingConfig};
    use dhs_sketch::{ItemHasher, SplitMix64};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Dhs, Ring, StdRng) {
        let mut rng = StdRng::seed_from_u64(42);
        let ring = Ring::build(64, RingConfig::default(), &mut rng);
        let cfg = DhsConfig {
            k: 20,
            m: 16,
            ttl: 100,
            ..DhsConfig::default()
        };
        (Dhs::new(cfg).unwrap(), ring, rng)
    }

    #[test]
    fn unrefreshed_data_ages_out_and_estimate_collapses() {
        let (dhs, mut ring, mut rng) = setup();
        let hasher = SplitMix64::default();
        let origin = ring.alive_ids()[0];
        let mut ledger = CostLedger::new();
        let items: Vec<u64> = (0..5_000u64).map(|i| hasher.hash_u64(i)).collect();
        dhs.bulk_insert(&mut ring, 1, &items, origin, &mut rng, &mut ledger);

        let before = dhs
            .count(&ring, 1, origin, &mut rng, &mut CostLedger::new())
            .estimate;
        assert!(before > 1_000.0);

        ring.advance_time(100); // TTL reached, nothing refreshed
        let after = dhs
            .count(&ring, 1, origin, &mut rng, &mut CostLedger::new())
            .estimate;
        assert!(
            after < 16.0,
            "all tuples expired, estimate should collapse: {after}"
        );
    }

    #[test]
    fn refresh_keeps_data_alive() {
        let (dhs, mut ring, mut rng) = setup();
        let hasher = SplitMix64::default();
        let origin = ring.alive_ids()[0];
        let mut ledger = CostLedger::new();
        let items: Vec<u64> = (0..5_000u64).map(|i| hasher.hash_u64(i)).collect();
        dhs.bulk_insert(&mut ring, 1, &items, origin, &mut rng, &mut ledger);
        let before = dhs
            .count(&ring, 1, origin, &mut rng, &mut CostLedger::new())
            .estimate;

        // Refresh every 50 time units (< TTL 100), three rounds.
        for _ in 0..3 {
            ring.advance_time(50);
            refresh_round(&dhs, &mut ring, 1, &items, origin, &mut rng, &mut ledger);
            ring.sweep_all();
        }
        let after = dhs
            .count(&ring, 1, origin, &mut rng, &mut CostLedger::new())
            .estimate;
        let drift = (after - before).abs() / before;
        assert!(drift < 0.35, "refreshed estimate drifted {drift}");
    }

    #[test]
    fn shrinking_metric_adapts_after_ttl() {
        // Insert 4096 items; keep refreshing only 256 of them. After the
        // TTL passes, the estimate must track the smaller set.
        let (dhs, mut ring, mut rng) = setup();
        let hasher = SplitMix64::default();
        let origin = ring.alive_ids()[0];
        let mut ledger = CostLedger::new();
        let all: Vec<u64> = (0..4_096u64).map(|i| hasher.hash_u64(i)).collect();
        let kept: Vec<u64> = all[..256].to_vec();
        dhs.bulk_insert(&mut ring, 1, &all, origin, &mut rng, &mut ledger);

        for _ in 0..2 {
            ring.advance_time(60);
            refresh_round(&dhs, &mut ring, 1, &kept, origin, &mut rng, &mut ledger);
            ring.sweep_all();
        }
        // 120 time units passed: the unrefreshed 3840 items are gone.
        let estimate = dhs
            .count(&ring, 1, origin, &mut rng, &mut CostLedger::new())
            .estimate;
        assert!(
            estimate < 1_500.0,
            "estimate should shrink toward 256: {estimate}"
        );
    }

    #[test]
    fn sweep_reclaims_storage() {
        let (dhs, mut ring, mut rng) = setup();
        let hasher = SplitMix64::default();
        let origin = ring.alive_ids()[0];
        let mut ledger = CostLedger::new();
        let items: Vec<u64> = (0..2_000u64).map(|i| hasher.hash_u64(i)).collect();
        dhs.bulk_insert(&mut ring, 1, &items, origin, &mut rng, &mut ledger);
        assert!(ring.total_live_bytes() > 0);
        ring.advance_time(200);
        let swept = ring.sweep_all();
        assert!(swept > 0);
        assert_eq!(ring.total_live_bytes(), 0);
    }

    #[test]
    fn repair_restores_replication_degree() {
        let mut rng = StdRng::seed_from_u64(55);
        let mut ring = Ring::build(64, RingConfig::default(), &mut rng);
        let cfg = DhsConfig {
            k: 20,
            m: 16,
            replication: 3,
            ..DhsConfig::default()
        };
        let dhs = Dhs::new(cfg).unwrap();
        let hasher = SplitMix64::default();
        let origin = ring.alive_ids()[0];
        let mut ledger = CostLedger::new();
        let keys: Vec<u64> = (0..2_000u64).map(|i| hasher.hash_u64(i)).collect();
        dhs.bulk_insert(&mut ring, 1, &keys, origin, &mut rng, &mut ledger);

        // Immediately after insertion every record sits on 3 nodes, so
        // repair has nothing to do.
        let noop = maintenance_repair(&dhs, &mut ring);
        assert_eq!(noop, 0, "freshly replicated state needs no repair");

        // Kill a quarter of the nodes: some replica groups lose members.
        ring.fail_random(0.25, &mut rng);
        let pushed = maintenance_repair(&dhs, &mut ring);
        assert!(pushed > 0, "repair must re-create lost copies");
        // A second pass right after finds nothing left to do.
        let again = maintenance_repair(&dhs, &mut ring);
        assert_eq!(again, 0, "repair must converge");
    }

    fn maintenance_repair(dhs: &Dhs, ring: &mut Ring) -> usize {
        let mut ledger = CostLedger::new();
        super::repair_replicas(dhs, ring, &mut ledger)
    }

    #[test]
    fn repair_noop_without_replication() {
        let mut rng = StdRng::seed_from_u64(56);
        let mut ring = Ring::build(16, RingConfig::default(), &mut rng);
        let dhs = Dhs::new(DhsConfig {
            k: 20,
            m: 16,
            ..DhsConfig::default()
        })
        .unwrap();
        let hasher = SplitMix64::default();
        let origin = ring.alive_ids()[0];
        dhs.bulk_insert(
            &mut ring,
            1,
            &[hasher.hash_u64(1)],
            origin,
            &mut rng,
            &mut CostLedger::new(),
        );
        assert_eq!(maintenance_repair(&dhs, &mut ring), 0);
    }
}
