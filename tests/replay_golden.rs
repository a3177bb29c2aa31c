//! Cross-commit replay pins.
//!
//! `scripts/check.sh` compares a build with itself and the registry gate
//! pins ledger KPIs of three plans; nothing else in tier-1 holds the
//! recorder event stream, the lossy retry path or the RNG cursor fixed
//! from one commit to the next. This file does: one small fixed-seed
//! world (64-node ring, `m` = 16, `R` = 2, a finite TTL with the clock
//! moving, one graceful leave, one join, one crash) is driven through
//! every store and scan entry point — direct, through
//! `Observed<DirectTransport, _>`, and through a ~30 %-loss `SimTransport`
//! with a retry policy — for super-LogLog and PCSA, and every model
//! output is compared with a constant captured once.
//!
//! The constants are **never edited to make a change pass**. A PR that
//! legitimately moves one names it in CHANGES.md. On a mismatch the
//! test prints the whole table it computed, so the moved rows can be
//! read off. The ring-state pin is folded over *decoded*
//! `(node, metric, vector, bit, record)` rows in sorted order, so it
//! does not depend on how `DhsTuple::app_key` packs its fields.

use counting_at_large::dhs::maintenance::{refresh_round, refresh_round_via};
use counting_at_large::dhs::tuple::DhsTuple;
use counting_at_large::dhs::{
    CountResult, Dhs, DhsConfig, DirectTransport, EpochCache, EstimatorKind, Observed, RetryPolicy,
    ScanHint, Transport,
};
use counting_at_large::dht::cost::CostLedger;
use counting_at_large::dht::ring::{Ring, RingConfig};
use counting_at_large::net::{FaultPlane, LatencyModel, SimConfig, SimTransport};
use counting_at_large::obs::fnv::Fnv1a;
use counting_at_large::obs::{names, Observer, Recorder};
use counting_at_large::sketch::{ItemHasher, SplitMix64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x601D;
const NODES: usize = 64;

/// Named model outputs of one scenario, in the order they were taken.
type Pins = Vec<(String, u64)>;

fn config(estimator: EstimatorKind) -> DhsConfig {
    DhsConfig {
        m: 16,
        k: 20,
        replication: 2,
        ttl: 100,
        estimator,
        ..DhsConfig::default()
    }
}

/// `2n` item keys of stream `stream`: `n` distinct items, each twice
/// in a row, so every batch carries duplicates.
fn keys(stream: u64, n: u64) -> Vec<u64> {
    let hasher = SplitMix64::default();
    (0..n)
        .flat_map(|i| [i, i])
        .map(|i| hasher.hash_u64(stream << 32 | i))
        .collect()
}

/// A recorder that folds every event, in order, into an FNV and forwards
/// it to a full [`Observer`] (whose own digests are order-insensitive).
struct EventHash {
    fnv: Fnv1a,
    events: u64,
    inner: Observer,
}

impl EventHash {
    fn new(cfg: &DhsConfig) -> Self {
        EventHash {
            fnv: Fnv1a::new(),
            events: 0,
            inner: Observer::new(cfg.num_intervals() as usize),
        }
    }

    fn fold(&mut self, tag: u8, name: &str, a: u64, b: u64) {
        self.events += 1;
        self.fnv.update(&[tag]);
        self.fnv.update(name.as_bytes());
        self.fnv.update(&a.to_le_bytes());
        self.fnv.update(&b.to_le_bytes());
    }
}

impl Recorder for EventHash {
    fn incr(&mut self, name: &'static str, delta: u64) {
        self.fold(1, name, delta, 0);
        self.inner.incr(name, delta);
    }

    fn observe(&mut self, name: &'static str, value: u64) {
        self.fold(2, name, value, 0);
        self.inner.observe(name, value);
    }

    fn gauge_set(&mut self, name: &'static str, value: u64) {
        self.fold(3, name, value, 0);
        self.inner.gauge_set(name, value);
    }

    fn delivered(&mut self, kind: u8, dst: u64) {
        self.fold(4, "", u64::from(kind), dst);
        self.inner.delivered(kind, dst);
    }

    fn span_start(&mut self, name: &'static str, arg: u64, now: u64) -> u64 {
        let id = self.inner.span_start(name, arg, now);
        self.fold(5, name, arg, now);
        self.fold(5, "id", id, 0);
        id
    }

    fn span_end(&mut self, id: u64, now: u64) {
        self.fold(6, "", id, now);
        self.inner.span_end(id, now);
    }
}

fn pin(pins: &mut Pins, name: impl Into<String>, value: u64) {
    pins.push((name.into(), value));
}

fn pin_ledger(pins: &mut Pins, at: &str, ledger: &CostLedger) {
    pin(pins, format!("{at}.hops"), ledger.hops());
    pin(pins, format!("{at}.messages"), ledger.messages());
    pin(pins, format!("{at}.bytes"), ledger.bytes());
    pin(pins, format!("{at}.latency_ticks"), ledger.latency_ticks());
    pin(pins, format!("{at}.dropped"), ledger.dropped_messages());
    pin(
        pins,
        format!("{at}.nodes_visited"),
        ledger.nodes_visited() as u64,
    );
    let mut visits = Fnv1a::new();
    for (&node, &n) in ledger.visits() {
        visits.update(&node.to_le_bytes());
        visits.update(&n.to_le_bytes());
    }
    pin(pins, format!("{at}.visits_fnv"), visits.finish());
}

fn pin_count(pins: &mut Pins, at: &str, result: &CountResult) {
    pin(pins, format!("{at}.metric"), u64::from(result.metric));
    pin(
        pins,
        format!("{at}.estimate_bits"),
        result.estimate.to_bits(),
    );
    let mut regs = Fnv1a::new();
    for &r in &result.registers {
        regs.update(&r.to_le_bytes());
    }
    pin(pins, format!("{at}.registers_fnv"), regs.finish());
    let s = &result.stats;
    pin(pins, format!("{at}.probes"), s.probes);
    pin(pins, format!("{at}.lookups"), s.lookups);
    pin(pins, format!("{at}.hops"), s.hops);
    pin(pins, format!("{at}.bytes"), s.bytes);
    pin(
        pins,
        format!("{at}.intervals"),
        u64::from(s.intervals_scanned) << 32 | u64::from(s.intervals_skipped),
    );
}

/// FNV over every stored record of every node (alive or failed, live or
/// expired), decoded and sorted — independent of the key packing and of
/// store iteration order.
fn ring_state_fnv(ring: &Ring, all_nodes: &[u64]) -> u64 {
    let mut rows = Vec::new();
    for &node in all_nodes {
        let Some(store) = ring.store_of(node) else {
            continue;
        };
        for (app_key, rec) in store.iter() {
            let t = DhsTuple::from_app_key(app_key);
            assert_eq!(t.app_key(), app_key, "stored keys are packed tuples");
            rows.push((
                node,
                t.metric,
                t.vector,
                t.bit,
                rec.expires_at,
                rec.size_bytes,
                rec.routing_key,
            ));
        }
    }
    rows.sort_unstable();
    let mut h = Fnv1a::new();
    for (node, metric, vector, bit, expires_at, size_bytes, routing_key) in rows {
        h.update(&node.to_le_bytes());
        h.update(&metric.to_le_bytes());
        h.update(&vector.to_le_bytes());
        h.update(&[bit]);
        h.update(&expires_at.to_le_bytes());
        h.update(&size_bytes.to_le_bytes());
        h.update(&routing_key.to_le_bytes());
    }
    h.finish()
}

/// The world every scenario starts from, and the ids of all its nodes
/// (the ring forgets a departed node's id, the pins do not).
fn world(rng: &mut StdRng) -> (Ring, Vec<u64>) {
    let ring = Ring::build(NODES, RingConfig::default(), rng);
    let ids = ring.alive_ids().to_vec();
    (ring, ids)
}

/// Membership events between the write and the read half: a graceful
/// leave (key-ordered hand-off), a join that splits an arc (key-ordered
/// take-over) and a crash (its store stays, unreachable).
fn churn(ring: &mut Ring, ids: &mut Vec<u64>, rng: &mut StdRng) {
    let leaver = ring.alive_ids()[NODES / 3];
    ring.graceful_leave(leaver);
    let joiner = loop {
        let id: u64 = rng.gen();
        if !ids.contains(&id) {
            break id;
        }
    };
    ring.join(joiner);
    ids.push(joiner);
    let crashed = ring.alive_ids()[NODES / 2];
    ring.fail_node(crashed);
}

/// Every direct (no-transport) entry point, in one fixed order.
fn direct_scenario(estimator: EstimatorKind) -> Pins {
    let mut pins = Pins::new();
    let mut rng = StdRng::seed_from_u64(SEED);
    let (mut ring, mut ids) = world(&mut rng);
    let dhs = Dhs::new(config(estimator)).unwrap();
    let mut ledger = CostLedger::new();

    let stream1 = keys(1, 600);
    for &key in &stream1 {
        let origin = ring.random_alive(&mut rng);
        dhs.insert(&mut ring, 1, key, origin, &mut rng, &mut ledger);
    }
    pin_ledger(&mut pins, "insert", &ledger);
    ring.advance_time(40);

    let origin = ring.random_alive(&mut rng);
    let shipped = dhs.bulk_insert(&mut ring, 2, &keys(2, 900), origin, &mut rng, &mut ledger);
    pin(&mut pins, "bulk.shipped", shipped as u64);

    let mut cache = EpochCache::new(dhs.config());
    let stream3 = keys(3, 720);
    for batch in [&stream3[..900], &stream3[450..]] {
        let shipped = dhs.bulk_insert_cached(
            &mut ring,
            &mut cache,
            3,
            batch,
            origin,
            &mut rng,
            &mut ledger,
        );
        pin(&mut pins, "cached.shipped", shipped as u64);
    }
    pin(&mut pins, "cached.hits", cache.hits());
    pin(&mut pins, "cached.misses", cache.misses());
    pin_ledger(&mut pins, "bulk", &ledger);
    ring.advance_time(40);

    // Half of metric 1 is refreshed; the other half ages out below.
    let shipped = refresh_round(
        &dhs,
        &mut ring,
        1,
        &stream1[..600],
        origin,
        &mut rng,
        &mut ledger,
    );
    pin(&mut pins, "refresh.shipped", shipped as u64);
    pin_ledger(&mut pins, "refresh", &ledger);
    churn(&mut ring, &mut ids, &mut rng);
    ring.advance_time(40);
    pin(&mut pins, "ring.state_fnv", ring_state_fnv(&ring, &ids));

    let mut ledger = CostLedger::new();
    let origin = ring.random_alive(&mut rng);
    for metric in [1, 2, 3] {
        let one = dhs.count(&ring, metric, origin, &mut rng, &mut ledger);
        pin_count(&mut pins, &format!("count{metric}"), &one);
    }
    let multi = dhs.count_multi(&ring, &[1, 2, 3, 2], origin, &mut rng, &mut ledger);
    for (i, result) in multi.iter().enumerate() {
        pin_count(&mut pins, &format!("multi{i}"), result);
    }
    let mut hint = ScanHint::new();
    for round in 0..2 {
        let hinted = dhs.count_hinted(&ring, &mut hint, 2, origin, &mut rng, &mut ledger);
        pin_count(&mut pins, &format!("hinted{round}"), &hinted);
    }
    pin_ledger(&mut pins, "counts", &ledger);
    pin(&mut pins, "rng.next", rng.gen());
    pins
}

/// Every `_via` entry point over `transport`, in one fixed order; the
/// same world and the same phases as [`direct_scenario`].
fn via_scenario<T: Transport>(
    estimator: EstimatorKind,
    mut net: Observed<T, EventHash>,
) -> (Pins, T, EventHash) {
    let mut pins = Pins::new();
    let mut rng = StdRng::seed_from_u64(SEED);
    let (mut ring, mut ids) = world(&mut rng);
    let dhs = Dhs::new(config(estimator)).unwrap();
    let mut ledger = CostLedger::new();

    let stream1 = keys(1, 600);
    for &key in &stream1 {
        let origin = ring.random_alive(&mut rng);
        dhs.insert_via(&mut ring, &mut net, 1, key, origin, &mut rng, &mut ledger);
    }
    pin_ledger(&mut pins, "insert", &ledger);
    ring.advance_time(40);

    let origin = ring.random_alive(&mut rng);
    for (metric, stream) in [(2, keys(2, 900)), (3, keys(3, 720))] {
        let shipped = dhs.bulk_insert_via(
            &mut ring,
            &mut net,
            metric,
            &stream,
            origin,
            &mut rng,
            &mut ledger,
        );
        pin(&mut pins, "bulk.shipped", shipped as u64);
    }
    pin_ledger(&mut pins, "bulk", &ledger);
    ring.advance_time(40);

    let shipped = refresh_round_via(
        &dhs,
        &mut ring,
        &mut net,
        1,
        &stream1[..600],
        origin,
        &mut rng,
        &mut ledger,
    );
    pin(&mut pins, "refresh.shipped", shipped as u64);
    pin_ledger(&mut pins, "refresh", &ledger);
    churn(&mut ring, &mut ids, &mut rng);
    ring.advance_time(40);
    pin(&mut pins, "ring.state_fnv", ring_state_fnv(&ring, &ids));

    let mut ledger = CostLedger::new();
    let origin = ring.random_alive(&mut rng);
    for metric in [1, 2, 3] {
        let one = dhs.count_via(&ring, &mut net, metric, origin, &mut rng, &mut ledger);
        pin_count(&mut pins, &format!("count{metric}"), &one);
    }
    let multi = dhs.count_multi_via(
        &ring,
        &mut net,
        &[1, 2, 3, 2],
        origin,
        &mut rng,
        &mut ledger,
    );
    for (i, result) in multi.iter().enumerate() {
        pin_count(&mut pins, &format!("multi{i}"), result);
    }
    pin_ledger(&mut pins, "counts", &ledger);
    pin(&mut pins, "rng.next", rng.gen());

    let (transport, events) = net.into_parts();
    pin(&mut pins, "obs.events", events.events);
    pin(&mut pins, "obs.events_fnv", events.fnv.finish());
    pin(
        &mut pins,
        "obs.metrics_digest",
        events.inner.metrics.digest(),
    );
    pin(&mut pins, "obs.spans_digest", events.inner.spans.digest());
    (pins, transport, events)
}

fn observed_scenario(estimator: EstimatorKind) -> Pins {
    let recorder = EventHash::new(&config(estimator));
    via_scenario(estimator, Observed::new(DirectTransport, recorder)).0
}

fn lossy_scenario(estimator: EstimatorKind) -> Pins {
    let sim = SimTransport::new(SimConfig {
        seed: SEED ^ 0xFA17,
        latency: LatencyModel::Uniform { lo: 5, hi: 50 },
        timeout: 200,
        faults: FaultPlane::lossy(0.3),
        retry: RetryPolicy::new(3, 20, 100),
    });
    let recorder = EventHash::new(&config(estimator));
    let (mut pins, sim, events) = via_scenario(estimator, Observed::new(sim, recorder));
    // The point of this scenario: every failure branch runs.
    let metrics = &events.inner.metrics;
    assert!(metrics.counter(names::OP_STORE_LOST) > 0, "no lost store");
    assert!(
        metrics.counter(names::MSG_LOOKUP_TIMEOUT) > 0,
        "no failed lookup"
    );
    assert!(
        metrics.counter(names::MSG_PROBE_TIMEOUT) > 0,
        "no failed probe"
    );
    assert!(
        metrics.counter(names::EXCHANGE_GAVE_UP) > metrics.counter(names::OP_STORE_LOST),
        "no exchange beyond primary stores gave up (replica legs, lookups, probes)"
    );
    pin(&mut pins, "sim.now", sim.now());
    let telemetry = sim.into_telemetry();
    pin(&mut pins, "sim.sent", telemetry.sent());
    pin(&mut pins, "sim.dropped", telemetry.dropped());
    pin(&mut pins, "sim.trace_digest", telemetry.digest());
    pins
}

/// Compare, and on a mismatch print the computed table as the Rust
/// literal the constant was captured from.
fn check(label: &str, actual: &Pins, golden: &[(&str, u64)]) {
    let same = actual.len() == golden.len()
        && actual
            .iter()
            .zip(golden)
            .all(|((an, av), (gn, gv))| an == gn && av == gv);
    if same {
        return;
    }
    let mut table = String::new();
    for (i, (name, value)) in actual.iter().enumerate() {
        let moved = golden.get(i).is_none_or(|g| g.0 != name || g.1 != *value);
        let mark = if moved { " // <- moved" } else { "" };
        table.push_str(&format!("    (\"{name}\", 0x{value:016x}),{mark}\n"));
    }
    panic!("{label}: replay pins moved; computed table:\n&[\n{table}]");
}

#[test]
fn direct_superloglog() {
    check(
        "direct/sLL",
        &direct_scenario(EstimatorKind::SuperLogLog),
        golden::DIRECT_SLL,
    );
}

#[test]
fn direct_pcsa() {
    check(
        "direct/PCSA",
        &direct_scenario(EstimatorKind::Pcsa),
        golden::DIRECT_PCSA,
    );
}

#[test]
fn observed_superloglog() {
    check(
        "observed/sLL",
        &observed_scenario(EstimatorKind::SuperLogLog),
        golden::OBSERVED_SLL,
    );
}

#[test]
fn observed_pcsa() {
    check(
        "observed/PCSA",
        &observed_scenario(EstimatorKind::Pcsa),
        golden::OBSERVED_PCSA,
    );
}

#[test]
fn lossy_superloglog() {
    check(
        "lossy/sLL",
        &lossy_scenario(EstimatorKind::SuperLogLog),
        golden::LOSSY_SLL,
    );
}

#[test]
fn lossy_pcsa() {
    check(
        "lossy/PCSA",
        &lossy_scenario(EstimatorKind::Pcsa),
        golden::LOSSY_PCSA,
    );
}

/// The observed direct transport changes nothing the bare one reports:
/// the two scenarios share every pin the bare one takes, except those of
/// the phases only the direct forms have (cache, hints).
#[test]
fn observing_changes_no_model_output() {
    let direct = direct_scenario(EstimatorKind::SuperLogLog);
    let observed = observed_scenario(EstimatorKind::SuperLogLog);
    for name in ["insert.hops", "insert.bytes", "insert.visits_fnv"] {
        let of = |pins: &Pins| pins.iter().find(|p| p.0 == name).map(|p| p.1);
        assert_eq!(of(&direct), of(&observed), "{name}");
    }
}

/// Captured at the parent of the PR that added this file.
mod golden {
    pub const DIRECT_SLL: &[(&str, u64)] = &[
        ("insert.hops", 0x000000000000165a),
        ("insert.messages", 0x0000000000000960),
        ("insert.bytes", 0x000000000000b2d0),
        ("insert.latency_ticks", 0x0000000000000000),
        ("insert.dropped", 0x0000000000000000),
        ("insert.nodes_visited", 0x0000000000000040),
        ("insert.visits_fnv", 0x44d0039b3cbf390f),
        ("bulk.shipped", 0x0000000000000061),
        ("cached.shipped", 0x000000000000004d),
        ("cached.shipped", 0x000000000000000a),
        ("cached.hits", 0x0000000000000045),
        ("cached.misses", 0x0000000000000057),
        ("bulk.hops", 0x00000000000016b2),
        ("bulk.messages", 0x0000000000000988),
        ("bulk.bytes", 0x000000000000cf18),
        ("bulk.latency_ticks", 0x0000000000000000),
        ("bulk.dropped", 0x0000000000000000),
        ("bulk.nodes_visited", 0x0000000000000040),
        ("bulk.visits_fnv", 0x0bd536b1dd3b00fb),
        ("refresh.shipped", 0x0000000000000044),
        ("refresh.hops", 0x00000000000016d2),
        ("refresh.messages", 0x0000000000000996),
        ("refresh.bytes", 0x000000000000d9c0),
        ("refresh.latency_ticks", 0x0000000000000000),
        ("refresh.dropped", 0x0000000000000000),
        ("refresh.nodes_visited", 0x0000000000000040),
        ("refresh.visits_fnv", 0x38f28f86432ac3af),
        ("ring.state_fnv", 0x3dd3c9cf01c65ce9),
        ("count1.metric", 0x0000000000000001),
        ("count1.estimate_bits", 0x4062834770ec1e14),
        ("count1.registers_fnv", 0xee4f917e11ed7331),
        ("count1.probes", 0x000000000000005b),
        ("count1.lookups", 0x0000000000000013),
        ("count1.hops", 0x000000000000007a),
        ("count1.bytes", 0x0000000000000c5e),
        ("count1.intervals", 0x0000001300000000),
        ("count2.metric", 0x0000000000000002),
        ("count2.estimate_bits", 0x4083b786e59223b0),
        ("count2.registers_fnv", 0xbc97218b2357b888),
        ("count2.probes", 0x000000000000004c),
        ("count2.lookups", 0x0000000000000010),
        ("count2.hops", 0x0000000000000061),
        ("count2.bytes", 0x0000000000000a08),
        ("count2.intervals", 0x0000001000000000),
        ("count3.metric", 0x0000000000000003),
        ("count3.estimate_bits", 0x4080521b630f53d3),
        ("count3.registers_fnv", 0x8dba785afd3329a8),
        ("count3.probes", 0x0000000000000053),
        ("count3.lookups", 0x0000000000000011),
        ("count3.hops", 0x000000000000006d),
        ("count3.bytes", 0x0000000000000b1e),
        ("count3.intervals", 0x0000001100000000),
        ("multi0.metric", 0x0000000000000001),
        ("multi0.estimate_bits", 0x40665d79177dc18e),
        ("multi0.registers_fnv", 0xd2f3f37f0e30f310),
        ("multi0.probes", 0x0000000000000056),
        ("multi0.lookups", 0x0000000000000012),
        ("multi0.hops", 0x0000000000000073),
        ("multi0.bytes", 0x0000000000000db0),
        ("multi0.intervals", 0x0000001200000000),
        ("multi1.metric", 0x0000000000000002),
        ("multi1.estimate_bits", 0x4083b786e59223b0),
        ("multi1.registers_fnv", 0xbc97218b2357b888),
        ("multi1.probes", 0x0000000000000056),
        ("multi1.lookups", 0x0000000000000012),
        ("multi1.hops", 0x0000000000000073),
        ("multi1.bytes", 0x0000000000000db0),
        ("multi1.intervals", 0x0000001200000000),
        ("multi2.metric", 0x0000000000000003),
        ("multi2.estimate_bits", 0x4080521b630f53d3),
        ("multi2.registers_fnv", 0x8dba785afd3329a8),
        ("multi2.probes", 0x0000000000000056),
        ("multi2.lookups", 0x0000000000000012),
        ("multi2.hops", 0x0000000000000073),
        ("multi2.bytes", 0x0000000000000db0),
        ("multi2.intervals", 0x0000001200000000),
        ("multi3.metric", 0x0000000000000002),
        ("multi3.estimate_bits", 0x4083b786e59223b0),
        ("multi3.registers_fnv", 0xbc97218b2357b888),
        ("multi3.probes", 0x0000000000000056),
        ("multi3.lookups", 0x0000000000000012),
        ("multi3.hops", 0x0000000000000073),
        ("multi3.bytes", 0x0000000000000db0),
        ("multi3.intervals", 0x0000001200000000),
        ("hinted0.metric", 0x0000000000000002),
        ("hinted0.estimate_bits", 0x4083b786e59223b0),
        ("hinted0.registers_fnv", 0xbc97218b2357b888),
        ("hinted0.probes", 0x000000000000004c),
        ("hinted0.lookups", 0x0000000000000010),
        ("hinted0.hops", 0x0000000000000061),
        ("hinted0.bytes", 0x0000000000000a08),
        ("hinted0.intervals", 0x0000001000000000),
        ("hinted1.metric", 0x0000000000000002),
        ("hinted1.estimate_bits", 0x4083b786e59223b0),
        ("hinted1.registers_fnv", 0xbc97218b2357b888),
        ("hinted1.probes", 0x0000000000000024),
        ("hinted1.lookups", 0x000000000000000c),
        ("hinted1.hops", 0x0000000000000035),
        ("hinted1.bytes", 0x0000000000000578),
        ("hinted1.intervals", 0x0000000c00000004),
        ("counts.hops", 0x0000000000000251),
        ("counts.messages", 0x0000000000000222),
        ("counts.bytes", 0x0000000000003eb4),
        ("counts.latency_ticks", 0x0000000000000000),
        ("counts.dropped", 0x0000000000000000),
        ("counts.nodes_visited", 0x0000000000000017),
        ("counts.visits_fnv", 0x3653073658e3ea5c),
        ("rng.next", 0xcc2fcb8d3bbcea6f),
    ];
    pub const DIRECT_PCSA: &[(&str, u64)] = &[
        ("insert.hops", 0x000000000000165a),
        ("insert.messages", 0x0000000000000960),
        ("insert.bytes", 0x000000000000b2d0),
        ("insert.latency_ticks", 0x0000000000000000),
        ("insert.dropped", 0x0000000000000000),
        ("insert.nodes_visited", 0x0000000000000040),
        ("insert.visits_fnv", 0x44d0039b3cbf390f),
        ("bulk.shipped", 0x0000000000000061),
        ("cached.shipped", 0x000000000000004d),
        ("cached.shipped", 0x000000000000000a),
        ("cached.hits", 0x0000000000000045),
        ("cached.misses", 0x0000000000000057),
        ("bulk.hops", 0x00000000000016b2),
        ("bulk.messages", 0x0000000000000988),
        ("bulk.bytes", 0x000000000000cf18),
        ("bulk.latency_ticks", 0x0000000000000000),
        ("bulk.dropped", 0x0000000000000000),
        ("bulk.nodes_visited", 0x0000000000000040),
        ("bulk.visits_fnv", 0x0bd536b1dd3b00fb),
        ("refresh.shipped", 0x0000000000000044),
        ("refresh.hops", 0x00000000000016d2),
        ("refresh.messages", 0x0000000000000996),
        ("refresh.bytes", 0x000000000000d9c0),
        ("refresh.latency_ticks", 0x0000000000000000),
        ("refresh.dropped", 0x0000000000000000),
        ("refresh.nodes_visited", 0x0000000000000040),
        ("refresh.visits_fnv", 0x38f28f86432ac3af),
        ("ring.state_fnv", 0x3dd3c9cf01c65ce9),
        ("count1.metric", 0x0000000000000001),
        ("count1.estimate_bits", 0x40344ab1de742128),
        ("count1.registers_fnv", 0xb9b23f3a46fd0825),
        ("count1.probes", 0x0000000000000005),
        ("count1.lookups", 0x0000000000000001),
        ("count1.hops", 0x0000000000000004),
        ("count1.bytes", 0x0000000000000082),
        ("count1.intervals", 0x0000000100000000),
        ("count2.metric", 0x0000000000000002),
        ("count2.estimate_bits", 0x40344ab1de742128),
        ("count2.registers_fnv", 0xb9b23f3a46fd0825),
        ("count2.probes", 0x0000000000000005),
        ("count2.lookups", 0x0000000000000001),
        ("count2.hops", 0x000000000000000a),
        ("count2.bytes", 0x00000000000000e2),
        ("count2.intervals", 0x0000000100000000),
        ("count3.metric", 0x0000000000000003),
        ("count3.estimate_bits", 0x40344ab1de742128),
        ("count3.registers_fnv", 0xb9b23f3a46fd0825),
        ("count3.probes", 0x0000000000000005),
        ("count3.lookups", 0x0000000000000001),
        ("count3.hops", 0x0000000000000008),
        ("count3.bytes", 0x00000000000000c2),
        ("count3.intervals", 0x0000000100000000),
        ("multi0.metric", 0x0000000000000001),
        ("multi0.estimate_bits", 0x40444ab1de742128),
        ("multi0.registers_fnv", 0xbec6bbcc296da3a5),
        ("multi0.probes", 0x000000000000000a),
        ("multi0.lookups", 0x0000000000000002),
        ("multi0.hops", 0x0000000000000012),
        ("multi0.bytes", 0x00000000000001e0),
        ("multi0.intervals", 0x0000000200000000),
        ("multi1.metric", 0x0000000000000002),
        ("multi1.estimate_bits", 0x40344ab1de742128),
        ("multi1.registers_fnv", 0xb9b23f3a46fd0825),
        ("multi1.probes", 0x000000000000000a),
        ("multi1.lookups", 0x0000000000000002),
        ("multi1.hops", 0x0000000000000012),
        ("multi1.bytes", 0x00000000000001e0),
        ("multi1.intervals", 0x0000000200000000),
        ("multi2.metric", 0x0000000000000003),
        ("multi2.estimate_bits", 0x40344ab1de742128),
        ("multi2.registers_fnv", 0xb9b23f3a46fd0825),
        ("multi2.probes", 0x000000000000000a),
        ("multi2.lookups", 0x0000000000000002),
        ("multi2.hops", 0x0000000000000012),
        ("multi2.bytes", 0x00000000000001e0),
        ("multi2.intervals", 0x0000000200000000),
        ("multi3.metric", 0x0000000000000002),
        ("multi3.estimate_bits", 0x40344ab1de742128),
        ("multi3.registers_fnv", 0xb9b23f3a46fd0825),
        ("multi3.probes", 0x000000000000000a),
        ("multi3.lookups", 0x0000000000000002),
        ("multi3.hops", 0x0000000000000012),
        ("multi3.bytes", 0x00000000000001e0),
        ("multi3.intervals", 0x0000000200000000),
        ("hinted0.metric", 0x0000000000000002),
        ("hinted0.estimate_bits", 0x40444ab1de742128),
        ("hinted0.registers_fnv", 0xbec6bbcc296da3a5),
        ("hinted0.probes", 0x0000000000000007),
        ("hinted0.lookups", 0x0000000000000002),
        ("hinted0.hops", 0x0000000000000009),
        ("hinted0.bytes", 0x00000000000000f6),
        ("hinted0.intervals", 0x0000000200000000),
        ("hinted1.metric", 0x0000000000000002),
        ("hinted1.estimate_bits", 0x40344ab1de742128),
        ("hinted1.registers_fnv", 0xb9b23f3a46fd0825),
        ("hinted1.probes", 0x0000000000000005),
        ("hinted1.lookups", 0x0000000000000001),
        ("hinted1.hops", 0x0000000000000008),
        ("hinted1.bytes", 0x00000000000000c2),
        ("hinted1.intervals", 0x0000000100000000),
        ("counts.hops", 0x0000000000000039),
        ("counts.messages", 0x000000000000002d),
        ("counts.bytes", 0x00000000000005be),
        ("counts.latency_ticks", 0x0000000000000000),
        ("counts.dropped", 0x0000000000000000),
        ("counts.nodes_visited", 0x0000000000000027),
        ("counts.visits_fnv", 0x5fa069e6aa8422e2),
        ("rng.next", 0x0a4133dbc70761b6),
    ];
    pub const OBSERVED_SLL: &[(&str, u64)] = &[
        ("insert.hops", 0x000000000000165a),
        ("insert.messages", 0x0000000000000960),
        ("insert.bytes", 0x000000000000b2d0),
        ("insert.latency_ticks", 0x0000000000000000),
        ("insert.dropped", 0x0000000000000000),
        ("insert.nodes_visited", 0x0000000000000040),
        ("insert.visits_fnv", 0x44d0039b3cbf390f),
        ("bulk.shipped", 0x0000000000000061),
        ("bulk.shipped", 0x0000000000000057),
        ("bulk.hops", 0x000000000000169d),
        ("bulk.messages", 0x000000000000097e),
        ("bulk.bytes", 0x000000000000cf20),
        ("bulk.latency_ticks", 0x0000000000000000),
        ("bulk.dropped", 0x0000000000000000),
        ("bulk.nodes_visited", 0x0000000000000040),
        ("bulk.visits_fnv", 0x0ff3da0553c6bdde),
        ("refresh.shipped", 0x0000000000000044),
        ("refresh.hops", 0x00000000000016bf),
        ("refresh.messages", 0x000000000000098c),
        ("refresh.bytes", 0x000000000000dab0),
        ("refresh.latency_ticks", 0x0000000000000000),
        ("refresh.dropped", 0x0000000000000000),
        ("refresh.nodes_visited", 0x0000000000000040),
        ("refresh.visits_fnv", 0x0cb9982e56d50780),
        ("ring.state_fnv", 0x277c35a33f8389f4),
        ("count1.metric", 0x0000000000000001),
        ("count1.estimate_bits", 0x40595e79c9d6b40a),
        ("count1.registers_fnv", 0xadef71be4e055773),
        ("count1.probes", 0x0000000000000064),
        ("count1.lookups", 0x0000000000000014),
        ("count1.hops", 0x00000000000000a0),
        ("count1.bytes", 0x0000000000000f28),
        ("count1.intervals", 0x0000001400000000),
        ("count2.metric", 0x0000000000000002),
        ("count2.estimate_bits", 0x4083b786e59223b0),
        ("count2.registers_fnv", 0xbc97218b2357b888),
        ("count2.probes", 0x000000000000004c),
        ("count2.lookups", 0x0000000000000010),
        ("count2.hops", 0x000000000000007f),
        ("count2.bytes", 0x0000000000000be8),
        ("count2.intervals", 0x0000001000000000),
        ("count3.metric", 0x0000000000000003),
        ("count3.estimate_bits", 0x4080521b630f53d3),
        ("count3.registers_fnv", 0x8dba785afd3329a8),
        ("count3.probes", 0x0000000000000054),
        ("count3.lookups", 0x0000000000000011),
        ("count3.hops", 0x000000000000008c),
        ("count3.bytes", 0x0000000000000d18),
        ("count3.intervals", 0x0000001100000000),
        ("multi0.metric", 0x0000000000000001),
        ("multi0.estimate_bits", 0x40665d79177dc18e),
        ("multi0.registers_fnv", 0xd2f3f37f0e30f310),
        ("multi0.probes", 0x0000000000000056),
        ("multi0.lookups", 0x0000000000000012),
        ("multi0.hops", 0x000000000000008b),
        ("multi0.bytes", 0x0000000000000f30),
        ("multi0.intervals", 0x0000001200000000),
        ("multi1.metric", 0x0000000000000002),
        ("multi1.estimate_bits", 0x4083b786e59223b0),
        ("multi1.registers_fnv", 0xbc97218b2357b888),
        ("multi1.probes", 0x0000000000000056),
        ("multi1.lookups", 0x0000000000000012),
        ("multi1.hops", 0x000000000000008b),
        ("multi1.bytes", 0x0000000000000f30),
        ("multi1.intervals", 0x0000001200000000),
        ("multi2.metric", 0x0000000000000003),
        ("multi2.estimate_bits", 0x4080521b630f53d3),
        ("multi2.registers_fnv", 0x8dba785afd3329a8),
        ("multi2.probes", 0x0000000000000056),
        ("multi2.lookups", 0x0000000000000012),
        ("multi2.hops", 0x000000000000008b),
        ("multi2.bytes", 0x0000000000000f30),
        ("multi2.intervals", 0x0000001200000000),
        ("multi3.metric", 0x0000000000000002),
        ("multi3.estimate_bits", 0x4083b786e59223b0),
        ("multi3.registers_fnv", 0xbc97218b2357b888),
        ("multi3.probes", 0x0000000000000056),
        ("multi3.lookups", 0x0000000000000012),
        ("multi3.hops", 0x000000000000008b),
        ("multi3.bytes", 0x0000000000000f30),
        ("multi3.intervals", 0x0000001200000000),
        ("counts.hops", 0x0000000000000236),
        ("counts.messages", 0x00000000000001a1),
        ("counts.bytes", 0x0000000000003758),
        ("counts.latency_ticks", 0x0000000000000000),
        ("counts.dropped", 0x0000000000000000),
        ("counts.nodes_visited", 0x0000000000000022),
        ("counts.visits_fnv", 0x9fd54310f384626e),
        ("rng.next", 0x00d03591f3f52b1e),
        ("obs.events", 0x0000000000007f13),
        ("obs.events_fnv", 0xbecbf1cbe2c965af),
        ("obs.metrics_digest", 0xc5d52ecf06e72e80),
        ("obs.spans_digest", 0x5b23896b57066fc9),
    ];
    pub const OBSERVED_PCSA: &[(&str, u64)] = &[
        ("insert.hops", 0x000000000000165a),
        ("insert.messages", 0x0000000000000960),
        ("insert.bytes", 0x000000000000b2d0),
        ("insert.latency_ticks", 0x0000000000000000),
        ("insert.dropped", 0x0000000000000000),
        ("insert.nodes_visited", 0x0000000000000040),
        ("insert.visits_fnv", 0x44d0039b3cbf390f),
        ("bulk.shipped", 0x0000000000000061),
        ("bulk.shipped", 0x0000000000000057),
        ("bulk.hops", 0x000000000000169d),
        ("bulk.messages", 0x000000000000097e),
        ("bulk.bytes", 0x000000000000cf20),
        ("bulk.latency_ticks", 0x0000000000000000),
        ("bulk.dropped", 0x0000000000000000),
        ("bulk.nodes_visited", 0x0000000000000040),
        ("bulk.visits_fnv", 0x0ff3da0553c6bdde),
        ("refresh.shipped", 0x0000000000000044),
        ("refresh.hops", 0x00000000000016bf),
        ("refresh.messages", 0x000000000000098c),
        ("refresh.bytes", 0x000000000000dab0),
        ("refresh.latency_ticks", 0x0000000000000000),
        ("refresh.dropped", 0x0000000000000000),
        ("refresh.nodes_visited", 0x0000000000000040),
        ("refresh.visits_fnv", 0x0cb9982e56d50780),
        ("ring.state_fnv", 0x277c35a33f8389f4),
        ("count1.metric", 0x0000000000000001),
        ("count1.estimate_bits", 0x40344ab1de742128),
        ("count1.registers_fnv", 0xb9b23f3a46fd0825),
        ("count1.probes", 0x0000000000000005),
        ("count1.lookups", 0x0000000000000001),
        ("count1.hops", 0x0000000000000008),
        ("count1.bytes", 0x00000000000000c2),
        ("count1.intervals", 0x0000000100000000),
        ("count2.metric", 0x0000000000000002),
        ("count2.estimate_bits", 0x40344ab1de742128),
        ("count2.registers_fnv", 0xb9b23f3a46fd0825),
        ("count2.probes", 0x0000000000000005),
        ("count2.lookups", 0x0000000000000001),
        ("count2.hops", 0x0000000000000008),
        ("count2.bytes", 0x00000000000000c2),
        ("count2.intervals", 0x0000000100000000),
        ("count3.metric", 0x0000000000000003),
        ("count3.estimate_bits", 0x40344ab1de742128),
        ("count3.registers_fnv", 0xb9b23f3a46fd0825),
        ("count3.probes", 0x0000000000000005),
        ("count3.lookups", 0x0000000000000001),
        ("count3.hops", 0x0000000000000006),
        ("count3.bytes", 0x00000000000000a2),
        ("count3.intervals", 0x0000000100000000),
        ("multi0.metric", 0x0000000000000001),
        ("multi0.estimate_bits", 0x40344ab1de742128),
        ("multi0.registers_fnv", 0xb9b23f3a46fd0825),
        ("multi0.probes", 0x0000000000000005),
        ("multi0.lookups", 0x0000000000000001),
        ("multi0.hops", 0x0000000000000008),
        ("multi0.bytes", 0x00000000000000e0),
        ("multi0.intervals", 0x0000000100000000),
        ("multi1.metric", 0x0000000000000002),
        ("multi1.estimate_bits", 0x40344ab1de742128),
        ("multi1.registers_fnv", 0xb9b23f3a46fd0825),
        ("multi1.probes", 0x0000000000000005),
        ("multi1.lookups", 0x0000000000000001),
        ("multi1.hops", 0x0000000000000008),
        ("multi1.bytes", 0x00000000000000e0),
        ("multi1.intervals", 0x0000000100000000),
        ("multi2.metric", 0x0000000000000003),
        ("multi2.estimate_bits", 0x40344ab1de742128),
        ("multi2.registers_fnv", 0xb9b23f3a46fd0825),
        ("multi2.probes", 0x0000000000000005),
        ("multi2.lookups", 0x0000000000000001),
        ("multi2.hops", 0x0000000000000008),
        ("multi2.bytes", 0x00000000000000e0),
        ("multi2.intervals", 0x0000000100000000),
        ("multi3.metric", 0x0000000000000002),
        ("multi3.estimate_bits", 0x40344ab1de742128),
        ("multi3.registers_fnv", 0xb9b23f3a46fd0825),
        ("multi3.probes", 0x0000000000000005),
        ("multi3.lookups", 0x0000000000000001),
        ("multi3.hops", 0x0000000000000008),
        ("multi3.bytes", 0x00000000000000e0),
        ("multi3.intervals", 0x0000000100000000),
        ("counts.hops", 0x000000000000001e),
        ("counts.messages", 0x0000000000000018),
        ("counts.bytes", 0x0000000000000306),
        ("counts.latency_ticks", 0x0000000000000000),
        ("counts.dropped", 0x0000000000000000),
        ("counts.nodes_visited", 0x000000000000000c),
        ("counts.visits_fnv", 0xdaca296f2997317b),
        ("rng.next", 0x314aac64d7d29f75),
        ("obs.events", 0x000000000000730e),
        ("obs.events_fnv", 0xf1cf3b273626ce73),
        ("obs.metrics_digest", 0x237300e2d2505f93),
        ("obs.spans_digest", 0x18a06909b585f9f3),
    ];
    pub const LOSSY_SLL: &[(&str, u64)] = &[
        ("insert.hops", 0x00000000000024dd),
        ("insert.messages", 0x0000000000000fa4),
        ("insert.bytes", 0x00000000000122e0),
        ("insert.latency_ticks", 0x000000000003d601),
        ("insert.dropped", 0x00000000000007fb),
        ("insert.nodes_visited", 0x0000000000000040),
        ("insert.visits_fnv", 0x35fa16db491532c0),
        ("bulk.shipped", 0x0000000000000061),
        ("bulk.shipped", 0x0000000000000057),
        ("bulk.hops", 0x0000000000002551),
        ("bulk.messages", 0x0000000000000fd6),
        ("bulk.bytes", 0x0000000000014e10),
        ("bulk.latency_ticks", 0x000000000003e0c2),
        ("bulk.dropped", 0x0000000000000818),
        ("bulk.nodes_visited", 0x0000000000000040),
        ("bulk.visits_fnv", 0xab09b2922c5555e8),
        ("refresh.shipped", 0x0000000000000044),
        ("refresh.hops", 0x0000000000002582),
        ("refresh.messages", 0x0000000000000fed),
        ("refresh.bytes", 0x0000000000015f80),
        ("refresh.latency_ticks", 0x000000000003e6db),
        ("refresh.dropped", 0x0000000000000821),
        ("refresh.nodes_visited", 0x0000000000000040),
        ("refresh.visits_fnv", 0x2fa726d49b1a00c9),
        ("ring.state_fnv", 0x57129b37f8b0e422),
        ("count1.metric", 0x0000000000000001),
        ("count1.estimate_bits", 0x4050521b630f53d2),
        ("count1.registers_fnv", 0x35881e8521824c16),
        ("count1.probes", 0x000000000000005a),
        ("count1.lookups", 0x0000000000000014),
        ("count1.hops", 0x00000000000000cb),
        ("count1.bytes", 0x0000000000001612),
        ("count1.intervals", 0x0000001400000000),
        ("count2.metric", 0x0000000000000002),
        ("count2.estimate_bits", 0x407ea5e857676e57),
        ("count2.registers_fnv", 0xcfa2c9bfca5b14b4),
        ("count2.probes", 0x000000000000004c),
        ("count2.lookups", 0x0000000000000011),
        ("count2.hops", 0x00000000000000a8),
        ("count2.bytes", 0x00000000000011ec),
        ("count2.intervals", 0x0000001100000000),
        ("count3.metric", 0x0000000000000003),
        ("count3.estimate_bits", 0x40665d79177dc18e),
        ("count3.registers_fnv", 0xce043181d0bf7625),
        ("count3.probes", 0x000000000000003f),
        ("count3.lookups", 0x0000000000000011),
        ("count3.hops", 0x00000000000000c9),
        ("count3.bytes", 0x000000000000122a),
        ("count3.intervals", 0x0000001100000000),
        ("multi0.metric", 0x0000000000000001),
        ("multi0.estimate_bits", 0x406161db0943176e),
        ("multi0.registers_fnv", 0x296fdbb12ae27f96),
        ("multi0.probes", 0x000000000000003f),
        ("multi0.lookups", 0x0000000000000012),
        ("multi0.hops", 0x00000000000000d8),
        ("multi0.bytes", 0x0000000000001480),
        ("multi0.intervals", 0x0000001200000000),
        ("multi1.metric", 0x0000000000000002),
        ("multi1.estimate_bits", 0x407ea5e857676e57),
        ("multi1.registers_fnv", 0xcfa2c9bfca5b14b4),
        ("multi1.probes", 0x000000000000003f),
        ("multi1.lookups", 0x0000000000000012),
        ("multi1.hops", 0x00000000000000d8),
        ("multi1.bytes", 0x0000000000001480),
        ("multi1.intervals", 0x0000001200000000),
        ("multi2.metric", 0x0000000000000003),
        ("multi2.estimate_bits", 0x4070521b630f53d3),
        ("multi2.registers_fnv", 0xd6852203f7941aab),
        ("multi2.probes", 0x000000000000003f),
        ("multi2.lookups", 0x0000000000000012),
        ("multi2.hops", 0x00000000000000d8),
        ("multi2.bytes", 0x0000000000001480),
        ("multi2.intervals", 0x0000001200000000),
        ("multi3.metric", 0x0000000000000002),
        ("multi3.estimate_bits", 0x407ea5e857676e57),
        ("multi3.registers_fnv", 0xcfa2c9bfca5b14b4),
        ("multi3.probes", 0x000000000000003f),
        ("multi3.lookups", 0x0000000000000012),
        ("multi3.hops", 0x00000000000000d8),
        ("multi3.bytes", 0x0000000000001480),
        ("multi3.intervals", 0x0000001200000000),
        ("counts.hops", 0x0000000000000314),
        ("counts.messages", 0x000000000000027a),
        ("counts.bytes", 0x0000000000004ea8),
        ("counts.latency_ticks", 0x00000000000075b9),
        ("counts.dropped", 0x000000000000012e),
        ("counts.nodes_visited", 0x0000000000000021),
        ("counts.visits_fnv", 0xdac00a158284c9d9),
        ("rng.next", 0x6d6f64c6a8c3a6b7),
        ("obs.events", 0x000000000000992d),
        ("obs.events_fnv", 0xeff22e32e360a554),
        ("obs.metrics_digest", 0xeb5431df0dc39e6c),
        ("obs.spans_digest", 0xc3f1b5f2c59716f4),
        ("sim.now", 0x00000000000b7a9f),
        ("sim.sent", 0x0000000000001f21),
        ("sim.dropped", 0x000000000000094f),
        ("sim.trace_digest", 0xa764088f369ca10f),
    ];
    pub const LOSSY_PCSA: &[(&str, u64)] = &[
        ("insert.hops", 0x00000000000024dd),
        ("insert.messages", 0x0000000000000fa4),
        ("insert.bytes", 0x00000000000122e0),
        ("insert.latency_ticks", 0x000000000003d601),
        ("insert.dropped", 0x00000000000007fb),
        ("insert.nodes_visited", 0x0000000000000040),
        ("insert.visits_fnv", 0x35fa16db491532c0),
        ("bulk.shipped", 0x0000000000000061),
        ("bulk.shipped", 0x0000000000000057),
        ("bulk.hops", 0x0000000000002551),
        ("bulk.messages", 0x0000000000000fd6),
        ("bulk.bytes", 0x0000000000014e10),
        ("bulk.latency_ticks", 0x000000000003e0c2),
        ("bulk.dropped", 0x0000000000000818),
        ("bulk.nodes_visited", 0x0000000000000040),
        ("bulk.visits_fnv", 0xab09b2922c5555e8),
        ("refresh.shipped", 0x0000000000000044),
        ("refresh.hops", 0x0000000000002582),
        ("refresh.messages", 0x0000000000000fed),
        ("refresh.bytes", 0x0000000000015f80),
        ("refresh.latency_ticks", 0x000000000003e6db),
        ("refresh.dropped", 0x0000000000000821),
        ("refresh.nodes_visited", 0x0000000000000040),
        ("refresh.visits_fnv", 0x2fa726d49b1a00c9),
        ("ring.state_fnv", 0x57129b37f8b0e422),
        ("count1.metric", 0x0000000000000001),
        ("count1.estimate_bits", 0x40344ab1de742128),
        ("count1.registers_fnv", 0xb9b23f3a46fd0825),
        ("count1.probes", 0x0000000000000005),
        ("count1.lookups", 0x0000000000000001),
        ("count1.hops", 0x000000000000000c),
        ("count1.bytes", 0x0000000000000140),
        ("count1.intervals", 0x0000000100000000),
        ("count2.metric", 0x0000000000000002),
        ("count2.estimate_bits", 0x40344ab1de742128),
        ("count2.registers_fnv", 0xb9b23f3a46fd0825),
        ("count2.probes", 0x0000000000000005),
        ("count2.lookups", 0x0000000000000001),
        ("count2.hops", 0x0000000000000008),
        ("count2.bytes", 0x0000000000000130),
        ("count2.intervals", 0x0000000100000000),
        ("count3.metric", 0x0000000000000003),
        ("count3.estimate_bits", 0x40344ab1de742128),
        ("count3.registers_fnv", 0xb9b23f3a46fd0825),
        ("count3.probes", 0x0000000000000005),
        ("count3.lookups", 0x0000000000000001),
        ("count3.hops", 0x0000000000000006),
        ("count3.bytes", 0x00000000000000c2),
        ("count3.intervals", 0x0000000100000000),
        ("multi0.metric", 0x0000000000000001),
        ("multi0.estimate_bits", 0x40344ab1de742128),
        ("multi0.registers_fnv", 0xb9b23f3a46fd0825),
        ("multi0.probes", 0x0000000000000005),
        ("multi0.lookups", 0x0000000000000001),
        ("multi0.hops", 0x0000000000000008),
        ("multi0.bytes", 0x0000000000000120),
        ("multi0.intervals", 0x0000000100000000),
        ("multi1.metric", 0x0000000000000002),
        ("multi1.estimate_bits", 0x40344ab1de742128),
        ("multi1.registers_fnv", 0xb9b23f3a46fd0825),
        ("multi1.probes", 0x0000000000000005),
        ("multi1.lookups", 0x0000000000000001),
        ("multi1.hops", 0x0000000000000008),
        ("multi1.bytes", 0x0000000000000120),
        ("multi1.intervals", 0x0000000100000000),
        ("multi2.metric", 0x0000000000000003),
        ("multi2.estimate_bits", 0x40344ab1de742128),
        ("multi2.registers_fnv", 0xb9b23f3a46fd0825),
        ("multi2.probes", 0x0000000000000005),
        ("multi2.lookups", 0x0000000000000001),
        ("multi2.hops", 0x0000000000000008),
        ("multi2.bytes", 0x0000000000000120),
        ("multi2.intervals", 0x0000000100000000),
        ("multi3.metric", 0x0000000000000002),
        ("multi3.estimate_bits", 0x40344ab1de742128),
        ("multi3.registers_fnv", 0xb9b23f3a46fd0825),
        ("multi3.probes", 0x0000000000000005),
        ("multi3.lookups", 0x0000000000000001),
        ("multi3.hops", 0x0000000000000008),
        ("multi3.bytes", 0x0000000000000120),
        ("multi3.intervals", 0x0000000100000000),
        ("counts.hops", 0x0000000000000022),
        ("counts.messages", 0x0000000000000028),
        ("counts.bytes", 0x0000000000000452),
        ("counts.latency_ticks", 0x00000000000006c1),
        ("counts.dropped", 0x0000000000000012),
        ("counts.nodes_visited", 0x000000000000000c),
        ("counts.visits_fnv", 0xa1c5ef5d8af4c1c5),
        ("rng.next", 0x314aac64d7d29f75),
        ("obs.events", 0x0000000000008b3d),
        ("obs.events_fnv", 0x9941cfaf340e691d),
        ("obs.metrics_digest", 0xb52025eee7051f30),
        ("obs.spans_digest", 0xd2e396aa53ceec93),
        ("sim.now", 0x00000000000a2c2b),
        ("sim.sent", 0x0000000000001b1e),
        ("sim.dropped", 0x0000000000000833),
        ("sim.trace_digest", 0xd033990c2f04a0ef),
    ];
}
