//! The one file of the benchmark that names the repository's APIs.
//!
//! Everything the workloads, the timing and the report need from the
//! program under test goes through here: `Dhs::{insert, bulk_insert,
//! bulk_insert_cached, insert_via, count, count_hinted, count_multi,
//! count_via}`, `Ring`, `CachedOverlay`, `SimTransport`, `ShardedStore`,
//! `run_saturation`, `TenantWorkload`, and the four public trait seams
//! the traced run decorates (`Overlay`, `Transport`, `Recorder`,
//! `ColdTier`). A change to the operation surface (ROADMAP item 2's
//! `store(req)` / `scan(req)` merge) has this file as its single touch
//! point in the benchmark; `workloads.rs`, `run.rs` and the report never
//! import a `dhs_*` crate.
//!
//! Each test bed builds the state one round needs and exposes the
//! round's phases. A phase clocks only its calls into the repository —
//! inputs arrive pre-generated — and returns its duration, its exact
//! model outputs (ledger, digests, counters) and, in a traced bed, what
//! the decorators accumulated.

use std::time::Instant;

use dhs_core::{
    Dhs, DhsConfig, DirectTransport, EpochCache, MessageKind, Observed, RetryPolicy, ScanHint,
    Transport, TransportError,
};
use dhs_dht::cost::CostLedger;
use dhs_dht::ring::{Ring, RingConfig};
use dhs_dht::route_cache::CachedOverlay;
use dhs_dht::storage::StoredRecord;
use dhs_dht::Overlay;
use dhs_net::{FaultPlane, LatencyModel, SimConfig, SimTransport};
use dhs_obs::fnv::Fnv1a;
use dhs_obs::{NoopRecorder, Observer, Recorder};
use dhs_par::{run_saturation, SatConfig};
use dhs_shard::{
    classify_hash, ColdTier, MemoryColdTier, ShardConfig, ShardRouter, ShardedStore, SketchKey,
};
use dhs_sketch::tiered::TieredRegisters;
use dhs_sketch::{superloglog_estimate_from_registers, ItemHasher, SplitMix64};
use dhs_workload::relation::PAPER_RELATIONS;
use dhs_workload::zipf::Zipf;
use dhs_workload::TenantWorkload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{Acc, CallLog, Reading, SampledAcc};

/// Exact, replayable outputs of a phase, by name.
pub type Model = Vec<(&'static str, u64)>;

/// The generator every input stream is drawn from.
pub fn generator(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Uniform draw helpers, so generators outside this file need no trait
/// of the vendored `rand`.
pub fn draw_u64(rng: &mut StdRng) -> u64 {
    rng.gen()
}

pub fn draw_index(rng: &mut StdRng, len: usize) -> usize {
    rng.gen_range(0..len)
}

/// The item hash every experiment of the repository uses.
pub fn item_hash(item: u64) -> u64 {
    SplitMix64::default().hash_u64(item)
}

fn seconds_of(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

// ───────────────────────── decorators ─────────────────────────

/// Times calls through the [`Overlay`] seam. Every call is counted;
/// `route` and `put_at` are timed on one call in [`ROUTE_PUT_EVERY`],
/// `fetch_at` and the neighbour lookups through a [`CallLog`].
pub struct TimedOverlay<O> {
    inner: O,
    route: SampledAcc,
    put: SampledAcc,
    fetch: CallLog<(u64, u64)>,
    nav: CallLog<Nav>,
}

const ROUTE_PUT_EVERY: u64 = 8;

#[derive(Clone, Copy)]
enum Nav {
    Owner(u64),
    Next(u64),
    Prev(u64),
}

impl<O: Overlay> TimedOverlay<O> {
    pub fn new(inner: O) -> Self {
        TimedOverlay {
            inner,
            route: SampledAcc::every(ROUTE_PUT_EVERY),
            put: SampledAcc::every(ROUTE_PUT_EVERY),
            fetch: CallLog::default(),
            nav: CallLog::default(),
        }
    }

    fn take(&self) -> OverlayTimes {
        OverlayTimes {
            route: self.route.take(),
            put: self.put.take(),
            fetch: self.fetch.take(|(node, key)| {
                std::hint::black_box(self.inner.fetch_at(node, key));
            }),
            nav: self.nav.take(|nav| {
                std::hint::black_box(match nav {
                    Nav::Owner(key) => self.inner.owner_of(key),
                    Nav::Next(node) => self.inner.next_node(node),
                    Nav::Prev(node) => self.inner.prev_node(node),
                });
            }),
        }
    }
}

impl<O: Overlay> Overlay for TimedOverlay<O> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn time(&self) -> u64 {
        self.inner.time()
    }

    fn owner_of(&self, key: u64) -> u64 {
        self.nav.note(Nav::Owner(key));
        self.inner.owner_of(key)
    }

    fn route(&self, from: u64, key: u64, ledger: &mut CostLedger) -> u64 {
        self.route.time(|| self.inner.route(from, key, ledger))
    }

    fn route_observed(
        &self,
        from: u64,
        key: u64,
        ledger: &mut CostLedger,
        obs: &mut dyn Recorder,
    ) -> u64 {
        self.route
            .time(|| self.inner.route_observed(from, key, ledger, obs))
    }

    fn next_node(&self, node: u64) -> u64 {
        self.nav.note(Nav::Next(node));
        self.inner.next_node(node)
    }

    fn prev_node(&self, node: u64) -> u64 {
        self.nav.note(Nav::Prev(node));
        self.inner.prev_node(node)
    }

    fn put_at(&mut self, node: u64, app_key: u64, record: StoredRecord) {
        let inner = &mut self.inner;
        self.put.time(|| inner.put_at(node, app_key, record));
    }

    fn fetch_at(&self, node: u64, app_key: u64) -> Option<StoredRecord> {
        self.fetch.note((node, app_key));
        self.inner.fetch_at(node, app_key)
    }

    fn any_node(&self, rng: &mut impl Rng) -> u64 {
        self.inner.any_node(rng)
    }
}

/// What a [`TimedOverlay`] accumulated over a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlayTimes {
    pub route: Reading,
    pub put: Reading,
    pub fetch: Reading,
    pub nav: Reading,
}

impl OverlayTimes {
    pub fn plus(self, other: OverlayTimes) -> OverlayTimes {
        OverlayTimes {
            route: self.route.plus(other.route),
            put: self.put.plus(other.put),
            fetch: self.fetch.plus(other.fetch),
            nav: self.nav.plus(other.nav),
        }
    }
}

/// Times exchanges through the [`Transport`] seam and counts backoff
/// pauses.
pub struct TimedTransport<T> {
    inner: T,
    exchange: Acc,
    pauses: u64,
}

impl<T> TimedTransport<T> {
    pub fn new(inner: T) -> Self {
        TimedTransport {
            inner,
            exchange: Acc::default(),
            pauses: 0,
        }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn routed_exchange(
        &mut self,
        from: u64,
        dst: u64,
        hops: u64,
        kind: MessageKind,
        request_bytes: u64,
        response_bytes: u64,
        ledger: &mut CostLedger,
    ) -> Result<(), TransportError> {
        let inner = &mut self.inner;
        self.exchange.time(|| {
            inner.routed_exchange(from, dst, hops, kind, request_bytes, response_bytes, ledger)
        })
    }

    fn exchange(
        &mut self,
        from: u64,
        dst: u64,
        kind: MessageKind,
        request_bytes: u64,
        response_bytes: u64,
        ledger: &mut CostLedger,
    ) -> Result<(), TransportError> {
        let inner = &mut self.inner;
        self.exchange
            .time(|| inner.exchange(from, dst, kind, request_bytes, response_bytes, ledger))
    }

    fn pause(&mut self, ticks: u64) {
        self.pauses += 1;
        self.inner.pause(ticks);
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn retry_policy(&self) -> RetryPolicy {
        self.inner.retry_policy()
    }

    fn recorder(&mut self) -> Option<&mut dyn Recorder> {
        self.inner.recorder()
    }
}

/// Times every event through the [`Recorder`] seam.
pub struct TimedRecorder<R> {
    inner: R,
    record: Acc,
}

impl<R> TimedRecorder<R> {
    pub fn new(inner: R) -> Self {
        TimedRecorder {
            inner,
            record: Acc::default(),
        }
    }
}

impl<R: Recorder> Recorder for TimedRecorder<R> {
    fn incr(&mut self, name: &'static str, delta: u64) {
        let inner = &mut self.inner;
        self.record.time(|| inner.incr(name, delta));
    }

    fn observe(&mut self, name: &'static str, value: u64) {
        let inner = &mut self.inner;
        self.record.time(|| inner.observe(name, value));
    }

    fn gauge_set(&mut self, name: &'static str, value: u64) {
        let inner = &mut self.inner;
        self.record.time(|| inner.gauge_set(name, value));
    }

    fn delivered(&mut self, kind: u8, dst: u64) {
        let inner = &mut self.inner;
        self.record.time(|| inner.delivered(kind, dst));
    }

    fn span_start(&mut self, name: &'static str, arg: u64, now: u64) -> u64 {
        let inner = &mut self.inner;
        self.record.time(|| inner.span_start(name, arg, now))
    }

    fn span_end(&mut self, id: u64, now: u64) {
        let inner = &mut self.inner;
        self.record.time(|| inner.span_end(id, now));
    }
}

/// Times spills and recoveries through the [`ColdTier`] seam.
pub struct TimedCold<C> {
    inner: C,
    spill: Acc,
    recover: Acc,
}

impl<C> TimedCold<C> {
    pub fn new(inner: C) -> Self {
        TimedCold {
            inner,
            spill: Acc::default(),
            recover: Acc::default(),
        }
    }
}

impl<C: ColdTier> ColdTier for TimedCold<C> {
    fn spill(&mut self, key: SketchKey, wire: Vec<u8>) {
        let inner = &mut self.inner;
        self.spill.time(|| inner.spill(key, wire));
    }

    fn recover(&mut self, key: SketchKey) -> Option<Vec<u8>> {
        let inner = &mut self.inner;
        self.recover.time(|| inner.recover(key))
    }
}

/// An overlay as a phase sees it: bare in an untraced bed, decorated in
/// a traced one. Matched once per phase, so the untraced loop is
/// monomorphised over the bare type.
enum Ov<O> {
    Plain(O),
    Traced(TimedOverlay<O>),
}

impl<O: Overlay> Ov<O> {
    fn new(inner: O, traced: bool) -> Self {
        if traced {
            Ov::Traced(TimedOverlay::new(inner))
        } else {
            Ov::Plain(inner)
        }
    }

    fn inner(&self) -> &O {
        match self {
            Ov::Plain(o) => o,
            Ov::Traced(t) => &t.inner,
        }
    }

    fn take(&self) -> OverlayTimes {
        match self {
            Ov::Plain(_) => OverlayTimes::default(),
            Ov::Traced(t) => t.take(),
        }
    }
}

macro_rules! with_overlay {
    ($ov:expr, $o:ident => $body:expr) => {
        match $ov {
            Ov::Plain($o) => $body,
            Ov::Traced($o) => $body,
        }
    };
}

// ───────────────────────── DHT beds ─────────────────────────

/// Overlay and sketch geometry of a DHT bed.
#[derive(Debug, Clone, Copy)]
pub struct DhtShape {
    pub nodes: usize,
    pub m: usize,
    pub k: u32,
}

fn protocol(shape: &DhtShape) -> Dhs {
    Dhs::new(DhsConfig {
        k: shape.k,
        m: shape.m,
        ..DhsConfig::default()
    })
    .expect("benchmark shapes are valid DHS configurations")
}

fn ledger_model(prefix: [&'static str; 3], ledger: &CostLedger, model: &mut Model) {
    model.push((prefix[0], ledger.hops()));
    model.push((prefix[1], ledger.messages()));
    model.push((prefix[2], ledger.bytes()));
}

/// FNV fold of every live stored tuple, node by node in identifier
/// order: equal iff two rings hold the same soft state.
fn ring_digest(ring: &Ring) -> u64 {
    let now = ring.now();
    let mut h = Fnv1a::new();
    for &node in ring.alive_ids() {
        if let Some(store) = ring.store_of(node) {
            for (app_key, rec) in store.iter() {
                if rec.expires_at > now {
                    h.update(&node.to_le_bytes());
                    h.update(&app_key.to_le_bytes());
                }
            }
        }
    }
    h.finish()
}

/// One `Dhs::insert`.
#[derive(Debug, Clone, Copy)]
pub struct InsertOp {
    pub metric: u32,
    pub key: u64,
    pub origin: u64,
}

/// The `fast` phase's access stream: Zipf-shared item hashes, flushed
/// in fixed batches from a few origins over a run of TTL epochs.
pub struct FastInput {
    pub accesses: Vec<u64>,
    pub epoch_len: usize,
    pub flush_len: usize,
    pub origins: Vec<u64>,
    pub metrics: u32,
}

/// `len` item hashes drawn Zipf(`theta`) over `domain` distinct items.
pub fn zipf_accesses(rng: &mut StdRng, domain: usize, theta: f64, len: usize) -> Vec<u64> {
    let zipf = Zipf::new(domain, theta);
    (0..len)
        .map(|_| item_hash(zipf.sample(rng) as u64))
        .collect()
}

/// Outcome of a write phase.
pub struct WriteRun {
    pub secs: f64,
    pub model: Model,
    pub overlay: OverlayTimes,
}

/// Outcome of a pass over `Observed<DirectTransport, Observer>`.
pub struct ObservedRun {
    /// Seconds of the whole pass, events recorded but not timed.
    pub secs: f64,
    /// Events of the pass's first quarter, each timed.
    pub record: Reading,
}

/// `dhs-write`: a fresh ring per phase, inserted into one item at a
/// time (`insert`) or through the cached, batched stack (`fast`).
pub struct WriteBed {
    dhs: Dhs,
    base: Ring,
    traced: bool,
}

impl WriteBed {
    pub fn new(shape: &DhtShape, seed: u64, traced: bool) -> Self {
        let base = Ring::build(shape.nodes, RingConfig::default(), &mut generator(seed));
        WriteBed {
            dhs: protocol(shape),
            base,
            traced,
        }
    }

    pub fn node_ids(&self) -> &[u64] {
        self.base.alive_ids()
    }

    pub fn insert_phase(&self, ops: &[InsertOp], seed: u64) -> WriteRun {
        let mut ov = Ov::new(self.base.clone(), self.traced);
        let mut rng = generator(seed);
        let mut ledger = CostLedger::new();
        let dhs = &self.dhs;
        let secs = with_overlay!(&mut ov, o => seconds_of(|| {
            for op in ops {
                dhs.insert(o, op.metric, op.key, op.origin, &mut rng, &mut ledger);
            }
        }));
        let mut model = Model::new();
        ledger_model(
            ["insert.hops", "insert.messages", "insert.bytes"],
            &ledger,
            &mut model,
        );
        model.push(("insert.ring_digest", ring_digest(ov.inner())));
        model.push(("insert.rng_next", rng.gen()));
        WriteRun {
            secs,
            model,
            overlay: ov.take(),
        }
    }

    pub fn fast_phase(&self, input: &FastInput, seed: u64) -> WriteRun {
        let mut ov = Ov::new(CachedOverlay::new(self.base.clone()), self.traced);
        let mut cache = EpochCache::new(self.dhs.config());
        let mut rng = generator(seed);
        let mut ledger = CostLedger::new();
        let dhs = &self.dhs;
        let secs = with_overlay!(&mut ov, o => seconds_of(|| {
            let mut flush_no = 0usize;
            for (epoch, chunk) in input.accesses.chunks(input.epoch_len).enumerate() {
                if epoch > 0 {
                    cache.roll_epoch();
                }
                for flush in chunk.chunks(input.flush_len) {
                    let metric = 1 + (flush_no % input.metrics as usize) as u32;
                    let origin = input.origins[flush_no % input.origins.len()];
                    flush_no += 1;
                    dhs.bulk_insert_cached(o, &mut cache, metric, flush, origin, &mut rng, &mut ledger);
                }
            }
        }));
        let route = ov.inner().cache_stats();
        let mut model = Model::new();
        ledger_model(
            ["fast.hops", "fast.messages", "fast.bytes"],
            &ledger,
            &mut model,
        );
        model.push(("fast.elide_hits", cache.hits()));
        model.push(("fast.elide_misses", cache.misses()));
        model.push(("fast.route_hits", route.hits));
        model.push(("fast.route_misses", route.misses));
        model.push(("fast.ring_digest", ring_digest(ov.inner().inner())));
        model.push(("fast.rng_next", rng.gen()));
        WriteRun {
            secs,
            model,
            overlay: ov.take(),
        }
    }

    /// The `insert` phase again with observability on — what dhs-obs
    /// costs an insert when it is not off — then its first quarter once
    /// more with every event timed.
    pub fn observed_insert_pass(&self, ops: &[InsertOp], seed: u64) -> ObservedRun {
        let intervals = self.dhs.config().num_intervals() as usize;
        let (secs, _) = self.observed_inserts(ops, seed, Observer::new(intervals));
        let (_, timed) = self.observed_inserts(
            &ops[..ops.len() / 4],
            seed,
            TimedRecorder::new(Observer::new(intervals)),
        );
        ObservedRun {
            secs,
            record: timed.record.take(),
        }
    }

    fn observed_inserts<R: Recorder>(&self, ops: &[InsertOp], seed: u64, rec: R) -> (f64, R) {
        let mut ring = self.base.clone();
        let mut rng = generator(seed);
        let mut ledger = CostLedger::new();
        let mut transport = Observed::new(DirectTransport, rec);
        let secs = seconds_of(|| {
            for op in ops {
                self.dhs.insert_via(
                    &mut ring,
                    &mut transport,
                    op.metric,
                    op.key,
                    op.origin,
                    &mut rng,
                    &mut ledger,
                );
            }
        });
        (secs, transport.into_parts().1)
    }
}

/// One single-metric count.
#[derive(Debug, Clone, Copy)]
pub struct CountOp {
    pub metric: u32,
    pub origin: u64,
}

/// Outcome of a counting phase. `lat_ns` has one entry per operation;
/// `rel_errs` one per estimate (a 4-metric scan yields four).
#[derive(Default)]
pub struct CountRun {
    pub secs: f64,
    pub lat_ns: Vec<u64>,
    pub rel_errs: Vec<f64>,
    /// Hinted counts re-run unhinted that did not match bit for bit.
    pub hint_mismatches: u64,
    pub hint_checks: u64,
    pub model: Model,
    pub overlay: OverlayTimes,
}

/// The model-output names of one counting phase.
macro_rules! tally_names {
    ($phase:literal) => {
        [
            concat!($phase, ".hops"),
            concat!($phase, ".messages"),
            concat!($phase, ".bytes"),
            concat!($phase, ".estimates"),
            concat!($phase, ".lookups"),
            concat!($phase, ".probes"),
            concat!($phase, ".intervals"),
            concat!($phase, ".skipped"),
            concat!($phase, ".rng_next"),
        ]
    };
}

/// Running totals a counting loop keeps outside its timed calls.
struct CountTally {
    names: [&'static str; 9],
    ledger: CostLedger,
    estimates: Fnv1a,
    lookups: u64,
    probes: u64,
    intervals: u64,
    skipped: u64,
}

impl CountTally {
    fn new(names: [&'static str; 9]) -> Self {
        CountTally {
            names,
            ledger: CostLedger::new(),
            estimates: Fnv1a::new(),
            lookups: 0,
            probes: 0,
            intervals: 0,
            skipped: 0,
        }
    }

    fn add(&mut self, results: &[dhs_core::CountResult], actual: &[u64], errs: &mut Vec<f64>) {
        let stats = results[0].stats;
        self.lookups += stats.lookups;
        self.probes += stats.probes;
        self.intervals += u64::from(stats.intervals_scanned);
        self.skipped += u64::from(stats.intervals_skipped);
        for r in results {
            self.estimates.update(&r.estimate.to_bits().to_le_bytes());
            errs.push(r.relative_error(actual[(r.metric - 1) as usize]));
        }
    }

    fn model(&self) -> Model {
        let n = self.names;
        vec![
            (n[0], self.ledger.hops()),
            (n[1], self.ledger.messages()),
            (n[2], self.ledger.bytes()),
            (n[3], self.estimates.finish()),
            (n[4], self.lookups),
            (n[5], self.probes),
            (n[6], self.intervals),
            (n[7], self.skipped),
        ]
    }
}

/// `dhs-read`: a ring holding the four paper relations, counted from
/// random nodes. Counting does not change the ring, so one bed serves
/// every phase and every replay of a round.
pub struct ReadBed {
    dhs: Dhs,
    ring: Ov<Ring>,
    actual: Vec<u64>,
    /// Registers of the last estimate, for timing the estimator alone.
    last_registers: Vec<u8>,
}

impl ReadBed {
    /// Build the ring and record the paper's relations Q, R, S, T at
    /// `scale` as metrics 1..=4: each tuple goes to a uniformly random
    /// node, which bulk-inserts its batch (§3.2's grouped update round).
    /// Tuple ids are the relations' own (tag ‖ index), as everywhere in
    /// the repository; the seed drives the ring, the placement and the
    /// routing keys.
    pub fn new(shape: &DhtShape, scale: f64, seed: u64, traced: bool) -> Self {
        let dhs = protocol(shape);
        let mut rng = generator(seed);
        let mut ring = Ring::build(shape.nodes, RingConfig::default(), &mut rng);
        let ids: Vec<u64> = ring.alive_ids().to_vec();
        let mut ledger = CostLedger::new();
        let mut actual = Vec::new();
        for (i, spec) in PAPER_RELATIONS.iter().enumerate() {
            let tuples = spec.scaled_tuples(scale);
            let tag = (i as u64 + 1) << 56;
            let mut batches: Vec<Vec<u64>> = vec![Vec::new(); ids.len()];
            for t in 0..tuples {
                batches[rng.gen_range(0..ids.len())].push(item_hash(tag | t));
            }
            for (node, batch) in batches.iter().enumerate() {
                if !batch.is_empty() {
                    dhs.bulk_insert(
                        &mut ring,
                        i as u32 + 1,
                        batch,
                        ids[node],
                        &mut rng,
                        &mut ledger,
                    );
                }
            }
            actual.push(tuples);
        }
        ReadBed {
            dhs,
            ring: Ov::new(ring, traced),
            actual,
            last_registers: Vec::new(),
        }
    }

    pub fn node_ids(&self) -> &[u64] {
        self.ring.inner().alive_ids()
    }

    pub fn metrics(&self) -> u32 {
        self.actual.len() as u32
    }

    pub fn count_phase(&mut self, ops: &[CountOp], seed: u64) -> CountRun {
        let mut rng = generator(seed);
        let mut tally = CountTally::new(tally_names!("count"));
        let mut run = CountRun::default();
        let mut last = None;
        let dhs = &self.dhs;
        with_overlay!(&self.ring, o => for op in ops {
            let start = Instant::now();
            let result = dhs.count(o, op.metric, op.origin, &mut rng, &mut tally.ledger);
            run.lat_ns.push(start.elapsed().as_nanos() as u64);
            tally.add(std::slice::from_ref(&result), &self.actual, &mut run.rel_errs);
            last = Some(result);
        });
        if let Some(result) = last {
            self.last_registers = result.registers.iter().map(|&r| r as u8).collect();
        }
        self.finish(run, tally, rng)
    }

    /// `count_hinted` with a hint warmed by one untimed count per
    /// metric. Every `check_every`-th operation is re-run unhinted from
    /// a clone of the RNG, outside the clock: registers and estimate
    /// must match bit for bit.
    pub fn hinted_phase(&mut self, ops: &[CountOp], seed: u64, check_every: usize) -> CountRun {
        let mut rng = generator(seed);
        let mut hint = ScanHint::new();
        let mut tally = CountTally::new(tally_names!("hinted"));
        let mut run = CountRun::default();
        let dhs = &self.dhs;
        let mut kept = OverlayTimes::default();
        with_overlay!(&self.ring, o => {
            let origin = ops[0].origin;
            for metric in 1..=self.actual.len() as u32 {
                dhs.count_hinted(o, &mut hint, metric, origin, &mut rng, &mut CostLedger::new());
            }
            let _ = self.ring.take();
            for (i, op) in ops.iter().enumerate() {
                let replay_rng = (i % check_every == 0).then(|| rng.clone());
                let start = Instant::now();
                let result =
                    dhs.count_hinted(o, &mut hint, op.metric, op.origin, &mut rng, &mut tally.ledger);
                run.lat_ns.push(start.elapsed().as_nanos() as u64);
                tally.add(std::slice::from_ref(&result), &self.actual, &mut run.rel_errs);
                if let Some(mut replay_rng) = replay_rng {
                    // The check's overlay calls are not the phase's.
                    kept = kept.plus(self.ring.take());
                    let full =
                        dhs.count(o, op.metric, op.origin, &mut replay_rng, &mut CostLedger::new());
                    let _ = self.ring.take();
                    run.hint_checks += 1;
                    if full.registers != result.registers
                        || full.estimate.to_bits() != result.estimate.to_bits()
                    {
                        run.hint_mismatches += 1;
                    }
                }
            }
        });
        run.overlay = kept;
        self.finish(run, tally, rng)
    }

    pub fn multi_phase(&mut self, origins: &[u64], seed: u64) -> CountRun {
        let mut rng = generator(seed);
        let metrics: Vec<u32> = (1..=self.actual.len() as u32).collect();
        let mut tally = CountTally::new(tally_names!("multi"));
        let mut run = CountRun::default();
        let dhs = &self.dhs;
        with_overlay!(&self.ring, o => for &origin in origins {
            let start = Instant::now();
            let results = dhs.count_multi(o, &metrics, origin, &mut rng, &mut tally.ledger);
            run.lat_ns.push(start.elapsed().as_nanos() as u64);
            tally.add(&results, &self.actual, &mut run.rel_errs);
        });
        self.finish(run, tally, rng)
    }

    fn finish(&self, mut run: CountRun, tally: CountTally, mut rng: StdRng) -> CountRun {
        run.secs = run.lat_ns.iter().sum::<u64>() as f64 / 1e9;
        run.model = tally.model();
        // The next draw: equal iff the phase drew as often as its twin.
        run.model.push((tally.names[8], rng.gen()));
        run.overlay = run.overlay.plus(self.ring.take());
        run
    }

    /// The `count` phase again with observability on, then its first
    /// quarter once more with every event timed.
    pub fn observed_count_pass(&self, ops: &[CountOp], seed: u64) -> ObservedRun {
        let intervals = self.dhs.config().num_intervals() as usize;
        let (secs, _) = self.observed_counts(ops, seed, Observer::new(intervals));
        let (_, timed) = self.observed_counts(
            &ops[..ops.len() / 4],
            seed,
            TimedRecorder::new(Observer::new(intervals)),
        );
        ObservedRun {
            secs,
            record: timed.record.take(),
        }
    }

    fn observed_counts<R: Recorder>(&self, ops: &[CountOp], seed: u64, rec: R) -> (f64, R) {
        let mut rng = generator(seed);
        let mut ledger = CostLedger::new();
        let mut transport = Observed::new(DirectTransport, rec);
        let ring = self.ring.inner();
        let secs = seconds_of(|| {
            for op in ops {
                self.dhs.count_via(
                    ring,
                    &mut transport,
                    op.metric,
                    op.origin,
                    &mut rng,
                    &mut ledger,
                );
            }
        });
        (secs, transport.into_parts().1)
    }

    /// Mean ns of `superloglog_estimate_from_registers` on the registers
    /// of the last count (`m` of the bed's shape).
    pub fn estimator_ns(&self, iters: u32) -> f64 {
        let regs = &self.last_registers;
        let secs = seconds_of(|| {
            for _ in 0..iters {
                std::hint::black_box(superloglog_estimate_from_registers(std::hint::black_box(
                    regs,
                )));
            }
        });
        secs * 1e9 / f64::from(iters)
    }
}

// ───────────────────────── net bed ─────────────────────────

/// The fault plane and retry policy of `net-lossy`.
#[derive(Debug, Clone, Copy)]
pub struct NetFaults {
    pub latency_mu: f64,
    pub latency_sigma: f64,
    pub latency_cap: u64,
    pub loss: f64,
    pub duplication: f64,
    pub reorder_jitter: u64,
    pub retry_attempts: u32,
    pub retry_base: u64,
    pub retry_cap: u64,
}

/// A transport as a sub-round sees it (see [`Ov`]).
enum Net {
    Plain(SimTransport),
    Traced(TimedTransport<SimTransport>),
}

/// One routed `insert_via`.
#[derive(Debug, Clone, Copy)]
pub struct NetInsert {
    pub key: u64,
    pub origin: u64,
}

/// Outcome of one sub-round: a batch of `insert_via`, then a batch of
/// `count_via`, over one fresh `SimTransport`.
#[derive(Default)]
pub struct NetRun {
    pub insert_secs: f64,
    pub count_secs: f64,
    pub rel_errs: Vec<f64>,
    pub insert_overlay: OverlayTimes,
    pub count_overlay: OverlayTimes,
    pub insert_exchange: Reading,
    pub count_exchange: Reading,
    pub retry_pauses: u64,
    /// Virtual ticks the count batch waited.
    pub count_ticks: u64,
}

impl NetRun {
    /// Add a later sub-round's outcome to this one.
    pub fn absorb(&mut self, other: NetRun) {
        self.insert_secs += other.insert_secs;
        self.count_secs += other.count_secs;
        self.rel_errs.extend(other.rel_errs);
        self.insert_overlay = self.insert_overlay.plus(other.insert_overlay);
        self.count_overlay = self.count_overlay.plus(other.count_overlay);
        self.insert_exchange = self.insert_exchange.plus(other.insert_exchange);
        self.count_exchange = self.count_exchange.plus(other.count_exchange);
        self.retry_pauses += other.retry_pauses;
        self.count_ticks += other.count_ticks;
    }
}

/// `net-lossy`: a pre-populated ring driven through the simulator.
pub struct NetBed {
    dhs: Dhs,
    ring: Ov<Ring>,
    traced: bool,
    faults: NetFaults,
    rng: StdRng,
    /// Distinct items recorded so far: the counts' ground truth, and
    /// the next fresh item id.
    items: u64,
    ledger: CostLedger,
    /// Telemetry totals and estimate digest over the sub-rounds so far.
    sent: u64,
    dropped: u64,
    duplicates: u64,
    ticks: u64,
    estimates: Fnv1a,
}

impl NetBed {
    /// Build the ring and record items `0..prepop` under metric 1, one
    /// direct `insert` each from a random node.
    pub fn new(shape: &DhtShape, prepop: u64, faults: NetFaults, seed: u64, traced: bool) -> Self {
        let dhs = protocol(shape);
        let mut rng = generator(seed);
        let mut ring = Ring::build(shape.nodes, RingConfig::default(), &mut rng);
        let mut ledger = CostLedger::new();
        for item in 0..prepop {
            let origin = ring.random_alive(&mut rng);
            dhs.insert(&mut ring, 1, item_hash(item), origin, &mut rng, &mut ledger);
        }
        NetBed {
            dhs,
            ring: Ov::new(ring, traced),
            traced,
            faults,
            rng,
            items: prepop,
            ledger: CostLedger::new(),
            sent: 0,
            dropped: 0,
            duplicates: 0,
            ticks: 0,
            estimates: Fnv1a::new(),
        }
    }

    pub fn node_ids(&self) -> &[u64] {
        self.ring.inner().alive_ids()
    }

    /// The next `n` never-seen items, each with a random origin.
    pub fn fresh_inserts(&mut self, n: usize, rng: &mut StdRng) -> Vec<NetInsert> {
        let ids = self.ring.inner().alive_ids();
        let first = self.items;
        self.items += n as u64;
        (first..self.items)
            .map(|item| NetInsert {
                key: item_hash(item),
                origin: ids[rng.gen_range(0..ids.len())],
            })
            .collect()
    }

    pub fn sub_round(
        &mut self,
        inserts: &[NetInsert],
        count_origins: &[u64],
        sim_seed: u64,
    ) -> NetRun {
        let f = self.faults;
        let sim = SimTransport::new(SimConfig {
            seed: sim_seed,
            latency: LatencyModel::LogNormal {
                mu: f.latency_mu,
                sigma: f.latency_sigma,
                cap: f.latency_cap,
            },
            faults: FaultPlane {
                loss: f.loss,
                duplication: f.duplication,
                reorder_jitter: f.reorder_jitter,
                ..FaultPlane::none()
            },
            retry: RetryPolicy::new(f.retry_attempts, f.retry_base, f.retry_cap),
            ..SimConfig::default()
        });
        let mut net = if self.traced {
            Net::Traced(TimedTransport::new(sim))
        } else {
            Net::Plain(sim)
        };
        let dhs = &self.dhs;
        let (rng, ledger, estimates) = (&mut self.rng, &mut self.ledger, &mut self.estimates);
        let mut rel_errs = Vec::with_capacity(count_origins.len());
        let actual = self.items;

        macro_rules! with_net {
            ($t:ident => $body:expr) => {
                match &mut net {
                    Net::Plain($t) => $body,
                    Net::Traced($t) => $body,
                }
            };
        }
        let take_exchange = |net: &Net| match net {
            Net::Plain(_) => Reading::default(),
            Net::Traced(t) => t.exchange.take(),
        };

        let insert_secs = with_overlay!(&mut self.ring, o => with_net!(t => seconds_of(|| {
            for op in inserts {
                dhs.insert_via(o, t, 1, op.key, op.origin, rng, ledger);
            }
        })));
        let insert_overlay = self.ring.take();
        let insert_exchange = take_exchange(&net);

        let ticks_before = with_net!(t => t.now());
        let count_secs = with_overlay!(&self.ring, o => with_net!(t => seconds_of(|| {
            for &origin in count_origins {
                let result = dhs.count_via(o, t, 1, origin, rng, ledger);
                estimates.update(&result.estimate.to_bits().to_le_bytes());
                rel_errs.push(result.relative_error(actual));
            }
        })));
        let count_ticks = with_net!(t => t.now()) - ticks_before;
        let count_overlay = self.ring.take();
        let count_exchange = take_exchange(&net);

        let (sim, retry_pauses) = match net {
            Net::Plain(sim) => (sim, 0),
            Net::Traced(t) => (t.inner, t.pauses),
        };
        let telemetry = sim.telemetry();
        self.sent += telemetry.sent();
        self.dropped += telemetry.dropped();
        self.duplicates += telemetry.duplicates();
        self.ticks += count_ticks;
        NetRun {
            insert_secs,
            count_secs,
            rel_errs,
            insert_overlay,
            count_overlay,
            insert_exchange,
            count_exchange,
            retry_pauses,
            count_ticks,
        }
    }

    /// Exact outputs of every sub-round so far.
    pub fn model(&self) -> Model {
        let mut model = vec![
            ("net.sent", self.sent),
            ("net.dropped", self.dropped),
            ("net.duplicates", self.duplicates),
            ("net.ticks", self.ticks),
            ("net.estimates", self.estimates.finish()),
            ("net.ring_digest", ring_digest(self.ring.inner())),
            ("net.rng_next", self.rng.clone().gen()),
        ];
        ledger_model(
            ["net.hops", "net.messages", "net.bytes"],
            &self.ledger,
            &mut model,
        );
        model
    }
}

// ───────────────────────── tenant bed ─────────────────────────

/// Shape of the multi-tenant stream and of the store it feeds.
#[derive(Debug, Clone, Copy)]
pub struct TenantShape {
    pub tenants: u32,
    pub metrics_per_tenant: u32,
    pub theta: f64,
    pub extra_updates: u64,
    pub shards: usize,
    pub m: usize,
}

impl TenantShape {
    fn workload(&self) -> TenantWorkload {
        TenantWorkload {
            tenants: self.tenants,
            metrics_per_tenant: self.metrics_per_tenant,
            theta: self.theta,
            extra_updates: self.extra_updates,
        }
    }

    pub fn keys(&self) -> u64 {
        self.workload().total_metrics()
    }
}

/// A materialised `TenantWorkload` stream: the registration pass (every
/// key once, in order) then the Zipf pass.
pub struct TenantStream {
    shape: TenantShape,
    seed: u64,
    keys: Vec<SketchKey>,
    items: Vec<u64>,
    hashes: Vec<u64>,
}

impl TenantStream {
    pub fn generate(shape: &TenantShape, seed: u64) -> Self {
        let workload = shape.workload();
        let n = workload.total_updates() as usize;
        let mut keys = Vec::with_capacity(n);
        let mut items = Vec::with_capacity(n);
        workload.visit(&mut generator(seed), |u| {
            keys.push(SketchKey::new(u.tenant, u.metric));
            items.push(u.item);
        });
        let hasher = SplitMix64::default();
        let hashes = items.iter().map(|&i| hasher.hash_u64(i)).collect();
        TenantStream {
            shape: *shape,
            seed,
            keys,
            items,
            hashes,
        }
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Length of the registration pass.
    pub fn registration_len(&self) -> usize {
        self.shape.keys() as usize
    }

    fn all_keys(&self) -> impl Iterator<Item = SketchKey> + '_ {
        let per = self.shape.metrics_per_tenant;
        (0..self.shape.tenants)
            .flat_map(move |t| (0..per).map(move |m| SketchKey::new(t as u16, m as u16)))
    }
}

/// A store after the `store` phase, kept for `estimate`.
pub struct FilledStore {
    store: ShardedStore,
    pub secs: f64,
    /// Seconds of the registration-pass and Zipf-pass slices.
    pub pass_secs: (f64, f64),
    pub bytes_per_sketch: f64,
    pub resident: u64,
    /// Largest per-shard accounted-byte peak.
    pub peak_shard_bytes: u64,
    pub promotions: u64,
    pub record: Reading,
}

/// Outcome of the `estimate` phase.
pub struct EstimateRun {
    pub secs: f64,
    /// Estimate bits per key, in key order.
    pub estimates: Vec<u64>,
    pub missing: u64,
    /// The driver's digest formula over these estimates.
    pub state_digest: u64,
}

/// Outcome of the `evict` phase.
pub struct EvictRun {
    pub secs: f64,
    pub evictions: u64,
    pub recoveries: u64,
    pub spilled_bytes: u64,
    pub eviction_digest: u64,
    pub spill: Reading,
    pub recover: Reading,
    /// Estimate bits of every `sample_every`-th key after the phase.
    pub sample: Vec<Option<u64>>,
}

/// Outcome of one `run_saturation`.
pub struct DriverRun {
    pub secs: f64,
    pub items: u64,
    pub keys: u64,
    pub chunks: u64,
    pub state_digest: u64,
    pub metrics_digest: u64,
    /// Updates each worker applied.
    pub worker_items: Vec<u64>,
}

fn observe_stream<C: ColdTier>(
    store: &mut ShardedStore<C>,
    stream: &TenantStream,
    range: std::ops::Range<usize>,
    rec: &mut dyn Recorder,
) -> f64 {
    let (keys, hashes) = (&stream.keys[range.clone()], &stream.hashes[range]);
    seconds_of(|| {
        for (&key, &hash) in keys.iter().zip(hashes) {
            store.observe_item(key, hash, rec);
        }
    })
}

/// `store`: every update through `ShardedStore::observe_item` with no
/// budget. With `timed_recorder` the store reports into a
/// `Timed<Observer>` instead of the no-op recorder.
pub fn store_phase(stream: &TenantStream, timed_recorder: bool) -> FilledStore {
    let shape = &stream.shape;
    let mut store = ShardedStore::new(ShardConfig::new(shape.shards, shape.m))
        .expect("benchmark shapes are valid shard configurations");
    let reg = stream.registration_len();
    let (pass_secs, record) = if timed_recorder {
        let mut rec = TimedRecorder::new(Observer::new(1));
        let a = observe_stream(&mut store, stream, 0..reg, &mut rec);
        let b = observe_stream(&mut store, stream, reg..stream.len(), &mut rec);
        ((a, b), rec.record.take())
    } else {
        let mut rec = NoopRecorder;
        let a = observe_stream(&mut store, stream, 0..reg, &mut rec);
        let b = observe_stream(&mut store, stream, reg..stream.len(), &mut rec);
        ((a, b), Reading::default())
    };
    let stats = store.stats();
    FilledStore {
        secs: pass_secs.0 + pass_secs.1,
        pass_secs,
        bytes_per_sketch: store.total_bytes() as f64 / store.resident() as f64,
        resident: store.resident() as u64,
        peak_shard_bytes: stats.iter().map(|s| s.peak_bytes).max().unwrap_or(0),
        promotions: stats
            .iter()
            .map(|s| s.promotions_packed + s.promotions_dense)
            .sum(),
        record,
        store,
    }
}

/// `estimate`: `ShardedStore::estimate` on every key, in key order.
pub fn estimate_phase(filled: &mut FilledStore, stream: &TenantStream) -> EstimateRun {
    let keys: Vec<SketchKey> = stream.all_keys().collect();
    let mut estimates = Vec::with_capacity(keys.len());
    let mut missing = 0;
    let mut rec = NoopRecorder;
    let store = &mut filled.store;
    let secs = seconds_of(|| {
        for &key in &keys {
            match store.estimate(key, &mut rec) {
                Some(e) => estimates.push(e.to_bits()),
                None => {
                    missing += 1;
                    estimates.push(0);
                }
            }
        }
    });
    // `run_saturation`'s state digest: per shard, keys ascending, FNV of
    // (packed key, estimate bits); shard digests folded in shard order.
    let router = ShardRouter::new(stream.shape.shards);
    let mut shards: Vec<Fnv1a> = (0..stream.shape.shards).map(|_| Fnv1a::new()).collect();
    for (&key, &bits) in keys.iter().zip(&estimates) {
        let h = &mut shards[router.shard_of(key)];
        h.update(&key.packed().to_le_bytes());
        h.update(&bits.to_le_bytes());
    }
    let mut state = Fnv1a::new();
    for (shard, h) in shards.iter().enumerate() {
        state.update(&(shard as u64).to_le_bytes());
        state.update(&h.finish().to_le_bytes());
    }
    EstimateRun {
        secs,
        estimates,
        missing,
        state_digest: state.finish(),
    }
}

/// `evict`: the same stream into a store whose per-shard budget is
/// `budget` bytes, spilling to a `MemoryColdTier`.
pub fn evict_phase(
    stream: &TenantStream,
    budget: u64,
    sample_every: usize,
    traced: bool,
) -> EvictRun {
    let cfg = ShardConfig::new(stream.shape.shards, stream.shape.m).with_budget(budget);
    let mut rec = NoopRecorder;
    let keys = stream.all_keys().step_by(sample_every);
    if traced {
        let mut store = ShardedStore::with_cold_tier(cfg, TimedCold::new(MemoryColdTier::new()))
            .expect("benchmark shapes are valid shard configurations");
        let secs = observe_stream(&mut store, stream, 0..stream.len(), &mut rec);
        let (spill, recover) = (store.cold().spill.take(), store.cold().recover.take());
        evict_outcome(store, secs, spill, recover, keys)
    } else {
        let mut store = ShardedStore::with_cold_tier(cfg, MemoryColdTier::new())
            .expect("benchmark shapes are valid shard configurations");
        let secs = observe_stream(&mut store, stream, 0..stream.len(), &mut rec);
        evict_outcome(store, secs, Reading::default(), Reading::default(), keys)
    }
}

fn evict_outcome<C: ColdTier>(
    mut store: ShardedStore<C>,
    secs: f64,
    spill: Reading,
    recover: Reading,
    sample_keys: impl Iterator<Item = SketchKey>,
) -> EvictRun {
    let stats = store.stats();
    let eviction_digest = store.eviction_digest();
    let mut rec = NoopRecorder;
    let sample = sample_keys
        .map(|key| store.estimate(key, &mut rec).map(f64::to_bits))
        .collect();
    EvictRun {
        secs,
        evictions: stats.iter().map(|s| s.evictions).sum(),
        recoveries: stats.iter().map(|s| s.recoveries).sum(),
        spilled_bytes: stats.iter().map(|s| s.spilled_bytes).sum(),
        eviction_digest,
        spill,
        recover,
        sample,
    }
}

/// `drv1` / `drv2`: `run_saturation` over the stream's workload with
/// `workers` threads. The driver generates, hashes and routes inside
/// the call; that is what its rate includes.
pub fn driver_phase(stream: &TenantStream, workers: usize) -> Result<DriverRun, String> {
    let shape = &stream.shape;
    let mut cfg = SatConfig::new(workers, stream.seed);
    cfg.shards = shape.shards;
    cfg.m = shape.m;
    let workload = shape.workload();
    let mut rng = generator(stream.seed);
    let start = Instant::now();
    let report = run_saturation(&cfg, &workload, &mut rng)?;
    let secs = start.elapsed().as_secs_f64();
    Ok(DriverRun {
        secs,
        items: report.items,
        keys: report.keys,
        chunks: report.chunks,
        state_digest: report.state_digest,
        metrics_digest: report.metrics_digest(),
        worker_items: report.workers.iter().map(|w| w.items).collect(),
    })
}

/// Layer costs of `tenant-ingest` measured by calling the layer's
/// public functions alone, over the same stream (traced run only).
pub struct TenantLayers {
    /// `SplitMix64::hash_u64` + `classify_hash`, ns per item.
    pub hash_rho_ns: f64,
    /// `TieredRegisters::observe` into a dense vector, ns per update.
    pub tier_observe_ns: f64,
    pub tier_promotions: u64,
    pub payload_bytes_per_sketch: f64,
    /// `compress` + `to_wire` + `from_wire`, ns per sketch.
    pub wire_ns: f64,
    /// `superloglog_estimate_from_registers` at the store's `m`, ns.
    pub estimate_ns: f64,
    /// `ShardRouter::shard_of`, ns per key.
    pub router_ns: f64,
    /// `TenantWorkload::visit` into a no-op sink, ns per update.
    pub tenant_gen_ns: f64,
    /// `Zipf::sample` over the workload's key domain, ns per draw.
    pub zipf_sample_ns: f64,
}

pub fn tenant_layers(stream: &TenantStream, filled: &FilledStore) -> TenantLayers {
    let shape = &stream.shape;
    let n = stream.len() as f64;
    let hasher = SplitMix64::default();

    let hash_rho = seconds_of(|| {
        for &item in &stream.items {
            std::hint::black_box(classify_hash(hasher.hash_u64(item), shape.m));
        }
    });

    let per = shape.metrics_per_tenant as usize;
    let updates: Vec<(u32, u16, u8)> = stream
        .keys
        .iter()
        .zip(&stream.hashes)
        .map(|(key, &hash)| {
            let (bucket, rank) = classify_hash(hash, shape.m);
            let idx = usize::from(key.tenant) * per + usize::from(key.metric);
            (idx as u32, bucket, rank)
        })
        .collect();
    let mut regs: Vec<TieredRegisters> = (0..shape.keys())
        .map(|_| TieredRegisters::new(shape.m))
        .collect();
    let mut tier_promotions = 0u64;
    let tier_observe = seconds_of(|| {
        for &(idx, bucket, rank) in &updates {
            let promoted = regs[idx as usize].observe(usize::from(bucket), rank.saturating_add(1));
            tier_promotions += u64::from(promoted.is_some());
        }
    });
    let payload: usize = regs.iter().map(TieredRegisters::payload_bytes).sum();

    let step = (regs.len() / 20_000).max(1);
    let mut sampled: Vec<TieredRegisters> = regs.iter().step_by(step).cloned().collect();
    let wire = seconds_of(|| {
        for r in &mut sampled {
            r.compress();
            let bytes = r.to_wire();
            std::hint::black_box(TieredRegisters::from_wire(&bytes).is_ok());
        }
    });

    let vectors: Vec<Vec<u8>> = stream
        .all_keys()
        .step_by(step)
        .filter_map(|key| filled.store.register_vec(key))
        .collect();
    let estimate = seconds_of(|| {
        for v in &vectors {
            std::hint::black_box(superloglog_estimate_from_registers(v));
        }
    });

    let router = ShardRouter::new(shape.shards);
    let route = seconds_of(|| {
        for &key in &stream.keys {
            std::hint::black_box(router.shard_of(key));
        }
    });

    let workload = shape.workload();
    let gen = seconds_of(|| {
        workload.visit(&mut generator(stream.seed), |u| {
            std::hint::black_box(u);
        });
    });

    let zipf = Zipf::new(shape.keys() as usize, shape.theta);
    let draws = 200_000;
    let mut rng = generator(stream.seed);
    let zipf_secs = seconds_of(|| {
        for _ in 0..draws {
            std::hint::black_box(zipf.sample(&mut rng));
        }
    });

    TenantLayers {
        hash_rho_ns: hash_rho * 1e9 / n,
        tier_observe_ns: tier_observe * 1e9 / n,
        tier_promotions,
        payload_bytes_per_sketch: payload as f64 / regs.len() as f64,
        wire_ns: wire * 1e9 / sampled.len() as f64,
        estimate_ns: estimate * 1e9 / vectors.len().max(1) as f64,
        router_ns: route * 1e9 / n,
        tenant_gen_ns: gen * 1e9 / n,
        zipf_sample_ns: zipf_secs * 1e9 / f64::from(draws),
    }
}

#[cfg(test)]
mod tests {
    //! Each decorator is transparent: on a 64-node ring the decorated
    //! run reproduces the bare run's ledger, estimates, stored state
    //! and next RNG draw (equal iff both drew equally often).

    use super::*;

    const TINY: DhtShape = DhtShape {
        nodes: 64,
        m: 64,
        k: 24,
    };

    const FAULTS: NetFaults = NetFaults {
        latency_mu: 3.0,
        latency_sigma: 0.5,
        latency_cap: 400,
        loss: 0.05,
        duplication: 0.01,
        reorder_jitter: 5,
        retry_attempts: 3,
        retry_base: 50,
        retry_cap: 400,
    };

    fn inserts(ids: &[u64], n: usize) -> Vec<InsertOp> {
        let mut rng = generator(5);
        (0..n)
            .map(|i| InsertOp {
                metric: 1 + i as u32 % 3,
                key: item_hash(draw_u64(&mut rng)),
                origin: ids[draw_index(&mut rng, ids.len())],
            })
            .collect()
    }

    #[test]
    fn overlay_decorator_is_transparent_on_writes() {
        let models: Vec<(Model, Model)> = [false, true]
            .into_iter()
            .map(|traced| {
                let bed = WriteBed::new(&TINY, 11, traced);
                let ops = inserts(bed.node_ids(), 3_000);
                let fast = FastInput {
                    accesses: zipf_accesses(&mut generator(6), 2_000, 0.7, 8_000),
                    epoch_len: 4_000,
                    flush_len: 256,
                    origins: bed.node_ids()[..4].to_vec(),
                    metrics: 4,
                };
                let insert = bed.insert_phase(&ops, 12);
                let fast = bed.fast_phase(&fast, 13);
                if traced {
                    assert_eq!(insert.overlay.route.calls, 3_000);
                    assert_eq!(insert.overlay.put.calls, 3_000);
                    assert!(fast.overlay.route.calls > 0);
                } else {
                    assert_eq!(insert.overlay.route.calls, 0);
                }
                (insert.model, fast.model)
            })
            .collect();
        assert_eq!(models[0], models[1]);
        assert!(models[0]
            .0
            .iter()
            .any(|(n, v)| *n == "insert.hops" && *v > 0));
    }

    #[test]
    fn overlay_decorator_is_transparent_on_reads() {
        let runs: Vec<Vec<CountRun>> = [false, true]
            .into_iter()
            .map(|traced| {
                let mut bed = ReadBed::new(&TINY, 0.002, 21, traced);
                let ids = bed.node_ids().to_vec();
                let ops: Vec<CountOp> = (0..12)
                    .map(|i| CountOp {
                        metric: 1 + i % bed.metrics(),
                        origin: ids[i as usize * 5],
                    })
                    .collect();
                let origins: Vec<u64> = ids[..3].to_vec();
                vec![
                    bed.count_phase(&ops, 22),
                    bed.hinted_phase(&ops, 23, 4),
                    bed.multi_phase(&origins, 24),
                ]
            })
            .collect();
        for (plain, traced) in runs[0].iter().zip(&runs[1]) {
            assert_eq!(plain.model, traced.model);
            assert_eq!(plain.rel_errs, traced.rel_errs);
            assert_eq!(plain.overlay.fetch.calls, 0);
            assert!(traced.overlay.fetch.calls > 0);
        }
        let hinted = &runs[1][1];
        assert_eq!((hinted.hint_checks, hinted.hint_mismatches), (3, 0));
        // The unhinted re-runs of the check are not the phase's calls.
        assert!(hinted.overlay.fetch.calls < runs[1][0].overlay.fetch.calls);
    }

    #[test]
    fn transport_decorator_is_transparent() {
        let outcomes: Vec<(Model, Vec<f64>, u64)> = [false, true]
            .into_iter()
            .map(|traced| {
                let mut bed = NetBed::new(&TINY, 20_000, FAULTS, 31, traced);
                let inserts = bed.fresh_inserts(2_000, &mut generator(32));
                let origins = bed.node_ids()[..6].to_vec();
                let run = bed.sub_round(&inserts, &origins, 33);
                assert_eq!(run.insert_exchange.calls > 0, traced);
                (bed.model(), run.rel_errs, run.count_ticks)
            })
            .collect();
        assert_eq!(outcomes[0], outcomes[1]);
        let sent = outcomes[0]
            .0
            .iter()
            .find(|(n, _)| *n == "net.sent")
            .unwrap()
            .1;
        let dropped = outcomes[0]
            .0
            .iter()
            .find(|(n, _)| *n == "net.dropped")
            .unwrap()
            .1;
        assert!(sent > 4_000 && dropped > 0, "the fault plane was on");
    }

    #[test]
    fn recorder_decorator_is_transparent() {
        let bed = WriteBed::new(&TINY, 41, false);
        let ops = inserts(bed.node_ids(), 2_000);
        let intervals = bed.dhs.config().num_intervals() as usize;
        let (_, bare) = bed.observed_inserts(&ops, 42, Observer::new(intervals));
        let (_, timed) =
            bed.observed_inserts(&ops, 42, TimedRecorder::new(Observer::new(intervals)));
        assert_eq!(bare.metrics.digest(), timed.inner.metrics.digest());
        assert_eq!(bare.load.total(), timed.inner.load.total());
        assert!(timed.record.take().calls >= 2_000);
    }

    #[test]
    fn cold_tier_decorator_is_transparent() {
        let shape = TenantShape {
            tenants: 4,
            metrics_per_tenant: 50,
            theta: 0.7,
            extra_updates: 5_000,
            shards: 2,
            m: 64,
        };
        let stream = TenantStream::generate(&shape, 51);
        let filled = store_phase(&stream, false);
        let budget = filled.peak_shard_bytes / 2;
        let plain = evict_phase(&stream, budget, 7, false);
        let traced = evict_phase(&stream, budget, 7, true);
        assert!(plain.evictions > 0 && plain.recoveries > 0);
        assert_eq!(plain.eviction_digest, traced.eviction_digest);
        assert_eq!(plain.sample, traced.sample);
        assert_eq!(
            (plain.evictions, plain.recoveries, plain.spilled_bytes),
            (traced.evictions, traced.recoveries, traced.spilled_bytes)
        );
        assert_eq!(plain.spill.calls, 0);
        assert_eq!(traced.spill.calls, traced.evictions);
        assert!(traced.recover.calls >= traced.recoveries);
    }

    #[test]
    fn store_digest_is_the_drivers() {
        let shape = TenantShape {
            tenants: 3,
            metrics_per_tenant: 40,
            theta: 0.7,
            extra_updates: 2_000,
            shards: 8,
            m: 64,
        };
        let stream = TenantStream::generate(&shape, 61);
        let mut filled = store_phase(&stream, false);
        let est = estimate_phase(&mut filled, &stream);
        let d1 = driver_phase(&stream, 1).unwrap();
        let d2 = driver_phase(&stream, 2).unwrap();
        assert_eq!(est.missing, 0);
        assert_eq!(est.state_digest, d1.state_digest);
        assert_eq!(d1.state_digest, d2.state_digest);
        assert_eq!(d1.items as usize, stream.len());
    }
}
