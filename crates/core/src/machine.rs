//! Explicit per-request state machines for the DHS protocol operations.
//!
//! The synchronous implementations of [`crate::count`] and
//! [`crate::insert`] used to keep all in-flight state — the interval
//! walk cursor, the per-vector resolution bitmaps, the replica
//! forwarding chain, the retry countdown — on the call stack, woven
//! through `with_retry` closures. That shape is correct but can only
//! ever run one exchange at a time: the stack *is* the scheduler.
//!
//! This module factors every operation into an explicit state machine
//! that communicates with the transport through two values:
//!
//! * [`SendOp`] — a self-contained description of one exchange to
//!   execute (what to send, to whom, with which routing behaviour);
//! * a completion `(tag, Result)` fed back into [`ScanMachine::step`] /
//!   [`StoreMachine::step`], which advances the machine to its next
//!   send(s) or to completion.
//!
//! [`exec_send`] executes a [`SendOp`] synchronously over any
//! [`Transport`], reproducing the exact per-attempt re-route,
//! re-charge, backoff and telemetry sequence of the old inline code —
//! retry timers live in [`RetryState`], not in a loop's local
//! variables. Driving a machine with [`drive_scan_in_order`] /
//! [`drive_store_in_order`] (execute each send immediately, feed its
//! completion straight back) is byte-identical to the old synchronous
//! code over every transport: same RNG draws, same ledger charges, same
//! recorder events, in the same order. An out-of-order engine (see the
//! `dhs-par` crate) replaces only the driver loop: it buffers
//! completions and releases them in an arbitrary seeded permutation
//! across concurrent operations.

use std::collections::BTreeMap;

use rand::Rng;

use dhs_dht::cost::CostLedger;
use dhs_dht::overlay::Overlay;
use dhs_dht::storage::StoredRecord;
use dhs_obs::names;
use dhs_sketch::{
    hyperloglog_estimate_from_registers, pcsa_estimate_from_first_zeros,
    superloglog_estimate_from_registers,
};

use crate::cast::checked_cast;
use crate::config::{DhsConfig, EstimatorKind};
use crate::insert::Dhs;
use crate::intervals::{interval_for_rank, IdInterval};
use crate::retry::RetryPolicy;
use crate::stats::{CountResult, CountStats};
use crate::transport::{end_span, start_span, MessageKind, Transport, TransportError};
use crate::tuple::{DhsTuple, MetricId};

/// One self-contained exchange a state machine asks the transport to
/// perform. Executing it (see [`exec_send`]) charges exactly what the
/// old inline code charged, including per-attempt re-routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendOp {
    /// Routed DHT lookup of `key`'s owner (Alg. 1 line 8): every retry
    /// attempt re-routes from `origin` and re-charges its hops.
    Lookup {
        /// Requesting node.
        origin: u64,
        /// The key being resolved (routing re-runs per attempt).
        key: u64,
        /// The owner the caller already resolved (the exchange target).
        dst: u64,
        /// Request payload bytes.
        request: u64,
    },
    /// One-hop probe of a known peer (interval probe or successor-scan
    /// leg, Alg. 1 lines 9–15).
    Probe {
        /// Requesting node.
        origin: u64,
        /// The peer to probe.
        dst: u64,
        /// [`MessageKind::Probe`] or [`MessageKind::SuccessorScan`].
        kind: MessageKind,
        /// Request payload bytes.
        request: u64,
        /// Response payload bytes (scales with the metric batch).
        response: u64,
    },
    /// Routed tuple store to `key`'s owner (§3.2): every retry attempt
    /// re-routes from `origin` and re-charges its hops.
    Store {
        /// Inserting node.
        origin: u64,
        /// The routing key drawn inside the rank's interval.
        key: u64,
        /// The owner the caller already resolved.
        dst: u64,
        /// Payload bytes (tuple bytes × batch size).
        payload: u64,
    },
    /// One-hop replica forwarding leg along the successor chain (§3.5).
    Replica {
        /// The current holder forwarding the batch.
        from: u64,
        /// The successor receiving the copy.
        dst: u64,
        /// Payload bytes.
        payload: u64,
    },
}

/// Explicit retry countdown for one exchange: the state `with_retry`
/// used to keep in loop locals. Feed every attempt's result through
/// [`RetryState::on_result`]; it answers whether to stop or how long to
/// back off before the next attempt.
#[derive(Debug, Clone, Copy)]
pub struct RetryState {
    policy: RetryPolicy,
    tries: u64,
}

/// What to do after an attempt, per the [`RetryPolicy`] schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryDecision {
    /// Stop: the attempt succeeded or the budget is exhausted.
    Done,
    /// Pause the transport for this many ticks, then re-attempt.
    RetryAfter(u64),
}

impl RetryState {
    /// A fresh countdown under `policy` (the first attempt is implied).
    pub fn new(policy: RetryPolicy) -> Self {
        RetryState { policy, tries: 1 }
    }

    /// Account one attempt's result and decide what happens next.
    pub fn on_result(&mut self, result: &Result<(), TransportError>) -> RetryDecision {
        if result.is_ok() || self.tries >= u64::from(self.policy.attempts) {
            return RetryDecision::Done;
        }
        // tries < attempts ≤ u32::MAX, so the conversion cannot fail.
        let delay = self
            .policy
            .backoff
            .delay(u32::try_from(self.tries - 1).unwrap_or(u32::MAX));
        self.tries += 1;
        RetryDecision::RetryAfter(delay)
    }

    /// Attempts made so far (what `EXCHANGE_ATTEMPTS` observes).
    pub fn tries(&self) -> u64 {
        self.tries
    }
}

/// Route `key` from `origin` for one attempt of a routed send (`Lookup`
/// or `Store`), charging `ledger`, and return the hops this attempt took.
fn route_attempt<O: Overlay, T: Transport>(
    ring: &O,
    t: &mut T,
    ledger: &mut CostLedger,
    origin: u64,
    key: u64,
) -> u64 {
    let hops_before = ledger.hops();
    match t.recorder() {
        Some(obs) => ring.route_observed(origin, key, ledger, obs),
        None => ring.route(origin, key, ledger),
    };
    ledger.hops() - hops_before
}

/// One attempt of `op`, charging exactly what the old inline closure
/// charged (routed sends re-route and re-charge hops per attempt).
fn attempt_once<O: Overlay, T: Transport>(
    op: &SendOp,
    ring: &O,
    t: &mut T,
    ledger: &mut CostLedger,
) -> Result<(), TransportError> {
    match *op {
        SendOp::Lookup {
            origin,
            key,
            dst,
            request,
        } => {
            let hops = route_attempt(ring, t, ledger, origin, key);
            t.routed_exchange(origin, dst, hops, MessageKind::Lookup, request, 0, ledger)
        }
        SendOp::Probe {
            origin,
            dst,
            kind,
            request,
            response,
        } => t.exchange(origin, dst, kind, request, response, ledger),
        SendOp::Store {
            origin,
            key,
            dst,
            payload,
        } => {
            let hops = route_attempt(ring, t, ledger, origin, key);
            t.routed_exchange(origin, dst, hops, MessageKind::Store, payload, 0, ledger)
        }
        SendOp::Replica { from, dst, payload } => {
            t.exchange(from, dst, MessageKind::Store, payload, 0, ledger)
        }
    }
}

/// Execute `op` synchronously under the transport's retry policy,
/// driving an explicit [`RetryState`]. Effect-for-effect identical to
/// wrapping the old inline closure in [`crate::transport::with_retry`]:
/// per-attempt re-route/re-charge, the same backoff pauses, then one
/// `EXCHANGE_ATTEMPTS` observation (plus `EXCHANGE_GAVE_UP` on final
/// failure).
pub fn exec_send<O: Overlay, T: Transport>(
    op: &SendOp,
    ring: &O,
    transport: &mut T,
    ledger: &mut CostLedger,
) -> Result<(), TransportError> {
    let mut retry = RetryState::new(transport.retry_policy());
    let mut last = attempt_once(op, ring, transport, ledger);
    loop {
        let decision = retry.on_result(&last);
        let RetryDecision::RetryAfter(delay) = decision else {
            break;
        };
        transport.pause(delay);
        last = attempt_once(op, ring, transport, ledger);
    }
    let gave_up = last.is_err();
    if let Some(r) = transport.recorder() {
        r.observe(names::EXCHANGE_ATTEMPTS, retry.tries());
        if gave_up {
            r.incr(names::EXCHANGE_GAVE_UP, 1);
        }
    }
    last
}

/// What a machine wants next.
#[derive(Debug)]
pub enum Step {
    /// Execute these sends (in any order) and feed each completion back
    /// via `step`. An empty list means the machine is waiting on sends
    /// already outstanding.
    Sends(Vec<(u32, SendOp)>),
    /// The machine has finished; collect its results.
    Done,
}

/// The Alg. 1 walk order inside one interval, with no borrow of the
/// ring: successors while the current node stays inside the interval,
/// then predecessors of the original target.
#[derive(Debug, Clone, Copy)]
pub struct WalkState {
    interval: IdInterval,
    first: u64,
    cur: u64,
    going_succ: bool,
}

impl WalkState {
    /// A walk over `interval` starting at lookup target `first`.
    pub fn new(interval: IdInterval, first: u64) -> Self {
        WalkState {
            interval,
            first,
            cur: first,
            going_succ: true,
        }
    }

    /// The next node to probe (one hop away from the current one).
    ///
    /// Successor direction first (Alg. 1 line 13, `id < thr(r−1)`): we
    /// keep stepping while the *current* node is still inside the
    /// interval, which deliberately probes one node **past** the
    /// interval's top boundary — in Chord that successor owns the
    /// interval's topmost keys, so tuples stored under them live there.
    /// (In sparse intervals, which decide the estimate, that boundary
    /// owner holds everything.) Then predecessors of the original target.
    pub fn next_target<O: Overlay>(&mut self, ring: &O) -> u64 {
        if self.going_succ {
            if self.interval.contains(self.cur) {
                let next = ring.next_node(self.cur);
                if next != self.first {
                    self.cur = next;
                    return next;
                }
            }
            // Walked out of the interval (or wrapped): restart from the
            // original target, walking predecessors.
            self.going_succ = false;
            self.cur = self.first;
        }
        self.cur = ring.prev_node(self.cur);
        self.cur
    }
}

/// Estimator-specific state of a scan, beside the shared `resolved`
/// registers.
enum ScanMode {
    /// DHS-sLL / DHS-HLL: descending ranks, the first hit is the max
    /// (register = rank + 1). `hint` is the adaptive-scan start rank.
    MaxRank { hint: Option<u32> },
    /// DHS-PCSA: ascending ranks, the first miss is the lowest zero.
    /// `confirmed` marks vectors seen set at the current rank;
    /// `in_question` counts unresolved vectors not yet confirmed.
    Pcsa {
        confirmed: Vec<Vec<bool>>,
        in_question: usize,
    },
}

/// The cursor inside one rank's interval, carried between sends.
struct IntervalCursor {
    rank: u32,
    /// Probe budget for this interval.
    attempts: u32,
    /// Probes completed so far.
    attempt: u32,
    walk: WalkState,
    /// The node the outstanding send addresses.
    target: u64,
    interval_span: Option<u64>,
    scan_span: Option<u64>,
}

/// Where the scan is between sends.
enum ScanPhase {
    /// Not started: the first `step` opens the operation's span.
    Start,
    /// Advance to the next rank (or finish).
    NextRank,
    /// A `Lookup` send is outstanding for the cursor's interval.
    AwaitLookup(IntervalCursor),
    /// A `Probe`/`SuccessorScan` send is outstanding.
    AwaitProbe(IntervalCursor),
    /// Terminal.
    Finished,
}

/// The counting scan (paper Algorithm 1) as an explicit state machine:
/// one outstanding exchange at a time, every conclusion applied at
/// completion delivery. Construct with [`ScanMachine::new`], drive with
/// [`ScanMachine::step`], collect with [`ScanMachine::finish`]. The
/// machine is the one emitter of the operation's own observability: the
/// first `step` opens the `count` span, `finish` records the `op.count*`
/// metrics and closes it — whichever driver runs it.
///
/// The scan is *strictly sequential by design*: which node the next
/// probe targets depends on the previous probe's conclusions (the walk
/// only continues while vectors stay unresolved), so the machine never
/// has more than one send in flight. Out-of-order engines gain their
/// concurrency by interleaving many independent `ScanMachine`s, not by
/// reordering within one.
pub struct ScanMachine {
    cfg: DhsConfig,
    metrics: Vec<MetricId>,
    origin: u64,
    request: u64,
    response: u64,
    ranks: Vec<u32>,
    rank_idx: usize,
    mode: ScanMode,
    /// Per `(metric, vector)`: the concluded register — max rank + 1, or
    /// lowest zero — once known.
    resolved: Vec<Vec<Option<u32>>>,
    unresolved: usize,
    phase: ScanPhase,
    stats: CountStats,
    bytes_before: u64,
    hops_before: u64,
    span: Option<u64>,
    next_tag: u32,
}

impl ScanMachine {
    /// A scan of `metrics` from `origin` under `dhs`'s estimator:
    /// descending max-rank for super-LogLog / HyperLogLog (they share
    /// storage; only the register→estimate formula differs), ascending
    /// lowest-zero for PCSA. `start_rank` is an adaptive-scan hint (see
    /// [`crate::fast::ScanHint`]); PCSA scans upward and ignores it.
    /// `ledger` is snapshotted so [`Self::finish`] can report the
    /// operation's own byte/hop deltas.
    pub fn new(
        dhs: &Dhs,
        metrics: &[MetricId],
        origin: u64,
        start_rank: Option<u32>,
        ledger: &CostLedger,
    ) -> Self {
        let cfg = *dhs.config();
        let scan_ranks = cfg.bit_shift..cfg.scan_bits();
        let (mode, ranks) = match cfg.estimator {
            EstimatorKind::SuperLogLog | EstimatorKind::HyperLogLog => (
                ScanMode::MaxRank { hint: start_rank },
                scan_ranks.rev().collect(),
            ),
            EstimatorKind::Pcsa => (
                ScanMode::Pcsa {
                    confirmed: vec![vec![false; cfg.m]; metrics.len()],
                    in_question: 0,
                },
                scan_ranks.collect(),
            ),
        };
        ScanMachine {
            cfg,
            metrics: metrics.to_vec(),
            origin,
            request: u64::from(cfg.request_bytes),
            response: cfg.response_bytes(metrics.len()),
            ranks,
            rank_idx: 0,
            mode,
            resolved: vec![vec![None; cfg.m]; metrics.len()],
            unresolved: metrics.len() * cfg.m,
            phase: ScanPhase::Start,
            stats: CountStats::default(),
            bytes_before: ledger.bytes(),
            hops_before: ledger.hops(),
            span: None,
            next_tag: 0,
        }
    }

    fn fresh_tag(&mut self) -> u32 {
        let tag = self.next_tag;
        self.next_tag += 1;
        tag
    }

    /// Apply one successful probe's evidence: every requested tuple
    /// present at `target` for `rank` updates the resolution state.
    fn apply_hits<O: Overlay>(&mut self, ring: &O, target: u64, rank: u32) {
        for mi in 0..self.metrics.len() {
            let metric = self.metrics[mi];
            for vector in 0..self.cfg.m {
                let tuple = DhsTuple {
                    metric,
                    vector: checked_cast(vector),
                    bit: checked_cast(rank),
                };
                if ring.fetch_at(target, tuple.app_key()).is_none()
                    || self.resolved[mi][vector].is_some()
                {
                    continue;
                }
                match &mut self.mode {
                    ScanMode::MaxRank { .. } => {
                        self.resolved[mi][vector] = Some(rank + 1);
                        self.unresolved -= 1;
                    }
                    ScanMode::Pcsa {
                        confirmed,
                        in_question,
                    } => {
                        if !confirmed[mi][vector] {
                            confirmed[mi][vector] = true;
                            *in_question -= 1;
                        }
                    }
                }
            }
        }
    }

    /// Close out a fully probed rank (PCSA concludes lowest zeros for
    /// candidates never seen set; max-rank has nothing to conclude).
    fn conclude_rank(&mut self, rank: u32) {
        if let ScanMode::Pcsa { confirmed, .. } = &self.mode {
            // Candidates never seen set at this rank: their lowest zero
            // is here (possibly wrongly, if all `lim` probes missed —
            // §4.1).
            for (mi, row) in confirmed.iter().enumerate() {
                for (vector, &is_set) in row.iter().enumerate() {
                    if self.resolved[mi][vector].is_none() && !is_set {
                        self.resolved[mi][vector] = Some(rank);
                        self.unresolved -= 1;
                    }
                }
            }
        }
    }

    /// Issue the cursor's next probe and park on its completion.
    fn send_probe(&mut self, cursor: IntervalCursor, kind: MessageKind) -> Step {
        self.stats.probes += 1;
        let op = SendOp::Probe {
            origin: self.origin,
            dst: cursor.target,
            kind,
            request: self.request,
            response: self.response,
        };
        self.phase = ScanPhase::AwaitProbe(cursor);
        Step::Sends(vec![(self.fresh_tag(), op)])
    }

    /// Advance the machine. Pass `None` to start it, or the completion
    /// of its outstanding send to continue. Effects (RNG draws, span
    /// events, ledger charges, stat bumps) happen inside this call at
    /// the same relative points the old inline scan performed them.
    pub fn step<O: Overlay, T: Transport, R: Rng>(
        &mut self,
        mut completion: Option<(u32, Result<(), TransportError>)>,
        ring: &O,
        transport: &mut T,
        rng: &mut R,
        ledger: &mut CostLedger,
    ) -> Step {
        loop {
            match std::mem::replace(&mut self.phase, ScanPhase::Finished) {
                ScanPhase::Start => {
                    // An empty metric list is an empty operation: no
                    // span, no draws, no events.
                    if self.metrics.is_empty() {
                        return Step::Done;
                    }
                    self.span = start_span(transport, names::SPAN_COUNT, self.metrics.len() as u64);
                    self.phase = ScanPhase::NextRank;
                }
                ScanPhase::NextRank => {
                    if self.unresolved == 0 || self.rank_idx == self.ranks.len() {
                        return Step::Done;
                    }
                    let rank = self.ranks[self.rank_idx];
                    self.rank_idx += 1;
                    let interval = interval_for_rank(&self.cfg, rank);
                    let attempts = match &mut self.mode {
                        ScanMode::MaxRank { hint } => {
                            let above_hint = hint.is_some_and(|h| rank > h);
                            if above_hint && rank >= self.cfg.rank_bits() {
                                // Structurally empty: `classify` saturates
                                // ranks at rank_bits − 1, so no insertion can
                                // ever populate this interval. Draw (and
                                // discard) the interval key the full scan
                                // would have drawn, keeping the RNG stream —
                                // and therefore every later probe —
                                // byte-identical.
                                let _ = rng.gen_range(interval.lo..=interval.hi);
                                self.stats.intervals_skipped += 1;
                                self.phase = ScanPhase::NextRank;
                                continue;
                            }
                            // Above the hint a single-owner interval is
                            // concluded by its one owner: every tuple of the
                            // interval lives there, so walk retries cannot
                            // change the outcome.
                            if above_hint
                                && ring.owner_of(interval.lo) == ring.owner_of(interval.hi)
                            {
                                1
                            } else {
                                self.cfg.lim
                            }
                        }
                        ScanMode::Pcsa {
                            confirmed,
                            in_question,
                        } => {
                            for row in confirmed.iter_mut() {
                                row.iter_mut().for_each(|c| *c = false);
                            }
                            // Unresolved vectors not yet confirmed set at
                            // this rank.
                            *in_question = self.unresolved;
                            self.cfg.lim
                        }
                    };
                    let interval_span =
                        start_span(transport, names::SPAN_INTERVAL, u64::from(rank));
                    let key = rng.gen_range(interval.lo..=interval.hi);
                    let target = ring.owner_of(key);
                    self.stats.lookups += 1;
                    self.stats.intervals_scanned += 1;
                    let op = SendOp::Lookup {
                        origin: self.origin,
                        key,
                        dst: target,
                        request: self.request,
                    };
                    self.phase = ScanPhase::AwaitLookup(IntervalCursor {
                        rank,
                        attempts,
                        attempt: 0,
                        walk: WalkState::new(interval, target),
                        target,
                        interval_span,
                        scan_span: None,
                    });
                    return Step::Sends(vec![(self.fresh_tag(), op)]);
                }
                ScanPhase::AwaitLookup(cursor) => {
                    let (_tag, result) = completion
                        .take()
                        // dhs-lint: allow(panic_hygiene) — invariant: the driver feeds exactly one completion per outstanding send.
                        .expect("a lookup completion must be delivered");
                    if result.is_err() {
                        // Lookup unreachable: skip this interval (PCSA draws
                        // no first-zero conclusions without probe evidence).
                        end_span(transport, cursor.interval_span);
                        self.phase = ScanPhase::NextRank;
                        continue;
                    }
                    return self.send_probe(cursor, MessageKind::Probe);
                }
                ScanPhase::AwaitProbe(mut cursor) => {
                    let (_tag, result) = completion
                        .take()
                        // dhs-lint: allow(panic_hygiene) — invariant: the driver feeds exactly one completion per outstanding send.
                        .expect("a probe completion must be delivered");
                    if result.is_ok() {
                        ledger.record_visit(cursor.target);
                        self.apply_hits(ring, cursor.target, cursor.rank);
                    }
                    end_span(transport, cursor.scan_span);
                    let concluded = match &self.mode {
                        ScanMode::MaxRank { .. } => self.unresolved == 0,
                        ScanMode::Pcsa { in_question, .. } => *in_question == 0,
                    };
                    cursor.attempt += 1;
                    if concluded || cursor.attempt >= cursor.attempts {
                        end_span(transport, cursor.interval_span);
                        self.conclude_rank(cursor.rank);
                        self.phase = ScanPhase::NextRank;
                        continue;
                    }
                    cursor.target = cursor.walk.next_target(ring);
                    ledger.charge_hops(1);
                    cursor.scan_span =
                        start_span(transport, names::SPAN_SUCC_SCAN, u64::from(cursor.attempt));
                    return self.send_probe(cursor, MessageKind::SuccessorScan);
                }
                ScanPhase::Finished => return Step::Done,
            }
        }
    }

    /// Consume the machine and build one [`CountResult`] per metric,
    /// charging the ledger deltas since construction into the shared
    /// [`CountStats`]; then record the operation (`op.count`, its
    /// bytes/hops/probes, skipped intervals) and close its span. An
    /// empty metric list yields an empty `Vec` and records nothing.
    pub fn finish<T: Transport>(
        mut self,
        transport: &mut T,
        ledger: &CostLedger,
    ) -> Vec<CountResult> {
        if self.metrics.is_empty() {
            return Vec::new();
        }
        self.stats.bytes = ledger.bytes() - self.bytes_before;
        self.stats.hops = ledger.hops() - self.hops_before;
        let stats = self.stats;
        let cfg = self.cfg;
        // Vectors never concluded. Max-rank: empty (register 0), or — with
        // the bit-shift optimization — "max rank at least bit_shift − 1"
        // (register b). PCSA: set at every scanned rank, so the lowest
        // zero saturates at rank_bits.
        let unseen = match self.mode {
            ScanMode::MaxRank { .. } => cfg.bit_shift,
            ScanMode::Pcsa { .. } => cfg.rank_bits(),
        };
        let results = self
            .metrics
            .iter()
            .zip(self.resolved)
            .map(|(&metric, cells)| {
                let registers: Vec<u32> = cells.into_iter().map(|c| c.unwrap_or(unseen)).collect();
                let bytes = || -> Vec<u8> { registers.iter().map(|&r| checked_cast(r)).collect() };
                let estimate = match cfg.estimator {
                    EstimatorKind::SuperLogLog => superloglog_estimate_from_registers(&bytes()),
                    EstimatorKind::HyperLogLog => hyperloglog_estimate_from_registers(&bytes()),
                    EstimatorKind::Pcsa => pcsa_estimate_from_first_zeros(&registers),
                };
                CountResult {
                    metric,
                    estimate,
                    registers,
                    stats,
                }
            })
            .collect();
        if let Some(r) = transport.recorder() {
            r.incr(names::OP_COUNT, 1);
            r.observe(names::OP_COUNT_BYTES, stats.bytes);
            r.observe(names::OP_COUNT_HOPS, stats.hops);
            r.observe(names::OP_COUNT_PROBES, stats.probes);
            if stats.intervals_skipped > 0 {
                r.incr(
                    names::COUNT_HINT_SKIPPED,
                    u64::from(stats.intervals_skipped),
                );
            }
        }
        end_span(transport, self.span);
        results
    }
}

/// One per-owner store chain's progress.
struct Chain {
    owner_idx: usize,
    tuple_count: u64,
    payload: u64,
    phase: ChainPhase,
}

enum ChainPhase {
    /// The routed primary `Store` is outstanding.
    Primary { route_span: Option<u64> },
    /// A replica forwarding leg to `next` is outstanding.
    Replica {
        replica: u32,
        next: u64,
        expires_at: u64,
        store_span: Option<u64>,
    },
}

/// The grouped store operation (§3.2 insertion + §3.5 replication) as an
/// explicit state machine. Construction performs pass 1 — one routing-key
/// draw per group, in caller order, so the RNG stream is byte-identical
/// to unbatched stores — and groups the batch by owner. Stepping runs up
/// to `window` per-owner chains concurrently: `window == 1` reproduces
/// the old sequential per-owner order exactly; larger windows let an
/// out-of-order engine keep several owners' primaries and replica legs
/// in flight at once (chains for different owners are independent — they
/// write disjoint `(holder, tuple)` cells and their ledger charges
/// commute).
pub struct StoreMachine {
    cfg: DhsConfig,
    groups: Vec<(u32, Vec<DhsTuple>)>,
    origin: u64,
    /// Per-group `(routing_key, owner)`, drawn in caller order.
    placements: Vec<(u64, u64)>,
    /// Owner → member group indices, in ascending owner order.
    owners: Vec<(u64, Vec<usize>)>,
    ok: Vec<bool>,
    window: usize,
    next_owner: usize,
    active: BTreeMap<u32, Chain>,
    next_tag: u32,
}

impl StoreMachine {
    /// Build the machine: draw every group's routing key from `rng` (in
    /// caller order), resolve owners, and batch by owner. `window` is
    /// the maximum number of concurrently active owner chains (≥ 1).
    pub fn new<O: Overlay>(
        cfg: &DhsConfig,
        groups: Vec<(u32, Vec<DhsTuple>)>,
        origin: u64,
        window: usize,
        ring: &O,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(window >= 1, "a store machine needs a window of at least 1");
        // Pass 1: routing-key draws, in caller (ascending-rank) order.
        let placements: Vec<(u64, u64)> = groups
            .iter()
            .map(|&(rank, _)| {
                let interval = interval_for_rank(cfg, rank);
                let routing_key = rng.gen_range(interval.lo..=interval.hi);
                (routing_key, ring.owner_of(routing_key))
            })
            .collect();
        // Pass 2: one Store chain per distinct owner.
        let mut by_owner: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, &(_, owner)) in placements.iter().enumerate() {
            by_owner.entry(owner).or_default().push(i);
        }
        let ok = vec![false; groups.len()];
        StoreMachine {
            cfg: *cfg,
            groups,
            origin,
            placements,
            owners: by_owner.into_iter().collect(),
            ok,
            window,
            next_owner: 0,
            active: BTreeMap::new(),
            next_tag: 0,
        }
    }

    fn fresh_tag(&mut self) -> u32 {
        let tag = self.next_tag;
        self.next_tag += 1;
        tag
    }

    /// Open the next owner's chain: span, primary send.
    fn start_chain<T: Transport>(&mut self, transport: &mut T, sends: &mut Vec<(u32, SendOp)>) {
        let owner_idx = self.next_owner;
        self.next_owner += 1;
        let owner = self.owners[owner_idx].0;
        let tuple_count: u64 = self.owners[owner_idx]
            .1
            .iter()
            .map(|&i| self.groups[i].1.len() as u64)
            .sum();
        let payload = u64::from(self.cfg.tuple_bytes) * tuple_count;
        let routing_key = self.placements[self.owners[owner_idx].1[0]].0;
        let route_span = start_span(transport, names::SPAN_ROUTE, tuple_count);
        let tag = self.fresh_tag();
        self.active.insert(
            tag,
            Chain {
                owner_idx,
                tuple_count,
                payload,
                phase: ChainPhase::Primary { route_span },
            },
        );
        sends.push((
            tag,
            SendOp::Store {
                origin: self.origin,
                key: routing_key,
                dst: owner,
                payload,
            },
        ));
    }

    /// Store every member group's tuples at `holder`.
    fn put_members<O: Overlay>(
        &self,
        ring: &mut O,
        owner_idx: usize,
        holder: u64,
        expires_at: u64,
    ) {
        for &i in &self.owners[owner_idx].1 {
            let record = StoredRecord {
                expires_at,
                size_bytes: self.cfg.tuple_bytes,
                routing_key: self.placements[i].0,
            };
            for tuple in &self.groups[i].1 {
                ring.put_at(holder, tuple.app_key(), record);
            }
        }
    }

    /// Continue (or close) a chain's replica forwarding from `holder`.
    #[allow(clippy::too_many_arguments)]
    fn continue_replicas<O: Overlay, T: Transport>(
        &mut self,
        chain: Chain,
        replica: u32,
        holder: u64,
        expires_at: u64,
        store_span: Option<u64>,
        ring: &O,
        transport: &mut T,
        ledger: &mut CostLedger,
        sends: &mut Vec<(u32, SendOp)>,
    ) {
        let owner = self.owners[chain.owner_idx].0;
        if replica >= self.cfg.replication {
            end_span(transport, store_span);
            return;
        }
        let next = ring.next_node(holder);
        if next == owner {
            // Ring smaller than the replication degree.
            end_span(transport, store_span);
            return;
        }
        ledger.charge_hops(1);
        let tag = self.fresh_tag();
        let payload = chain.payload;
        self.active.insert(
            tag,
            Chain {
                phase: ChainPhase::Replica {
                    replica,
                    next,
                    expires_at,
                    store_span,
                },
                ..chain
            },
        );
        sends.push((
            tag,
            SendOp::Replica {
                from: holder,
                dst: next,
                payload,
            },
        ));
    }

    /// Advance the chain owning `tag` with its completion.
    fn advance<O: Overlay, T: Transport>(
        &mut self,
        tag: u32,
        result: Result<(), TransportError>,
        ring: &mut O,
        transport: &mut T,
        ledger: &mut CostLedger,
        sends: &mut Vec<(u32, SendOp)>,
    ) {
        let chain = self
            .active
            .remove(&tag)
            // dhs-lint: allow(panic_hygiene) — invariant: drivers only deliver completions for sends this machine emitted.
            .expect("completion must belong to an active chain");
        match chain.phase {
            ChainPhase::Primary { route_span } => {
                end_span(transport, route_span);
                if let Some(r) = transport.recorder() {
                    r.observe(names::BATCH_SIZE, chain.tuple_count);
                }
                if result.is_err() {
                    // Every attempt timed out: these tuples are lost.
                    if let Some(r) = transport.recorder() {
                        r.incr(names::OP_STORE_LOST, 1);
                    }
                    return;
                }
                for k in 0..self.owners[chain.owner_idx].1.len() {
                    let i = self.owners[chain.owner_idx].1[k];
                    self.ok[i] = true;
                }
                let owner = self.owners[chain.owner_idx].0;
                let expires_at = ring.time().saturating_add(self.cfg.ttl);
                let store_span = start_span(transport, names::SPAN_STORE, chain.tuple_count);
                // Replication round 0: the primary holder stores the batch.
                self.put_members(ring, chain.owner_idx, owner, expires_at);
                self.continue_replicas(
                    chain, 1, owner, expires_at, store_span, ring, transport, ledger, sends,
                );
            }
            ChainPhase::Replica {
                replica,
                next,
                expires_at,
                store_span,
            } => {
                if result.is_err() {
                    // Forwarding chain broken at this successor.
                    end_span(transport, store_span);
                    return;
                }
                let holder = next;
                ledger.record_visit(holder);
                self.put_members(ring, chain.owner_idx, holder, expires_at);
                self.continue_replicas(
                    chain,
                    replica + 1,
                    holder,
                    expires_at,
                    store_span,
                    ring,
                    transport,
                    ledger,
                    sends,
                );
            }
        }
    }

    /// Advance the machine. Pass `None` to start it, or a completion of
    /// one of its outstanding sends (in any order) to continue. New
    /// chains are opened to keep up to `window` in flight.
    pub fn step<O: Overlay, T: Transport>(
        &mut self,
        completion: Option<(u32, Result<(), TransportError>)>,
        ring: &mut O,
        transport: &mut T,
        ledger: &mut CostLedger,
    ) -> Step {
        let mut sends = Vec::new();
        if let Some((tag, result)) = completion {
            self.advance(tag, result, ring, transport, ledger, &mut sends);
        }
        while self.active.len() < self.window && self.next_owner < self.owners.len() {
            self.start_chain(transport, &mut sends);
        }
        if sends.is_empty() && self.active.is_empty() {
            return Step::Done;
        }
        Step::Sends(sends)
    }

    /// Consume the machine, returning per-group success flags.
    pub fn into_ok(self) -> Vec<bool> {
        self.ok
    }
}

/// Drive a [`ScanMachine`] to completion in strict submission order:
/// execute each send immediately and feed its completion straight back.
/// This is the degenerate in-order case — byte-identical to the old
/// inline scan over any transport.
pub fn drive_scan_in_order<O: Overlay, T: Transport, R: Rng>(
    machine: &mut ScanMachine,
    ring: &O,
    transport: &mut T,
    rng: &mut R,
    ledger: &mut CostLedger,
) {
    let mut completion = None;
    loop {
        match machine.step(completion.take(), ring, transport, rng, ledger) {
            Step::Done => break,
            Step::Sends(sends) => {
                for (tag, op) in sends {
                    completion = Some((tag, exec_send(&op, ring, transport, ledger)));
                }
            }
        }
    }
}

/// Drive a [`StoreMachine`] to completion in strict submission order
/// (FIFO): with `window == 1` this reproduces the old sequential
/// per-owner store loop byte-identically over any transport.
pub fn drive_store_in_order<O: Overlay, T: Transport>(
    machine: &mut StoreMachine,
    ring: &mut O,
    transport: &mut T,
    ledger: &mut CostLedger,
) {
    let mut queue: std::collections::VecDeque<(u32, SendOp)> = std::collections::VecDeque::new();
    let mut completion = None;
    loop {
        match machine.step(completion.take(), ring, transport, ledger) {
            Step::Done => break,
            Step::Sends(sends) => queue.extend(sends),
        }
        let front = queue.pop_front();
        let Some((tag, op)) = front else {
            continue;
        };
        let result = exec_send(&op, &*ring, transport, ledger);
        completion = Some((tag, result));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{with_retry, DirectTransport};

    #[test]
    fn retry_state_reproduces_with_retry_schedule() {
        // A failing transport: compare the pause schedule RetryState
        // produces against with_retry's.
        struct BlackHole {
            pauses: Vec<u64>,
            calls: u32,
        }
        impl Transport for BlackHole {
            fn routed_exchange(
                &mut self,
                _: u64,
                _: u64,
                _: u64,
                kind: MessageKind,
                _: u64,
                _: u64,
                _: &mut CostLedger,
            ) -> Result<(), TransportError> {
                self.calls += 1;
                Err(TransportError::Timeout { kind, waited: 1 })
            }
            fn exchange(
                &mut self,
                _: u64,
                _: u64,
                kind: MessageKind,
                _: u64,
                _: u64,
                _: &mut CostLedger,
            ) -> Result<(), TransportError> {
                self.calls += 1;
                Err(TransportError::Timeout { kind, waited: 1 })
            }
            fn pause(&mut self, ticks: u64) {
                self.pauses.push(ticks);
            }
            fn now(&self) -> u64 {
                0
            }
            fn retry_policy(&self) -> RetryPolicy {
                RetryPolicy::new(4, 25, 1_000)
            }
        }

        let mut ledger = CostLedger::new();
        let mut a = BlackHole {
            pauses: Vec::new(),
            calls: 0,
        };
        let _ = with_retry(&mut a, |t| {
            t.exchange(1, 2, MessageKind::Probe, 1, 1, &mut ledger)
        });

        let mut b = BlackHole {
            pauses: Vec::new(),
            calls: 0,
        };
        let mut retry = RetryState::new(b.retry_policy());
        let mut last = b.exchange(1, 2, MessageKind::Probe, 1, 1, &mut ledger);
        while let RetryDecision::RetryAfter(delay) = retry.on_result(&last) {
            b.pause(delay);
            last = b.exchange(1, 2, MessageKind::Probe, 1, 1, &mut ledger);
        }
        assert_eq!(a.pauses, b.pauses, "identical backoff schedule");
        assert_eq!(a.calls, b.calls, "identical attempt count");
        assert_eq!(retry.tries(), 4);
        assert!(last.is_err());
    }

    #[test]
    fn retry_state_stops_on_success_and_none_policy() {
        let mut r = RetryState::new(RetryPolicy::none());
        assert_eq!(
            r.on_result(&Err(TransportError::Timeout {
                kind: MessageKind::Probe,
                waited: 1
            })),
            RetryDecision::Done,
            "one attempt, fail fast"
        );
        let mut r = RetryState::new(RetryPolicy::new(5, 10, 100));
        assert_eq!(r.on_result(&Ok(())), RetryDecision::Done);
        assert_eq!(r.tries(), 1);
    }

    #[test]
    fn exec_send_direct_charges_match_inline() {
        // A Probe SendOp over DirectTransport charges exactly what the
        // inline exchange charged.
        use dhs_dht::ring::{Ring, RingConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let ring = Ring::build(16, RingConfig::default(), &mut rng);
        let mut ledger = CostLedger::new();
        let op = SendOp::Probe {
            origin: 1,
            dst: 2,
            kind: MessageKind::Probe,
            request: 16,
            response: 72,
        };
        exec_send(&op, &ring, &mut DirectTransport, &mut ledger).unwrap();
        assert_eq!(ledger.messages(), 1);
        assert_eq!(ledger.bytes(), 88);
    }
}
