//! The discrete-event simulated transport.
//!
//! [`SimTransport`] implements [`dhs_core::transport::Transport`]: DHS
//! operations drive it one request/reply exchange at a time, and it
//! resolves each exchange by pushing the message copies through a
//! virtual-clock event queue — sampling per-hop latency, applying the
//! [`FaultPlane`], recording one [`MessageRecord`] per copy, and
//! charging the [`CostLedger`] for the wire traffic (including virtual
//! latency and drops, which the direct path never incurs).
//!
//! Determinism: all randomness comes from one seeded [`StdRng`] drawn in
//! a fixed order per message, and the event queue breaks ties by send
//! sequence number — so a scenario with the same seed replays to a
//! byte-identical telemetry trace. The simulator's RNG is separate from
//! the protocol's RNG: a loss-free simulation makes exactly the same
//! protocol decisions (and ledger hop/byte/message charges) as
//! [`dhs_core::transport::DirectTransport`].
//!
//! Modeling notes, deliberately simple where the paper needs no more:
//!
//! * An exchange is synchronous at the protocol layer (Alg. 1 probes
//!   sequentially), so the queue's only cross-exchange traffic is
//!   duplicate copies still in flight; they deliver as the clock passes
//!   their arrival tick.
//! * Replies travel one leg (DHTs answer the requester directly);
//!   requests travel one leg per routing hop. Intermediate relay
//!   identities are not modeled — per-leg latency is, and loss is drawn
//!   once per message copy.
//! * Receivers deduplicate by request id, so a duplicated request does
//!   not spawn a second reply; the duplicate still consumes bandwidth
//!   and appears in the telemetry.
//! * A reply that arrives after the timeout is recorded as delivered
//!   (the network did carry it) — the *exchange* still fails.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dhs_core::retry::RetryPolicy;
use dhs_core::transport::{MessageKind, Transport, TransportError};
use dhs_dht::cost::CostLedger;

use crate::fault::FaultPlane;
use crate::latency::LatencyModel;
use crate::telemetry::{DropReason, MessageRecord, NetTelemetry, Outcome};

/// Scenario parameters for a [`SimTransport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// RNG seed: same seed, same scenario ⇒ identical trace.
    pub seed: u64,
    /// Per-hop delay distribution.
    pub latency: LatencyModel,
    /// Ticks a requester waits for a reply before giving up.
    pub timeout: u64,
    /// What can go wrong.
    pub faults: FaultPlane,
    /// How DHS operations retry timed-out exchanges over this transport.
    pub retry: RetryPolicy,
}

impl Default for SimConfig {
    /// Healthy network: constant 10-tick hops, 400-tick timeout, no
    /// faults, no retries.
    fn default() -> Self {
        SimConfig {
            seed: 0,
            latency: LatencyModel::default(),
            timeout: 400,
            faults: FaultPlane::none(),
            retry: RetryPolicy::none(),
        }
    }
}

/// How a transmitted message copy fared.
enum Fate {
    /// Arrived at the given tick.
    Arrive(u64),
    /// Dropped; `legs_crossed` legs carried it before it died (≥ 1 — it
    /// was put on the wire).
    Drop {
        reason: DropReason,
        legs_crossed: u64,
    },
}

/// Deterministic discrete-event network: virtual clock, seeded faults,
/// full message telemetry. See the module docs for the model.
#[derive(Debug)]
pub struct SimTransport {
    cfg: SimConfig,
    clock: u64,
    rng: StdRng,
    seq: u64,
    /// In-flight duplicate copies: `(deliver_at, seq)` → record index.
    pending: BinaryHeap<Reverse<(u64, u64, usize)>>,
    telemetry: NetTelemetry,
}

impl SimTransport {
    /// Build a transport for one scenario.
    pub fn new(cfg: SimConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        SimTransport {
            cfg,
            clock: 0,
            rng,
            seq: 0,
            pending: BinaryHeap::new(),
            telemetry: NetTelemetry::default(),
        }
    }

    /// The scenario configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The message trace so far.
    pub fn telemetry(&self) -> &NetTelemetry {
        &self.telemetry
    }

    /// Advance the clock past every in-flight duplicate and return the
    /// final telemetry.
    pub fn into_telemetry(mut self) -> NetTelemetry {
        let horizon = self
            .pending
            .iter()
            .map(|Reverse((at, _, _))| *at)
            .max()
            .unwrap_or(self.clock);
        self.advance_to(horizon.max(self.clock));
        self.telemetry
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Move the virtual clock to `t`, delivering any in-flight duplicate
    /// copies whose arrival tick has passed.
    fn advance_to(&mut self, t: u64) {
        debug_assert!(t >= self.clock, "virtual time is monotone");
        while let Some(&Reverse((at, _, idx))) = self.pending.peek() {
            if at > t {
                break;
            }
            self.pending.pop();
            self.telemetry.set_outcome(idx, Outcome::Delivered { at });
        }
        self.clock = t;
    }

    /// One end-to-end delay: `legs` latency samples plus reorder jitter.
    // dhs-flow: allow(rng-plumbing) — draws from the transport's own
    // seeded RNG: the simulator's entropy is deliberately a separate
    // stream from the protocol's so fault schedules replay identically
    // regardless of how many probes the protocol makes.
    fn sample_delay(&mut self, legs: u64) -> u64 {
        let mut delay = 0u64;
        for _ in 0..legs {
            delay += self.cfg.latency.sample(&mut self.rng);
        }
        if self.cfg.faults.reorder_jitter > 0 {
            delay += self.rng.gen_range(0..=self.cfg.faults.reorder_jitter);
        }
        delay
    }

    /// Put one message copy on the wire at `sent_at` and resolve its
    /// fate. Records telemetry; charges latency (delivered) or a drop
    /// into the ledger. Wire *bytes* are charged by the exchange logic —
    /// partial traversal charges partial bytes for routed sends.
    #[allow(clippy::too_many_arguments)]
    // dhs-flow: allow(rng-plumbing) — same seeded transport-owned stream
    // as `sample_delay`; see the module docs on RNG separation.
    fn transmit(
        &mut self,
        sent_at: u64,
        src: u64,
        dst: u64,
        kind: MessageKind,
        reply: bool,
        bytes: u64,
        legs: u64,
        ledger: &mut CostLedger,
    ) -> Fate {
        let legs = legs.max(1);
        let seq = self.next_seq();
        // Fixed draw order (latency, loss, duplication) per copy. Loss is
        // per *copy*, not per leg — a routed message is not penalized for
        // path length; the dying leg is drawn only to charge the bytes it
        // did cross.
        let delay = self.sample_delay(legs);
        let mut lost_at_leg = None;
        if self.cfg.faults.loss > 0.0 && self.rng.gen_bool(self.cfg.faults.loss) {
            lost_at_leg = Some(if legs > 1 {
                self.rng.gen_range(1..=legs)
            } else {
                1
            });
        }
        let arrival = sent_at + delay;
        let fate = if self.cfg.faults.separated(src, dst, sent_at) {
            Fate::Drop {
                reason: DropReason::Partition,
                legs_crossed: 1,
            }
        } else if let Some(leg) = lost_at_leg {
            Fate::Drop {
                reason: DropReason::Loss,
                legs_crossed: leg,
            }
        } else if self.cfg.faults.crashed(dst, sent_at) || self.cfg.faults.crashed(dst, arrival) {
            Fate::Drop {
                reason: DropReason::Crash,
                legs_crossed: legs,
            }
        } else {
            Fate::Arrive(arrival)
        };

        let outcome = match fate {
            Fate::Arrive(at) => {
                ledger.charge_latency(at - sent_at);
                Outcome::Delivered { at }
            }
            Fate::Drop { reason, .. } => {
                ledger.record_drop();
                Outcome::Dropped { reason }
            }
        };
        self.telemetry.push(MessageRecord {
            seq,
            kind,
            reply,
            duplicate: false,
            src,
            dst,
            bytes,
            legs,
            sent_at,
            outcome,
        });

        // A delivered copy may spawn a duplicate with its own delay; the
        // receiver dedups it, but it costs bandwidth and shows up in the
        // trace (and, overtaking other traffic, as reordering).
        if matches!(fate, Fate::Arrive(_))
            && self.cfg.faults.duplication > 0.0
            && self.rng.gen_bool(self.cfg.faults.duplication)
        {
            let dup_delay = self.sample_delay(legs);
            let dup_seq = self.next_seq();
            ledger.charge_message(bytes);
            ledger.charge_latency(dup_delay);
            let idx = self.telemetry.push(MessageRecord {
                seq: dup_seq,
                kind,
                reply,
                duplicate: true,
                src,
                dst,
                bytes,
                legs,
                sent_at,
                outcome: Outcome::InFlight,
            });
            self.pending
                .push(Reverse((sent_at + dup_delay, dup_seq, idx)));
        }
        fate
    }

    /// Shared request/reply machinery; `hops` only affects the request
    /// leg count and byte multiplication.
    #[allow(clippy::too_many_arguments)]
    fn run_exchange(
        &mut self,
        from: u64,
        dst: u64,
        hops: u64,
        kind: MessageKind,
        request_bytes: u64,
        response_bytes: u64,
        ledger: &mut CostLedger,
    ) -> Result<(), TransportError> {
        let sent_at = self.clock;
        let deadline = sent_at + self.cfg.timeout;
        let legs = hops.max(1);
        // Telemetry carries the copy's total intended wire bytes (the
        // payload crosses every hop, as the paper's Table 2 counts them).
        let request_wire = request_bytes * hops;
        ledger.charge_message(0);
        let fail = |sim: &mut Self| {
            sim.advance_to(deadline);
            Err(TransportError::Timeout {
                kind,
                waited: sim.cfg.timeout,
            })
        };
        match self.transmit(sent_at, from, dst, kind, false, request_wire, legs, ledger) {
            Fate::Arrive(t_req) => {
                ledger.charge_bytes(request_bytes * hops); // full traversal
                if t_req > deadline {
                    return fail(self);
                }
                // The receiver replies immediately; one direct leg back.
                match self.transmit(t_req, dst, from, kind, true, response_bytes, 1, ledger) {
                    Fate::Arrive(t_resp) if t_resp <= deadline => {
                        ledger.charge_bytes(response_bytes);
                        self.advance_to(t_resp);
                        Ok(())
                    }
                    Fate::Arrive(_) | Fate::Drop { .. } => {
                        ledger.charge_bytes(response_bytes); // it was sent
                        fail(self)
                    }
                }
            }
            Fate::Drop { legs_crossed, .. } => {
                // The payload crossed (and was paid for on) each leg it
                // reached, including the one where it died.
                ledger.charge_bytes(request_bytes * legs_crossed.min(hops));
                fail(self)
            }
        }
    }
}

impl Transport for SimTransport {
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
        self.run_exchange(from, dst, hops, kind, request_bytes, response_bytes, ledger)
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
        self.run_exchange(from, dst, 1, kind, request_bytes, response_bytes, ledger)
    }

    fn pause(&mut self, ticks: u64) {
        self.advance_to(self.clock + ticks);
    }

    fn now(&self) -> u64 {
        self.clock
    }

    fn retry_policy(&self) -> RetryPolicy {
        self.cfg.retry
    }
}
