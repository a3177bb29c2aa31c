//! The message transport abstraction DHS operations run over.
//!
//! The paper evaluates DHS on a simulated network where messages take
//! time, get lost, and nodes churn (§5). To make those effects first-
//! class without slowing the common case, every DHS operation routes its
//! message sends through a [`Transport`]:
//!
//! * [`DirectTransport`] — the zero-cost synchronous path: every message
//!   is delivered instantly and the ledger charges are *exactly* the ones
//!   the inline code used to make. This is the default behind
//!   [`crate::Dhs::insert`] / [`crate::Dhs::count`].
//! * `SimTransport` (in the `dhs-net` crate) — a deterministic discrete-
//!   event simulator with latency distributions, message loss,
//!   duplication, reordering, crash windows and partitions.
//!
//! The split of responsibilities is deliberate:
//!
//! * **Core decides protocol** — what to send, to whom, how to react to
//!   a timeout (retry per [`crate::retry::RetryPolicy`], skip a replica,
//!   leave a vector unresolved).
//! * **Transport decides delivery** — whether/when a message arrives,
//!   and charges the [`CostLedger`] for what actually crossed the wire.
//!
//! Two exchange shapes cover every DHS message: a *routed* exchange
//! (multi-hop DHT lookup or store, payload carried across each hop, as
//! the paper's Table 2 counts bytes) and a *one-hop* exchange
//! (probe / successor-walk / replica leg).

use dhs_dht::cost::CostLedger;
use dhs_dht::overlay::Overlay;
use dhs_obs::{names, Recorder};

use crate::retry::RetryPolicy;

/// Semantic type of a DHS protocol message (telemetry vocabulary; the
/// reply direction is tracked by the transport, not a separate kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Routed DHT lookup resolving the owner of a key.
    Lookup,
    /// Tuple store (insertion primary or replica leg).
    Store,
    /// Bit-presence probe of an interval's node (Alg. 1 line 9).
    Probe,
    /// One-hop successor/predecessor walk probe (Alg. 1 lines 13–15).
    SuccessorScan,
}

impl MessageKind {
    /// Stable numeric tag (used by telemetry serialization).
    pub fn tag(self) -> u8 {
        match self {
            MessageKind::Lookup => 1,
            MessageKind::Store => 2,
            MessageKind::Probe => 3,
            MessageKind::SuccessorScan => 4,
        }
    }

    /// Counter name for attempted exchanges of this kind.
    pub fn sent_counter(self) -> &'static str {
        match self {
            MessageKind::Lookup => names::MSG_LOOKUP_SENT,
            MessageKind::Store => names::MSG_STORE_SENT,
            MessageKind::Probe => names::MSG_PROBE_SENT,
            MessageKind::SuccessorScan => names::MSG_SUCC_SCAN_SENT,
        }
    }

    /// Counter name for successful exchanges of this kind.
    pub fn ok_counter(self) -> &'static str {
        match self {
            MessageKind::Lookup => names::MSG_LOOKUP_OK,
            MessageKind::Store => names::MSG_STORE_OK,
            MessageKind::Probe => names::MSG_PROBE_OK,
            MessageKind::SuccessorScan => names::MSG_SUCC_SCAN_OK,
        }
    }

    /// Counter name for timed-out exchanges of this kind.
    pub fn timeout_counter(self) -> &'static str {
        match self {
            MessageKind::Lookup => names::MSG_LOOKUP_TIMEOUT,
            MessageKind::Store => names::MSG_STORE_TIMEOUT,
            MessageKind::Probe => names::MSG_PROBE_TIMEOUT,
            MessageKind::SuccessorScan => names::MSG_SUCC_SCAN_TIMEOUT,
        }
    }

    /// Histogram name for the virtual ticks an exchange of this kind took.
    pub fn ticks_histogram(self) -> &'static str {
        match self {
            MessageKind::Lookup => names::MSG_LOOKUP_TICKS,
            MessageKind::Store => names::MSG_STORE_TICKS,
            MessageKind::Probe => names::MSG_PROBE_TICKS,
            MessageKind::SuccessorScan => names::MSG_SUCC_SCAN_TICKS,
        }
    }

    /// Histogram name for routing hops of a routed exchange of this kind.
    pub fn hops_histogram(self) -> &'static str {
        match self {
            MessageKind::Lookup => names::MSG_LOOKUP_HOPS,
            MessageKind::Store => names::MSG_STORE_HOPS,
            MessageKind::Probe => names::MSG_PROBE_HOPS,
            MessageKind::SuccessorScan => names::MSG_SUCC_SCAN_HOPS,
        }
    }
}

impl std::fmt::Display for MessageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MessageKind::Lookup => write!(f, "lookup"),
            MessageKind::Store => write!(f, "store"),
            MessageKind::Probe => write!(f, "probe"),
            MessageKind::SuccessorScan => write!(f, "succ-scan"),
        }
    }
}

/// Why a transport exchange failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// No reply arrived before the transport's timeout (the request or
    /// the reply was lost, the peer is crashed, or the network is
    /// partitioned — the requester cannot tell which).
    Timeout {
        /// What was being exchanged.
        kind: MessageKind,
        /// Virtual ticks waited before giving up.
        waited: u64,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Timeout { kind, waited } => {
                write!(f, "{kind} timed out after {waited} ticks")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Delivery layer for DHS messages. See the module docs for the contract.
///
/// Implementations must charge the [`CostLedger`] for every attempt's
/// wire traffic: on success, one message plus `request_bytes` across
/// every hop plus `response_bytes` for the reply — byte-identical to the
/// paper's accounting — and on failure, whatever fraction actually made
/// it onto the wire.
pub trait Transport {
    /// A multi-hop routed request (`hops` routing steps, the payload
    /// carried across each) plus its direct reply. `dst` is the routing
    /// destination resolved by the caller via [`dhs_dht::overlay::Overlay::route`]
    /// (which has already charged the routing hops).
    #[allow(clippy::too_many_arguments)]
    fn routed_exchange(
        &mut self,
        from: u64,
        dst: u64,
        hops: u64,
        kind: MessageKind,
        request_bytes: u64,
        response_bytes: u64,
        ledger: &mut CostLedger,
    ) -> Result<(), TransportError>;

    /// A one-hop request/reply exchange with a known peer.
    fn exchange(
        &mut self,
        from: u64,
        dst: u64,
        kind: MessageKind,
        request_bytes: u64,
        response_bytes: u64,
        ledger: &mut CostLedger,
    ) -> Result<(), TransportError>;

    /// Let virtual time pass (retry backoff). No-op for direct delivery.
    fn pause(&mut self, ticks: u64);

    /// Current virtual time in ticks (always 0 for direct delivery).
    fn now(&self) -> u64;

    /// How DHS operations should retry failed exchanges over this
    /// transport. Direct delivery never fails, so it never retries.
    fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::none()
    }

    /// The observability sink attached to this transport, if any. The
    /// default is `None`, so un-instrumented transports pay nothing; wrap
    /// any transport in [`Observed`] to attach one.
    fn recorder(&mut self) -> Option<&mut dyn Recorder> {
        None
    }
}

/// Open a span named `name` on the transport's recorder (if any), stamped
/// with the transport's virtual clock. Returns the span id to hand back to
/// [`end_span`]; `None` means observability is off and nothing was recorded.
pub fn start_span<T: Transport + ?Sized>(t: &mut T, name: &'static str, arg: u64) -> Option<u64> {
    let now = t.now();
    t.recorder().map(|r| r.span_start(name, arg, now))
}

/// Close a span previously opened with [`start_span`]. No-op for `None`.
pub fn end_span<T: Transport + ?Sized>(t: &mut T, span: Option<u64>) {
    if let Some(id) = span {
        let now = t.now();
        if let Some(r) = t.recorder() {
            r.span_end(id, now);
        }
    }
}

/// A transport wrapper that attaches a [`Recorder`] without changing
/// delivery semantics or ledger charges: every call forwards verbatim to
/// the inner transport, and the observer sees per-kind sent/ok/timeout
/// counters, latency and hop histograms, and delivered-message events
/// (which feed the load monitor).
#[derive(Debug, Clone)]
pub struct Observed<T, R> {
    inner: T,
    observer: R,
}

impl<T: Transport, R: Recorder> Observed<T, R> {
    /// Wrap `inner` so all its traffic is reported to `observer`.
    pub fn new(inner: T, observer: R) -> Self {
        Observed { inner, observer }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The attached observer.
    pub fn observer(&self) -> &R {
        &self.observer
    }

    /// Unwrap into the transport and the observer.
    pub fn into_parts(self) -> (T, R) {
        (self.inner, self.observer)
    }
}

impl<T: Transport, R: Recorder> Transport for Observed<T, R> {
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
        self.observer.incr(kind.sent_counter(), 1);
        let before = self.inner.now();
        let result = self.inner.routed_exchange(
            from,
            dst,
            hops,
            kind,
            request_bytes,
            response_bytes,
            ledger,
        );
        let waited = self.inner.now().saturating_sub(before);
        self.observer.observe(kind.ticks_histogram(), waited);
        self.observer.observe(kind.hops_histogram(), hops);
        match result {
            Ok(()) => {
                self.observer.incr(kind.ok_counter(), 1);
                self.observer.delivered(kind.tag(), dst);
            }
            Err(_) => self.observer.incr(kind.timeout_counter(), 1),
        }
        result
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
        self.observer.incr(kind.sent_counter(), 1);
        let before = self.inner.now();
        let result = self
            .inner
            .exchange(from, dst, kind, request_bytes, response_bytes, ledger);
        let waited = self.inner.now().saturating_sub(before);
        self.observer.observe(kind.ticks_histogram(), waited);
        match result {
            Ok(()) => {
                self.observer.incr(kind.ok_counter(), 1);
                self.observer.delivered(kind.tag(), dst);
            }
            Err(_) => self.observer.incr(kind.timeout_counter(), 1),
        }
        result
    }

    fn pause(&mut self, ticks: u64) {
        self.inner.pause(ticks);
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn retry_policy(&self) -> RetryPolicy {
        self.inner.retry_policy()
    }

    fn recorder(&mut self) -> Option<&mut dyn Recorder> {
        Some(&mut self.observer)
    }
}

/// Instantaneous, loss-free delivery: the synchronous fast path used by
/// all non-`_via` DHS entry points. Charges match the paper's cost
/// accounting exactly; there is no virtual clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectTransport;

impl Transport for DirectTransport {
    fn routed_exchange(
        &mut self,
        _from: u64,
        _dst: u64,
        hops: u64,
        _kind: MessageKind,
        request_bytes: u64,
        response_bytes: u64,
        ledger: &mut CostLedger,
    ) -> Result<(), TransportError> {
        // One logical message carrying the payload across `hops` hops.
        ledger.charge_message(0);
        ledger.charge_bytes(request_bytes * hops + response_bytes);
        Ok(())
    }

    fn exchange(
        &mut self,
        _from: u64,
        _dst: u64,
        _kind: MessageKind,
        request_bytes: u64,
        response_bytes: u64,
        ledger: &mut CostLedger,
    ) -> Result<(), TransportError> {
        ledger.charge_message(0);
        ledger.charge_bytes(request_bytes + response_bytes);
        Ok(())
    }

    fn pause(&mut self, _ticks: u64) {}

    fn now(&self) -> u64 {
        0
    }
}

/// Run `attempt` under the transport's [`RetryPolicy`]: re-invoke on
/// timeout (each attempt re-charges its own wire traffic), pausing the
/// policy's backoff delay between attempts. Returns the first success or
/// the last timeout. This is the one retry loop in the crate — every
/// exchange of every DHS operation goes through it — and the one emitter
/// of `exchange.attempts` / `exchange.gave_up`.
pub fn with_retry<T: Transport + ?Sized>(
    transport: &mut T,
    mut attempt: impl FnMut(&mut T) -> Result<(), TransportError>,
) -> Result<(), TransportError> {
    let policy = transport.retry_policy();
    let mut tries = 1u64;
    let mut last = attempt(transport);
    for retry in 1..policy.attempts {
        if last.is_ok() {
            break;
        }
        transport.pause(policy.backoff.delay(retry - 1));
        tries += 1;
        last = attempt(transport);
    }
    let gave_up = last.is_err();
    if let Some(r) = transport.recorder() {
        r.observe(names::EXCHANGE_ATTEMPTS, tries);
        if gave_up {
            r.incr(names::EXCHANGE_GAVE_UP, 1);
        }
    }
    last
}

/// One routed send — a [`MessageKind::Lookup`] (Alg. 1 line 8) or a
/// [`MessageKind::Store`] (§3.2) — of `payload` bytes to `dst`, the owner
/// the caller already resolved for `key`, under [`with_retry`]. Every
/// attempt re-routes from `origin` and re-charges its hops: the resent
/// message crosses the wire again.
#[allow(clippy::too_many_arguments)]
pub(crate) fn routed_send<O: Overlay, T: Transport>(
    ring: &O,
    transport: &mut T,
    ledger: &mut CostLedger,
    origin: u64,
    key: u64,
    dst: u64,
    kind: MessageKind,
    payload: u64,
) -> Result<(), TransportError> {
    with_retry(transport, |t| {
        let hops_before = ledger.hops();
        match t.recorder() {
            Some(obs) => ring.route_observed(origin, key, ledger, obs),
            None => ring.route(origin, key, ledger),
        };
        let hops = ledger.hops() - hops_before;
        t.routed_exchange(origin, dst, hops, kind, payload, 0, ledger)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_routed_exchange_charges_paper_bytes() {
        let mut ledger = CostLedger::new();
        DirectTransport
            .routed_exchange(1, 2, 4, MessageKind::Store, 8, 0, &mut ledger)
            .unwrap();
        assert_eq!(ledger.messages(), 1);
        assert_eq!(ledger.bytes(), 32, "payload × hops");
        assert_eq!(ledger.hops(), 0, "routing hops are charged by route()");
    }

    #[test]
    fn direct_exchange_charges_request_plus_response() {
        let mut ledger = CostLedger::new();
        DirectTransport
            .exchange(1, 2, MessageKind::Probe, 16, 72, &mut ledger)
            .unwrap();
        assert_eq!(ledger.messages(), 1);
        assert_eq!(ledger.bytes(), 88);
    }

    #[test]
    fn direct_never_advances_time() {
        let mut t = DirectTransport;
        t.pause(1_000);
        assert_eq!(t.now(), 0);
        assert_eq!(t.retry_policy().attempts, 1);
    }

    #[test]
    fn with_retry_stops_on_first_success() {
        struct Flaky {
            failures_left: u32,
            calls: u32,
            paused: u64,
        }
        impl Transport for Flaky {
            fn routed_exchange(
                &mut self,
                _: u64,
                _: u64,
                _: u64,
                _: MessageKind,
                _: u64,
                _: u64,
                _: &mut CostLedger,
            ) -> Result<(), TransportError> {
                unreachable!()
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
                if self.failures_left > 0 {
                    self.failures_left -= 1;
                    return Err(TransportError::Timeout { kind, waited: 10 });
                }
                Ok(())
            }
            fn pause(&mut self, ticks: u64) {
                self.paused += ticks;
            }
            fn now(&self) -> u64 {
                0
            }
            fn retry_policy(&self) -> RetryPolicy {
                RetryPolicy::new(4, 100, 1_000)
            }
        }

        let mut t = Flaky {
            failures_left: 2,
            calls: 0,
            paused: 0,
        };
        let mut ledger = CostLedger::new();
        let r = with_retry(&mut t, |t| {
            t.exchange(1, 2, MessageKind::Probe, 1, 1, &mut ledger)
        });
        assert!(r.is_ok());
        assert_eq!(t.calls, 3, "two failures, one success");
        assert_eq!(t.paused, 100 + 200, "exponential backoff between tries");

        // Exhausted attempts propagate the last timeout.
        let mut t = Flaky {
            failures_left: 10,
            calls: 0,
            paused: 0,
        };
        let r = with_retry(&mut t, |t| {
            t.exchange(1, 2, MessageKind::Probe, 1, 1, &mut ledger)
        });
        assert!(r.is_err());
        assert_eq!(t.calls, 4, "policy allows 4 attempts");
    }
}
