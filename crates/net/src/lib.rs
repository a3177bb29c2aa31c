//! # dhs-net — deterministic network simulation for DHS
//!
//! The paper's protocol is evaluated on a network where messages take
//! time and get lost (§5). This crate supplies that network as a
//! deterministic discrete-event simulator behind the
//! [`dhs_core::transport::Transport`] trait:
//!
//! * [`latency::LatencyModel`] — per-hop delay distributions (constant,
//!   uniform, log-normal), sampled from a seeded RNG;
//! * [`fault::FaultPlane`] — composable message loss, duplication,
//!   reordering jitter, node crash windows and network partitions;
//! * [`telemetry::NetTelemetry`] — one record per message copy, with a
//!   byte-exact serialized trace for determinism checks;
//! * [`sim::SimTransport`] — the event-queue transport DHS operations
//!   route through when handed to one of `dhs-core`'s explicit-transport
//!   (`_via`) entry points, e.g. `insert_via` / `count_via`;
//! * [`wire::MessageSizes`] — message byte sizes derived from the DHS
//!   config and `dhs-sketch`'s wire encodings.
//!
//! ```
//! use dhs_core::{Dhs, DhsConfig, RetryPolicy};
//! use dhs_dht::cost::CostLedger;
//! use dhs_dht::ring::{Ring, RingConfig};
//! use dhs_net::fault::FaultPlane;
//! use dhs_net::sim::{SimConfig, SimTransport};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut ring = Ring::build(64, RingConfig::default(), &mut rng);
//! let dhs = Dhs::new(DhsConfig { m: 16, k: 20, ..DhsConfig::default() }).unwrap();
//! let mut net = SimTransport::new(SimConfig {
//!     seed: 7,
//!     faults: FaultPlane::lossy(0.05),
//!     retry: RetryPolicy::new(3, 50, 400),
//!     ..SimConfig::default()
//! });
//!
//! let origin = ring.alive_ids()[0];
//! let mut ledger = CostLedger::new();
//! for item in 0..500u64 {
//!     dhs.insert_via(&mut ring, &mut net, 1, item.wrapping_mul(0x9E3779B97F4A7C15),
//!                    origin, &mut rng, &mut ledger);
//! }
//! let result = dhs.count_via(&ring, &mut net, 1, origin, &mut rng, &mut ledger);
//! assert!(result.estimate > 0.0);
//! assert!(net.telemetry().sent() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod latency;
pub mod sim;
pub mod telemetry;
pub mod wire;

pub use fault::{CrashWindow, FaultPlane, Partition};
pub use latency::LatencyModel;
pub use sim::{SimConfig, SimTransport};
pub use telemetry::{DropReason, MessageRecord, NetTelemetry, Outcome};
pub use wire::MessageSizes;

#[cfg(test)]
mod tests {
    use super::*;
    use dhs_core::transport::{MessageKind, Transport};
    use dhs_core::RetryPolicy;
    use dhs_dht::cost::CostLedger;

    fn sim(faults: FaultPlane, seed: u64) -> SimTransport {
        SimTransport::new(SimConfig {
            seed,
            faults,
            ..SimConfig::default()
        })
    }

    #[test]
    fn healthy_exchange_matches_direct_charges_and_advances_clock() {
        let mut net = sim(FaultPlane::none(), 1);
        let mut ledger = CostLedger::new();
        net.exchange(1, 2, MessageKind::Probe, 16, 72, &mut ledger)
            .unwrap();
        let mut direct = dhs_core::DirectTransport;
        let mut dledger = CostLedger::new();
        direct
            .exchange(1, 2, MessageKind::Probe, 16, 72, &mut dledger)
            .unwrap();
        assert_eq!(ledger.messages(), dledger.messages());
        assert_eq!(ledger.bytes(), dledger.bytes());
        assert_eq!(ledger.hops(), dledger.hops());
        // Round trip: two constant 10-tick legs.
        assert_eq!(net.now(), 20);
        assert_eq!(ledger.latency_ticks(), 20);
        assert_eq!(net.telemetry().sent(), 2);
        assert_eq!(net.telemetry().delivered(), 2);
    }

    #[test]
    fn routed_exchange_sums_per_hop_latency_and_bytes() {
        let mut net = sim(FaultPlane::none(), 2);
        let mut ledger = CostLedger::new();
        net.routed_exchange(1, 2, 4, MessageKind::Lookup, 16, 0, &mut ledger)
            .unwrap();
        assert_eq!(ledger.bytes(), 64, "request crosses every hop");
        assert_eq!(net.now(), 4 * 10 + 10, "4 request legs + 1 reply leg");
        let req = net.telemetry().records()[0];
        assert_eq!(req.legs, 4);
        assert_eq!(req.bytes, 64);
    }

    #[test]
    fn total_loss_times_out_and_charges_the_drop() {
        let mut net = sim(FaultPlane::lossy(1.0), 3);
        let mut ledger = CostLedger::new();
        let err = net
            .exchange(1, 2, MessageKind::Probe, 16, 72, &mut ledger)
            .unwrap_err();
        assert!(matches!(
            err,
            dhs_core::TransportError::Timeout { waited: 400, .. }
        ));
        assert_eq!(net.now(), 400, "requester waited out the timeout");
        assert_eq!(ledger.dropped_messages(), 1);
        assert_eq!(ledger.bytes(), 16, "request bytes hit the wire; no reply");
        assert_eq!(net.telemetry().dropped_by(DropReason::Loss), 1);
    }

    #[test]
    fn crash_window_blocks_then_heals() {
        let faults = FaultPlane {
            crashes: vec![CrashWindow {
                node: 2,
                from: 0,
                until: 500,
            }],
            ..FaultPlane::none()
        };
        let mut net = sim(faults, 4);
        let mut ledger = CostLedger::new();
        assert!(net
            .exchange(1, 2, MessageKind::Probe, 16, 72, &mut ledger)
            .is_err());
        assert_eq!(net.telemetry().dropped_by(DropReason::Crash), 1);
        // After the window (clock is now 400; next try arrives ≥ 410)...
        net.pause(100); // move past tick 500
        assert!(net
            .exchange(1, 2, MessageKind::Probe, 16, 72, &mut ledger)
            .is_ok());
    }

    #[test]
    fn partition_drops_cross_traffic_only() {
        let faults = FaultPlane {
            partitions: vec![Partition {
                from: 0,
                until: 10_000,
                lo: 0,
                hi: 100,
            }],
            ..FaultPlane::none()
        };
        let mut net = sim(faults, 5);
        let mut ledger = CostLedger::new();
        assert!(net
            .exchange(50, 200, MessageKind::Probe, 16, 72, &mut ledger)
            .is_err());
        assert!(net
            .exchange(50, 60, MessageKind::Probe, 16, 72, &mut ledger)
            .is_ok());
        assert_eq!(net.telemetry().dropped_by(DropReason::Partition), 1);
    }

    #[test]
    fn duplication_spawns_inflight_copies_that_deliver_later() {
        let faults = FaultPlane {
            duplication: 1.0,
            ..FaultPlane::none()
        };
        let mut net = sim(faults, 6);
        let mut ledger = CostLedger::new();
        net.exchange(1, 2, MessageKind::Probe, 16, 72, &mut ledger)
            .unwrap();
        let t = net.into_telemetry();
        assert_eq!(t.duplicates(), 2, "request and reply each duplicated");
        assert_eq!(t.delivered(), 4, "all copies eventually arrive");
    }

    #[test]
    #[expect(
        clippy::let_underscore_must_use,
        reason = "the test reads the telemetry, not each exchange's outcome"
    )]
    fn reorder_jitter_produces_inversions() {
        let faults = FaultPlane {
            duplication: 1.0,
            reorder_jitter: 200,
            ..FaultPlane::none()
        };
        let mut net = sim(faults, 7);
        let mut ledger = CostLedger::new();
        for _ in 0..40 {
            let _ = net.exchange(1, 2, MessageKind::Probe, 16, 72, &mut ledger);
        }
        let t = net.into_telemetry();
        assert!(
            t.delivery_inversions() > 0,
            "jittered duplicates must overtake same-path traffic"
        );
    }

    #[test]
    fn retry_policy_is_surfaced_to_core() {
        let net = SimTransport::new(SimConfig {
            retry: RetryPolicy::new(3, 50, 400),
            ..SimConfig::default()
        });
        assert_eq!(net.retry_policy().attempts, 3);
    }

    #[test]
    #[expect(
        clippy::let_underscore_must_use,
        reason = "the test reads the telemetry, not each exchange's outcome"
    )]
    fn same_seed_identical_trace_digest() {
        let faults = FaultPlane {
            loss: 0.2,
            duplication: 0.1,
            reorder_jitter: 30,
            ..FaultPlane::none()
        };
        let run = |seed: u64| {
            let mut net = sim(faults.clone(), seed);
            let mut ledger = CostLedger::new();
            for i in 0..100u64 {
                let _ = net.exchange(i, i + 1, MessageKind::Probe, 16, 72, &mut ledger);
                let _ = net.routed_exchange(i, i + 2, 3, MessageKind::Lookup, 16, 0, &mut ledger);
            }
            (net.into_telemetry().trace_bytes(), ledger.bytes())
        };
        let (trace_a, bytes_a) = run(42);
        let (trace_b, bytes_b) = run(42);
        assert_eq!(trace_a, trace_b, "byte-identical trace");
        assert_eq!(bytes_a, bytes_b);
        let (trace_c, _) = run(43);
        assert_ne!(trace_a, trace_c, "different seed, different scenario");
    }
}
