//! The simulator's two headline guarantees, as properties:
//!
//! 1. **Determinism** — the same seed replays a full insert-and-count
//!    scenario to a byte-identical telemetry trace and identical
//!    `CountResult`s.
//! 2. **Loss-free transparency** — with no faults configured, running
//!    over `SimTransport` yields exactly the estimates, registers and
//!    hop/byte/message charges of `DirectTransport` (the simulator adds
//!    a clock, not behavior).
#![expect(clippy::unwrap_used, reason = "test helpers fail loudly")]

use proptest::prelude::*;

use dhs_core::transport::Transport;
use dhs_core::{Dhs, DhsConfig, EstimatorKind, RetryPolicy};
use dhs_dht::cost::CostLedger;
use dhs_dht::ring::{Ring, RingConfig};
use dhs_net::fault::FaultPlane;
use dhs_net::latency::LatencyModel;
use dhs_net::sim::{SimConfig, SimTransport};
use dhs_sketch::{ItemHasher, SplitMix64};

use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 32;
const ITEMS: u64 = 800;

fn dhs_config(estimator: EstimatorKind) -> DhsConfig {
    DhsConfig {
        k: 20,
        m: 16,
        estimator,
        ..DhsConfig::default()
    }
}

struct Run {
    estimate: f64,
    registers: Vec<u32>,
    hops: u64,
    bytes: u64,
    messages: u64,
    trace: Vec<u8>,
    digest: u64,
}

/// One full scenario (build ring, insert, count) over the given faults.
fn run_simulated(seed: u64, estimator: EstimatorKind, faults: FaultPlane) -> Run {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ring = Ring::build(NODES, RingConfig::default(), &mut rng);
    let dhs = Dhs::new(dhs_config(estimator)).unwrap();
    let mut net = SimTransport::new(SimConfig {
        seed: seed ^ 0xD15C_0DE5,
        latency: LatencyModel::Uniform { lo: 2, hi: 30 },
        faults,
        retry: RetryPolicy::new(3, 50, 400),
        ..SimConfig::default()
    });
    let hasher = SplitMix64::with_seed(99);
    let origin = ring.alive_ids()[0];
    let mut ledger = CostLedger::new();
    for i in 0..ITEMS {
        dhs.insert_via(
            &mut ring,
            &mut net,
            1,
            hasher.hash_u64(i),
            origin,
            &mut rng,
            &mut ledger,
        );
    }
    let result = dhs.count_via(&ring, &mut net, 1, origin, &mut rng, &mut ledger);
    let telemetry = net.into_telemetry();
    Run {
        estimate: result.estimate,
        registers: result.registers,
        hops: ledger.hops(),
        bytes: ledger.bytes(),
        messages: ledger.messages(),
        trace: telemetry.trace_bytes(),
        digest: telemetry.digest(),
    }
}

/// The same scenario over the synchronous direct path.
fn run_direct(seed: u64, estimator: EstimatorKind) -> Run {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ring = Ring::build(NODES, RingConfig::default(), &mut rng);
    let dhs = Dhs::new(dhs_config(estimator)).unwrap();
    let hasher = SplitMix64::with_seed(99);
    let origin = ring.alive_ids()[0];
    let mut ledger = CostLedger::new();
    for i in 0..ITEMS {
        dhs.insert(
            &mut ring,
            1,
            hasher.hash_u64(i),
            origin,
            &mut rng,
            &mut ledger,
        );
    }
    let result = dhs.count(&ring, 1, origin, &mut rng, &mut ledger);
    Run {
        estimate: result.estimate,
        registers: result.registers,
        hops: ledger.hops(),
        bytes: ledger.bytes(),
        messages: ledger.messages(),
        trace: Vec::new(),
        digest: 0,
    }
}

fn estimators() -> [EstimatorKind; 3] {
    [
        EstimatorKind::SuperLogLog,
        EstimatorKind::Pcsa,
        EstimatorKind::HyperLogLog,
    ]
}

proptest! {
    #[test]
    fn same_seed_replays_byte_identically(seed in any::<u64>(), loss_pct in 0u32..30) {
        let estimator = estimators()[(seed % 3) as usize];
        let faults = FaultPlane {
            loss: f64::from(loss_pct) / 100.0,
            duplication: 0.05,
            reorder_jitter: 20,
            ..FaultPlane::none()
        };
        let a = run_simulated(seed, estimator, faults.clone());
        let b = run_simulated(seed, estimator, faults);
        prop_assert_eq!(a.trace, b.trace, "telemetry trace must be byte-identical");
        prop_assert_eq!(a.digest, b.digest);
        prop_assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        prop_assert_eq!(a.registers, b.registers);
        prop_assert_eq!((a.hops, a.bytes, a.messages), (b.hops, b.bytes, b.messages));
    }

    #[test]
    fn loss_free_simulation_matches_direct_transport(seed in any::<u64>()) {
        let estimator = estimators()[(seed % 3) as usize];
        let simulated = run_simulated(seed, estimator, FaultPlane::none());
        let direct = run_direct(seed, estimator);
        prop_assert_eq!(
            simulated.estimate.to_bits(),
            direct.estimate.to_bits(),
            "estimates must be bit-identical without faults"
        );
        prop_assert_eq!(simulated.registers, direct.registers);
        prop_assert_eq!(simulated.hops, direct.hops);
        prop_assert_eq!(simulated.bytes, direct.bytes);
        prop_assert_eq!(simulated.messages, direct.messages);
    }
}

/// Direct (non-property) regression: a timeout consumes virtual time and
/// the retry backoff is visible on the clock.
#[test]
fn retries_advance_the_virtual_clock() {
    let mut net = SimTransport::new(SimConfig {
        seed: 1,
        faults: FaultPlane::lossy(1.0),
        retry: RetryPolicy::new(3, 100, 10_000),
        ..SimConfig::default()
    });
    let mut ledger = CostLedger::new();
    let r = dhs_core::transport::with_retry(&mut net, |t| {
        t.exchange(1, 2, dhs_core::MessageKind::Probe, 16, 72, &mut ledger)
    });
    assert!(r.is_err());
    // 3 timeouts (400 each) + backoff pauses 100 and 200 between them.
    assert_eq!(net.now(), 3 * 400 + 100 + 200);
    assert_eq!(ledger.dropped_messages(), 3);
}
