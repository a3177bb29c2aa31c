//! The observability layer's two headline guarantees, as properties:
//!
//! 1. **Determinism** — wrapping the seeded simulator in `Observed`
//!    keeps the whole pipeline replayable: the same seed produces an
//!    identical span digest and a byte-identical metrics snapshot, even
//!    with faults injected.
//! 2. **Transparency** — with no faults, a loss-free `SimTransport`
//!    records exactly the same counters and per-interval load as
//!    `DirectTransport` for an insert-and-count run over relation Q
//!    (only the latency histograms may differ — the simulator adds a
//!    clock, not behavior).
#![expect(clippy::unwrap_used, reason = "test helpers fail loudly")]

use proptest::prelude::*;

use dhs_core::transport::{DirectTransport, Observed, Transport};
use dhs_core::{Dhs, DhsConfig, EstimatorKind, RetryPolicy};
use dhs_dht::cost::CostLedger;
use dhs_dht::ring::{Ring, RingConfig};
use dhs_net::fault::FaultPlane;
use dhs_net::latency::LatencyModel;
use dhs_net::sim::{SimConfig, SimTransport};
use dhs_obs::Observer;
use dhs_sketch::{ItemHasher, SplitMix64};
use dhs_workload::relation::{Relation, PAPER_RELATIONS};

use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 32;

fn dhs_config() -> DhsConfig {
    DhsConfig {
        k: 20,
        m: 16,
        estimator: EstimatorKind::SuperLogLog,
        ..DhsConfig::default()
    }
}

/// Relation Q, shrunk far below paper scale so each proptest case stays
/// cheap (~1k tuples).
fn relation_q(seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    Relation::generate(&PAPER_RELATIONS[0], 0.0001, 1, &mut rng)
}

/// Insert relation Q tuple by tuple, then count it, over any observed
/// transport. Returns the estimate and the filled observer.
fn run_scenario<T: Transport>(seed: u64, net: &mut Observed<T, Observer>) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ring = Ring::build(NODES, RingConfig::default(), &mut rng);
    let dhs = Dhs::new(dhs_config()).unwrap();
    let hasher = SplitMix64::with_seed(99);
    let rel = relation_q(seed ^ 0x9E37);
    let mut ledger = CostLedger::new();
    for t in &rel.tuples {
        let origin = ring.random_alive(&mut rng);
        dhs.insert_via(
            &mut ring,
            net,
            1,
            hasher.hash_u64(t.id),
            origin,
            &mut rng,
            &mut ledger,
        );
    }
    let origin = ring.alive_ids()[0];
    dhs.count_via(&ring, net, 1, origin, &mut rng, &mut ledger)
        .estimate
}

fn sim_transport(seed: u64, faults: FaultPlane) -> SimTransport {
    SimTransport::new(SimConfig {
        seed: seed ^ 0x0B5E_12E5,
        latency: LatencyModel::Uniform { lo: 2, hi: 30 },
        faults,
        retry: RetryPolicy::new(3, 50, 400),
        ..SimConfig::default()
    })
}

fn observer() -> Observer {
    Observer::new(dhs_config().num_intervals() as usize)
}

proptest! {
    #[test]
    fn same_seed_produces_identical_span_digest_and_metrics(
        seed in any::<u64>(),
        loss_pct in 0u32..25,
    ) {
        let faults = FaultPlane {
            loss: f64::from(loss_pct) / 100.0,
            duplication: 0.05,
            reorder_jitter: 20,
            ..FaultPlane::none()
        };
        let mut a = Observed::new(sim_transport(seed, faults.clone()), observer());
        let est_a = run_scenario(seed, &mut a);
        let mut b = Observed::new(sim_transport(seed, faults), observer());
        let est_b = run_scenario(seed, &mut b);
        let (_, obs_a) = a.into_parts();
        let (_, obs_b) = b.into_parts();
        prop_assert_eq!(est_a.to_bits(), est_b.to_bits());
        prop_assert_eq!(obs_a.spans.digest(), obs_b.spans.digest(), "span digests must match");
        prop_assert_eq!(obs_a.spans.to_jsonl(), obs_b.spans.to_jsonl());
        prop_assert_eq!(obs_a.metrics.snapshot_jsonl(), obs_b.metrics.snapshot_jsonl());
        prop_assert_eq!(obs_a.metrics.digest(), obs_b.metrics.digest());
        prop_assert_eq!(obs_a.load.interval_loads(), obs_b.load.interval_loads());
    }

    #[test]
    fn loss_free_sim_records_the_same_counters_as_direct(seed in any::<u64>()) {
        let mut sim = Observed::new(sim_transport(seed, FaultPlane::none()), observer());
        let est_sim = run_scenario(seed, &mut sim);
        let mut direct = Observed::new(DirectTransport, observer());
        let est_direct = run_scenario(seed, &mut direct);
        let (_, obs_sim) = sim.into_parts();
        let (_, obs_direct) = direct.into_parts();
        prop_assert_eq!(est_sim.to_bits(), est_direct.to_bits());
        // Every counter — op.*, msg.*.{sent,ok,delivered}, retries — must
        // agree; only latency histograms may differ (virtual clock).
        prop_assert_eq!(
            obs_sim.metrics.counters(),
            obs_direct.metrics.counters(),
            "counters must be transport-independent without faults"
        );
        prop_assert_eq!(obs_sim.metrics.counter("exchange.gave_up"), 0);
        // Same messages to the same destinations: the per-interval and
        // per-node load maps agree too.
        prop_assert_eq!(obs_sim.load.interval_loads(), obs_direct.load.interval_loads());
        prop_assert_eq!(obs_sim.load.node_loads(), obs_direct.load.node_loads());
        // Hop histograms are clock-free, so they must agree as well.
        prop_assert_eq!(
            obs_sim.metrics.histogram("route.hops").map(|h| (h.count(), h.sum())),
            obs_direct.metrics.histogram("route.hops").map(|h| (h.count(), h.sum()))
        );
    }
}
