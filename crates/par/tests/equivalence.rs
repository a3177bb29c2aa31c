#![allow(clippy::cast_possible_truncation)] // test data has known ranges
//! The crate's honesty invariants, end to end:
//!
//! * **Permutation transparency** — replaying completions in *any*
//!   seeded permutation yields bit-identical estimates, identical RNG
//!   draw counts, and identical metric digests versus the strictly
//!   in-order `DirectTransport` drive.
//! * **Store-order transparency** — a windowed out-of-order store run
//!   leaves the ring, the success flags, and the cost ledger exactly
//!   where the sequential run leaves them.
//! * **Thread-count transparency** — the threaded driver's state and
//!   metric digests are bit-identical at 1, 2, 4, and 8 workers, and
//!   two same-seed runs at `DHS_THREADS` workers agree completely.

use dhs_core::machine::drive_store_in_order;
use dhs_core::tuple::DhsTuple;
use dhs_core::{Dhs, DhsConfig, DirectTransport, EstimatorKind, Observed, StoreMachine};
use dhs_dht::cost::CostLedger;
use dhs_dht::ring::{Ring, RingConfig};
use dhs_obs::Observer;
use dhs_par::{drive_store_ooo, CountingRng, OooEngine, SatConfig};
use dhs_sketch::{ItemHasher, SplitMix64};
use dhs_workload::TenantWorkload;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small populated world: ring, sketch layer, and three metrics with
/// a deterministic insert history.
fn build_world(seed: u64, pcsa: bool) -> (Ring, Dhs, u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AAD_0007);
    let mut ring = Ring::build(32, RingConfig::default(), &mut rng);
    let estimator = if pcsa {
        EstimatorKind::Pcsa
    } else {
        EstimatorKind::SuperLogLog
    };
    let dhs = Dhs::new(DhsConfig {
        m: 16,
        estimator,
        ..DhsConfig::default()
    })
    .expect("valid config");
    let hasher = SplitMix64::default();
    let origin = ring.random_alive(&mut rng);
    let mut ledger = CostLedger::new();
    for metric in 1u32..=3 {
        for item in 0..(40 * metric as u64) {
            let key = hasher.hash_u64(item ^ (u64::from(metric) << 48));
            dhs.insert(&mut ring, metric, key, origin, &mut rng, &mut ledger);
        }
    }
    (ring, dhs, origin)
}

proptest! {
    /// Any seeded completion permutation produces bit-identical
    /// estimates, equal draw counts, and an equal metric digest versus
    /// the sequential in-order baseline.
    #[test]
    fn ooo_scan_matches_in_order(
        seed in any::<u64>(),
        perm_seed in any::<u64>(),
        pcsa in any::<bool>(),
    ) {
        let (ring, dhs, origin) = build_world(seed, pcsa);
        // The queued operations: three single-metric counts plus one
        // multi-metric count, each with its own seeded RNG.
        let ops: Vec<Vec<u32>> = vec![vec![1], vec![2], vec![3], vec![1, 2, 3]];

        // Baseline: strict sequential in-order drive.
        let mut base_transport = Observed::new(DirectTransport, Observer::new(1));
        let mut baseline = Vec::new();
        for (i, metrics) in ops.iter().enumerate() {
            let mut rng = CountingRng::new(StdRng::seed_from_u64(seed ^ i as u64));
            let mut ledger = CostLedger::new();
            let results = dhs.count_multi_via(
                &ring, &mut base_transport, metrics, origin, &mut rng, &mut ledger,
            );
            baseline.push((results, rng.draws()));
        }

        // Out-of-order replay under a seeded permutation.
        let mut ooo_transport = Observed::new(DirectTransport, Observer::new(1));
        let mut engine = OooEngine::new(&dhs);
        for (i, metrics) in ops.iter().enumerate() {
            engine.push_count(metrics, origin, seed ^ i as u64);
        }
        let mut sched = StdRng::seed_from_u64(perm_seed);
        let (outcomes, stats) = engine.run(&ring, &mut ooo_transport, &mut sched);

        prop_assert_eq!(outcomes.len(), baseline.len());
        let mut total_sends = 0u64;
        for ((outcome, (expected, expected_draws)), metrics) in
            outcomes.iter().zip(&baseline).zip(&ops)
        {
            prop_assert_eq!(outcome.results.len(), metrics.len());
            prop_assert_eq!(outcome.draws, *expected_draws);
            for (got, want) in outcome.results.iter().zip(expected) {
                prop_assert_eq!(got.metric, want.metric);
                prop_assert_eq!(got.estimate.to_bits(), want.estimate.to_bits());
                prop_assert_eq!(&got.registers, &want.registers);
            }
            total_sends += outcome.results[0].stats.lookups + outcome.results[0].stats.probes;
        }
        prop_assert_eq!(stats.completions, total_sends);
        // Same per-exchange and per-op recordings ⇒ same metric digest.
        prop_assert_eq!(
            ooo_transport.observer().metrics.digest(),
            base_transport.observer().metrics.digest()
        );
    }

    /// A windowed out-of-order store leaves ring state, success flags,
    /// and ledger totals identical to the sequential window-1 drive.
    #[test]
    fn ooo_store_matches_in_order(
        seed in any::<u64>(),
        perm_seed in any::<u64>(),
        window in 2usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5AAD_0008);
        let ring = Ring::build(24, RingConfig::default(), &mut rng);
        let cfg = DhsConfig { m: 16, ..DhsConfig::default() };
        let origin = ring.random_alive(&mut rng);
        // A grouped batch spanning several ranks (⇒ several owners).
        let groups: Vec<(u32, Vec<DhsTuple>)> = (0..6u32)
            .map(|i| {
                let rank = cfg.bit_shift + i;
                let tuples = (0..4u16)
                    .map(|v| DhsTuple { metric: 9, vector: v, bit: rank as u8 })
                    .collect();
                (rank, tuples)
            })
            .collect();

        let mut ring_a = ring.clone();
        let mut rng_a = CountingRng::new(StdRng::seed_from_u64(seed));
        let mut machine_a = StoreMachine::new(&cfg, groups.clone(), origin, 1, &ring_a, &mut rng_a);
        let mut ledger_a = CostLedger::new();
        drive_store_in_order(&mut machine_a, &mut ring_a, &mut DirectTransport, &mut ledger_a);

        let mut ring_b = ring.clone();
        let mut rng_b = CountingRng::new(StdRng::seed_from_u64(seed));
        let mut machine_b =
            StoreMachine::new(&cfg, groups, origin, window, &ring_b, &mut rng_b);
        let mut ledger_b = CostLedger::new();
        let mut sched = StdRng::seed_from_u64(perm_seed);
        drive_store_ooo(&mut machine_b, &mut ring_b, &mut DirectTransport, &mut ledger_b, &mut sched);

        prop_assert_eq!(rng_a.draws(), rng_b.draws());
        prop_assert_eq!(machine_a.into_ok(), machine_b.into_ok());
        prop_assert_eq!(ledger_a.bytes(), ledger_b.bytes());
        prop_assert_eq!(ledger_a.hops(), ledger_b.hops());
        prop_assert_eq!(ledger_a.messages(), ledger_b.messages());
        prop_assert_eq!(ledger_a.visits(), ledger_b.visits());

        // The stored tuples are identical: same-seed scans agree bitwise.
        let dhs = Dhs::new(cfg).expect("valid config");
        let mut scan_a = StdRng::seed_from_u64(seed ^ 1);
        let mut scan_b = StdRng::seed_from_u64(seed ^ 1);
        let est_a = dhs.count(&ring_a, 9, origin, &mut scan_a, &mut CostLedger::new());
        let est_b = dhs.count(&ring_b, 9, origin, &mut scan_b, &mut CostLedger::new());
        prop_assert_eq!(est_a.estimate.to_bits(), est_b.estimate.to_bits());
        prop_assert_eq!(est_a.registers, est_b.registers);
    }
}

/// An operation queued with no metrics is empty, not a panic: no
/// results, no draws, and it leaves the metric digest of the operations
/// queued beside it untouched.
#[test]
fn ooo_engine_accepts_an_empty_metric_list() {
    let (ring, dhs, origin) = build_world(3, false);
    let run = |ops: &[&[u32]]| {
        let mut transport = Observed::new(DirectTransport, Observer::new(1));
        let mut engine = OooEngine::new(&dhs);
        for (i, metrics) in ops.iter().enumerate() {
            engine.push_count(metrics, origin, 40 + i as u64);
        }
        let (outcomes, _) = engine.run(&ring, &mut transport, &mut StdRng::seed_from_u64(9));
        (outcomes, transport.observer().metrics.digest())
    };
    let (with_empty, digest_with) = run(&[&[1], &[]]);
    let (without, digest_without) = run(&[&[1]]);
    assert!(with_empty[1].results.is_empty());
    assert_eq!(with_empty[1].draws, 0);
    assert_eq!(with_empty[0].results, without[0].results);
    assert_eq!(digest_with, digest_without);
}

/// The saturation workload for the threaded-driver tests.
fn small_workload() -> TenantWorkload {
    TenantWorkload {
        tenants: 4,
        metrics_per_tenant: 64,
        theta: 0.99,
        extra_updates: 4_000,
    }
}

#[test]
fn two_runs_at_dhs_threads_are_identical() {
    let threads: usize = std::env::var("DHS_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let workload = small_workload();
    let run = || {
        let cfg = SatConfig::new(threads, 0xA11C_E5ED);
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        dhs_par::run_saturation(&cfg, &workload, &mut rng).expect("driver runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.state_digest, b.state_digest);
    assert_eq!(a.metrics_digest(), b.metrics_digest());
    assert_eq!(a.items, b.items);
    assert_eq!(a.keys, b.keys);
    assert_eq!(a.chunks, b.chunks);
    assert_eq!(a.serial_ticks, b.serial_ticks);
    assert_eq!(a.parallel_ticks, b.parallel_ticks);
    for (wa, wb) in a.workers.iter().zip(&b.workers) {
        assert_eq!(wa.items, wb.items);
        assert_eq!(wa.keys, wb.keys);
        assert_eq!(wa.busy_ticks, wb.busy_ticks);
    }
}

#[test]
fn digests_are_invariant_across_thread_counts() {
    let workload = small_workload();
    let run = |threads: usize| {
        let cfg = SatConfig::new(threads, 0xA11C_E5ED);
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        dhs_par::run_saturation(&cfg, &workload, &mut rng).expect("driver runs")
    };
    let base = run(1);
    assert_eq!(base.threads, 1);
    // The 1-thread virtual critical path IS the serial path.
    assert!((base.speedup() - 1.0).abs() < f64::EPSILON);
    for threads in [2usize, 4, 8] {
        let report = run(threads);
        assert_eq!(report.state_digest, base.state_digest, "threads={threads}");
        assert_eq!(
            report.metrics_digest(),
            base.metrics_digest(),
            "threads={threads}"
        );
        assert_eq!(report.items, base.items);
        assert_eq!(report.keys, base.keys);
        assert!(report.speedup() >= 1.0, "threads={threads}");
    }
}
