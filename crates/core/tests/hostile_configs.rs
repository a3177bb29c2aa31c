//! Hostile configurations: over a wide grid of `DhsConfig`s, every one
//! either fails `validate` (so `Dhs::new` refuses it) or survives
//! `insert`, `bulk_insert`, `count` and `count_multi` on a 3-node ring
//! with a finite, non-negative estimate. A configuration that validates
//! and then panics is a validation gap. One test per estimator, so the
//! three sweeps run side by side.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dhs_core::{Dhs, DhsConfig, EstimatorKind};
use dhs_dht::cost::CostLedger;
use dhs_dht::ring::{Ring, RingConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run every operation once on a fresh copy of `ring`.
fn exercise(dhs: &Dhs, ring: &Ring, items: &[u64]) {
    let mut ring = ring.clone();
    let origin = ring.alive_ids()[0];
    let mut rng = StdRng::seed_from_u64(7);
    let mut ledger = CostLedger::new();
    for &item in &items[..8] {
        dhs.insert(&mut ring, 1, item, origin, &mut rng, &mut ledger);
    }
    dhs.bulk_insert(&mut ring, 2, items, origin, &mut rng, &mut ledger);
    let one = dhs.count(&ring, 2, origin, &mut rng, &mut ledger);
    let many = dhs.count_multi(&ring, &[1, 2], origin, &mut rng, &mut ledger);
    assert_eq!(many.len(), 2);
    for r in std::iter::once(&one).chain(&many) {
        assert!(
            r.estimate.is_finite() && r.estimate >= 0.0,
            "{}",
            r.estimate
        );
    }
}

/// Sweep m ∈ 2^{0..12} and the edges of k, bit_shift, lim and
/// replication for `estimator`. Returns how many configurations
/// validated and how many were rejected; panics listing every valid
/// configuration that did not survive [`exercise`].
fn sweep(estimator: EstimatorKind) -> (usize, usize) {
    let ring = Ring::build(3, RingConfig::default(), &mut StdRng::seed_from_u64(3));
    let items: Vec<u64> = (1..=64u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let (mut valid, mut rejected) = (0, 0);
    let mut panicked = Vec::new();
    for log_m in 0..=12u32 {
        // Every edge of k against this m: the smallest keys, no rank bit
        // (rejected), one and two rank bits, the paper's 24, the widest.
        let mut ks = vec![1, 2, log_m, log_m + 1, log_m + 2, 24, 63, 64];
        ks.sort_unstable();
        ks.dedup();
        for k in ks {
            // Both sides of the shift bound: none, one, the largest
            // storable shift and the first one past it.
            let rank_bits = k.saturating_sub(log_m);
            let mut shifts = vec![0, 1, rank_bits.saturating_sub(1), rank_bits];
            shifts.sort_unstable();
            shifts.dedup();
            for bit_shift in shifts {
                // Minimal retries without replicas, and more replicas
                // than the ring has nodes.
                for (lim, replication) in [(1, 1), (3, 4)] {
                    let cfg = DhsConfig {
                        k,
                        m: 1 << log_m,
                        lim,
                        replication,
                        bit_shift,
                        estimator,
                        ..DhsConfig::default()
                    };
                    let Ok(dhs) = Dhs::new(cfg) else {
                        rejected += 1;
                        continue;
                    };
                    valid += 1;
                    if catch_unwind(AssertUnwindSafe(|| exercise(&dhs, &ring, &items))).is_err() {
                        panicked.push(cfg);
                    }
                }
            }
        }
    }
    assert!(
        panicked.is_empty(),
        "valid configs that panic: {panicked:?}"
    );
    (valid, rejected)
}

#[test]
fn pcsa_configs_are_rejected_or_survive_every_operation() {
    let (valid, rejected) = sweep(EstimatorKind::Pcsa);
    assert!(
        valid > 250 && rejected > 250,
        "{valid} valid, {rejected} rejected"
    );
}

#[test]
fn superloglog_configs_are_rejected_or_survive_every_operation() {
    let (valid, rejected) = sweep(EstimatorKind::SuperLogLog);
    assert!(
        valid > 250 && rejected > 250,
        "{valid} valid, {rejected} rejected"
    );
}

#[test]
fn hyperloglog_configs_are_rejected_or_survive_every_operation() {
    let (valid, rejected) = sweep(EstimatorKind::HyperLogLog);
    assert!(
        valid > 200 && rejected > 250,
        "{valid} valid, {rejected} rejected"
    );
}
