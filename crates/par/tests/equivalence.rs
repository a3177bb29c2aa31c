//! The crate's honesty invariants, end to end:
//!
//! * **Thread-count transparency** — the threaded driver's state and
//!   metric digests are bit-identical at 1, 2, 4, and 8 workers, and
//!   two same-seed runs at any one of those counts agree completely.
//! * **Bad geometry is an error** — a `SatConfig` no store accepts comes
//!   back as `Err` on the caller's thread, never as a panic.

use dhs_par::SatConfig;
use dhs_workload::TenantWorkload;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    for threads in [1usize, 2, 4, 8] {
        let a = run(threads);
        let b = run(threads);
        // Across thread counts: the same store state and metrics.
        assert_eq!(a.state_digest, base.state_digest, "threads={threads}");
        assert_eq!(
            a.metrics_digest(),
            base.metrics_digest(),
            "threads={threads}"
        );
        assert_eq!(a.items, base.items);
        assert_eq!(a.keys, base.keys);
        assert!(a.speedup() >= 1.0, "threads={threads}");
        // Across two runs at one thread count: everything, per worker too.
        assert_eq!(a.state_digest, b.state_digest, "threads={threads}");
        assert_eq!(a.metrics_digest(), b.metrics_digest(), "threads={threads}");
        assert_eq!(a.chunks, b.chunks, "threads={threads}");
        assert_eq!(a.serial_ticks, b.serial_ticks, "threads={threads}");
        assert_eq!(a.parallel_ticks, b.parallel_ticks, "threads={threads}");
        assert_eq!(a.workers.len(), b.workers.len(), "threads={threads}");
        for (wa, wb) in a.workers.iter().zip(&b.workers) {
            assert_eq!(wa.worker, wb.worker, "threads={threads}");
            assert_eq!(wa.items, wb.items, "threads={threads}");
            assert_eq!(wa.keys, wb.keys, "threads={threads}");
            assert_eq!(wa.chunks, wb.chunks, "threads={threads}");
            assert_eq!(wa.busy_ticks, wb.busy_ticks, "threads={threads}");
        }
    }
}

#[test]
fn bad_shard_geometry_is_an_error_not_a_panic() {
    let workload = small_workload();
    for (shards, m) in [(0usize, 64usize), (8, 48)] {
        let cfg = SatConfig {
            shards,
            m,
            ..SatConfig::new(2, 1)
        };
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let out = dhs_par::run_saturation(&cfg, &workload, &mut rng);
        assert!(out.is_err(), "shards={shards} m={m}");
    }
}
