//! The crate's honesty invariants, end to end:
//!
//! * **Thread-count transparency** — the threaded driver's state and
//!   metric digests are bit-identical at 1, 2, 4, and 8 workers, and
//!   two same-seed runs at `DHS_THREADS` workers agree completely.
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
