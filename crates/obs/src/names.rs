//! Canonical registry of every metric, counter, histogram, and span name
//! the DHS stack reports through a [`crate::Recorder`].
//!
//! Two latent-bug classes motivated this module (see DESIGN.md, dhs-lint
//! section): a typo'd metric name silently splits one logical series into
//! two, and a read of a misspelled name silently returns zero. Keeping
//! every name as a `pub const` here — and having `dhs-lint`'s
//! `metric_names` rule reject any string literal at a recorder call site
//! that is not in this table — turns both mistakes into build failures.
//!
//! Conventions:
//!
//! * dotted lowercase paths, most-general component first
//!   (`op.insert.bytes`, `route.cache.hit`, `msg.lookup.sent`);
//! * counters are events (`op.insert`), histograms carry a unit-ish
//!   suffix (`.bytes`, `.hops`, `.ticks`, `.size`);
//! * span names are bare verbs (`insert`, `count`, `route`) — they name a
//!   region of work, not a series.
//!
//! `dhs-lint` parses this file textually (every `pub const NAME: &str =
//! "..."` item), so keep declarations on that one-item-per-const shape.

// ---------------------------------------------------------------------
// DHS operation counters and histograms (dhs-core).
// ---------------------------------------------------------------------

/// One `insert` / `insert_via` / `insert_cached` call that shipped a tuple.
pub const OP_INSERT: &str = "op.insert";
/// Insertions elided by `bit_shift` (the bit is implied, nothing stored).
pub const OP_INSERT_ELIDED: &str = "op.insert.elided";
/// Wire bytes charged by one insertion (histogram).
pub const OP_INSERT_BYTES: &str = "op.insert.bytes";
/// One `bulk_insert` / `bulk_insert_via` / `bulk_insert_cached` call.
pub const OP_BULK_INSERT: &str = "op.bulk_insert";
/// Tuples actually shipped by bulk insertions (after dedup/elision).
pub const OP_BULK_INSERT_TUPLES: &str = "op.bulk_insert.tuples";
/// One count scan of one or more metrics, recorded at the end of the
/// scan body (`Dhs::scan` in dhs-core).
pub const OP_COUNT: &str = "op.count";
/// Wire bytes charged by one count scan (histogram).
pub const OP_COUNT_BYTES: &str = "op.count.bytes";
/// Routing hops charged by one count scan (histogram).
pub const OP_COUNT_HOPS: &str = "op.count.hops";
/// Bit-presence probes issued by one count scan (histogram).
pub const OP_COUNT_PROBES: &str = "op.count.probes";
/// One soft-state refresh round.
pub const OP_REFRESH: &str = "op.refresh";
/// Tuples re-stored by refresh rounds.
pub const OP_REFRESH_TUPLES: &str = "op.refresh.tuples";
/// Stores whose every transport attempt timed out (tuples lost).
pub const OP_STORE_LOST: &str = "op.store.lost";

// ---------------------------------------------------------------------
// Hinted counting (dhs-core fast path).
// ---------------------------------------------------------------------

/// Intervals skipped outright by a `ScanHint`-driven count.
pub const COUNT_HINT_SKIPPED: &str = "count.hint.skipped";
/// Hinted counts that started from a warm (recorded) hint.
pub const COUNT_HINT_WARM: &str = "count.hint.warm";
/// Hinted counts that fell back to a full scan (no usable hint).
pub const COUNT_HINT_COLD: &str = "count.hint.cold";

// ---------------------------------------------------------------------
// Origin-side epoch cache (dhs-core fast path).
// ---------------------------------------------------------------------

/// Insertions elided because the tuple was already stored this epoch.
pub const CACHE_HIT: &str = "cache.hit";
/// Insertions that had to ship (and primed the epoch cache).
pub const CACHE_MISS: &str = "cache.miss";
/// Tuples carried by one owner-batched store message (histogram).
pub const BATCH_SIZE: &str = "batch.size";

// ---------------------------------------------------------------------
// Transport retry layer (dhs-core).
// ---------------------------------------------------------------------

/// Attempts one `with_retry` exchange took before success/give-up
/// (histogram).
pub const EXCHANGE_ATTEMPTS: &str = "exchange.attempts";
/// Exchanges that exhausted every retry attempt.
pub const EXCHANGE_GAVE_UP: &str = "exchange.gave_up";

// ---------------------------------------------------------------------
// Routing (dhs-dht).
// ---------------------------------------------------------------------

/// Hops charged by one observed overlay lookup (histogram).
pub const ROUTE_HOPS: &str = "route.hops";
/// Route-cache lookups answered from a still-valid cached owner.
pub const ROUTE_CACHE_HIT: &str = "route.cache.hit";
/// Route-cache lookups that fell through to full routing.
pub const ROUTE_CACHE_MISS: &str = "route.cache.miss";
/// Cached owners evicted because validation found them stale.
pub const ROUTE_CACHE_STALE: &str = "route.cache.stale";

// ---------------------------------------------------------------------
// Per-kind transport message telemetry (`Observed<T, R>`).
// ---------------------------------------------------------------------

/// Attempted lookup exchanges.
pub const MSG_LOOKUP_SENT: &str = "msg.lookup.sent";
/// Successful lookup exchanges.
pub const MSG_LOOKUP_OK: &str = "msg.lookup.ok";
/// Timed-out lookup exchanges.
pub const MSG_LOOKUP_TIMEOUT: &str = "msg.lookup.timeout";
/// Virtual ticks lookup exchanges took (histogram).
pub const MSG_LOOKUP_TICKS: &str = "msg.lookup.ticks";
/// Routing hops of routed lookup exchanges (histogram).
pub const MSG_LOOKUP_HOPS: &str = "msg.lookup.hops";
/// Delivered lookup messages (feeds the load monitor).
pub const MSG_LOOKUP_DELIVERED: &str = "msg.lookup.delivered";

/// Attempted store exchanges.
pub const MSG_STORE_SENT: &str = "msg.store.sent";
/// Successful store exchanges.
pub const MSG_STORE_OK: &str = "msg.store.ok";
/// Timed-out store exchanges.
pub const MSG_STORE_TIMEOUT: &str = "msg.store.timeout";
/// Virtual ticks store exchanges took (histogram).
pub const MSG_STORE_TICKS: &str = "msg.store.ticks";
/// Routing hops of routed store exchanges (histogram).
pub const MSG_STORE_HOPS: &str = "msg.store.hops";
/// Delivered store messages (feeds the load monitor).
pub const MSG_STORE_DELIVERED: &str = "msg.store.delivered";

/// Attempted probe exchanges.
pub const MSG_PROBE_SENT: &str = "msg.probe.sent";
/// Successful probe exchanges.
pub const MSG_PROBE_OK: &str = "msg.probe.ok";
/// Timed-out probe exchanges.
pub const MSG_PROBE_TIMEOUT: &str = "msg.probe.timeout";
/// Virtual ticks probe exchanges took (histogram).
pub const MSG_PROBE_TICKS: &str = "msg.probe.ticks";
/// Routing hops of routed probe exchanges (histogram).
pub const MSG_PROBE_HOPS: &str = "msg.probe.hops";
/// Delivered probe messages (feeds the load monitor).
pub const MSG_PROBE_DELIVERED: &str = "msg.probe.delivered";

/// Attempted successor-scan exchanges.
pub const MSG_SUCC_SCAN_SENT: &str = "msg.succ_scan.sent";
/// Successful successor-scan exchanges.
pub const MSG_SUCC_SCAN_OK: &str = "msg.succ_scan.ok";
/// Timed-out successor-scan exchanges.
pub const MSG_SUCC_SCAN_TIMEOUT: &str = "msg.succ_scan.timeout";
/// Virtual ticks successor-scan exchanges took (histogram).
pub const MSG_SUCC_SCAN_TICKS: &str = "msg.succ_scan.ticks";
/// Routing hops of routed successor-scan exchanges (histogram).
pub const MSG_SUCC_SCAN_HOPS: &str = "msg.succ_scan.hops";
/// Delivered successor-scan messages (feeds the load monitor).
pub const MSG_SUCC_SCAN_DELIVERED: &str = "msg.succ_scan.delivered";

/// Delivered messages of an unknown kind tag (defensive bucket).
pub const MSG_OTHER_DELIVERED: &str = "msg.other.delivered";

// ---------------------------------------------------------------------
// Sharded multi-tenant sketch store (dhs-shard).
// ---------------------------------------------------------------------

/// Register observations applied by the sharded store.
pub const SHARD_OBSERVE: &str = "shard.observe";
/// Cross-shard flush batches drained.
pub const SHARD_FLUSH: &str = "shard.flush";
/// Updates one shard received from one flush batch (histogram).
pub const SHARD_FLUSH_BATCH: &str = "shard.flush.batch";
/// Register payload bytes of one resident sketch (histogram).
pub const SHARD_SKETCH_BYTES: &str = "shard.sketch.bytes";
/// Sketches evicted to enforce a shard's memory budget.
pub const SHARD_EVICT: &str = "shard.evict";
/// Wire bytes spilled to the cold tier by evictions.
pub const SHARD_SPILL_BYTES: &str = "shard.spill.bytes";
/// Sketches recovered from the cold tier on re-access.
pub const SHARD_RECOVER: &str = "shard.recover";
/// Sparse → packed register-tier promotions.
pub const SHARD_PROMOTE_PACKED: &str = "shard.promote.packed";
/// Packed → dense register-tier promotions.
pub const SHARD_PROMOTE_DENSE: &str = "shard.promote.dense";

// ---------------------------------------------------------------------
// Ablation measurements (recorded by the dhs-traj job runners in
// crates/bench; dhs-traj extracts each plan's KPIs from these).
// ---------------------------------------------------------------------

/// Messages charged by the N3 baseline (all fast-path layers off).
pub const ABL_MESSAGES_BASELINE: &str = "ablation.messages.baseline";
/// Messages charged with every N3 fast-path layer on.
pub const ABL_MESSAGES_OPTIMIZED: &str = "ablation.messages.optimized";
/// Routing hops charged by the N3 baseline.
pub const ABL_HOPS_BASELINE: &str = "ablation.hops.baseline";
/// Routing hops charged with every N3 fast-path layer on.
pub const ABL_HOPS_OPTIMIZED: &str = "ablation.hops.optimized";
/// Insert accesses the N3 workload issued.
pub const ABL_ACCESSES: &str = "ablation.accesses";
/// TTL epochs the N3 insert stream spans.
pub const ABL_EPOCHS: &str = "ablation.epochs";
/// Mean wire bytes per full count scan (gauge, rounded).
pub const ABL_COUNT_BYTES_FULL: &str = "ablation.count.bytes.full";
/// Mean wire bytes per hinted count scan (gauge, rounded).
pub const ABL_COUNT_BYTES_HINTED: &str = "ablation.count.bytes.hinted";
/// Mean intervals scanned per full count (gauge, milli-units).
pub const ABL_INTERVALS_FULL: &str = "ablation.intervals.full";
/// Mean intervals scanned per hinted count (gauge, milli-units).
pub const ABL_INTERVALS_HINTED: &str = "ablation.intervals.hinted";
/// 1 when stored tuples + estimates are byte-identical across layers.
pub const ABL_EQUIVALENT: &str = "ablation.equivalent";

/// Resident sketches after the N4 unbudgeted phase.
pub const ABL_SHARD_RESIDENT: &str = "ablation.shard.resident";
/// Register payload bytes (slot overhead excluded) after N4 phase A.
pub const ABL_SHARD_PAYLOAD_BYTES: &str = "ablation.shard.payload.bytes";
/// Register observations the N4 workload applied.
pub const ABL_SHARD_INSERTS: &str = "ablation.shard.inserts";
/// Evictions of the N4 budgeted phase.
pub const ABL_SHARD_EVICTIONS: &str = "ablation.shard.evictions";
/// Cold-tier recoveries of the N4 budgeted phase.
pub const ABL_SHARD_RECOVERIES: &str = "ablation.shard.recoveries";
/// 1 when sharded registers + estimates equal the single-shard store.
pub const ABL_SHARD_TRANSPARENT: &str = "ablation.shard.transparent";
/// 1 when budgeted + lossless cold tier estimates equal unbudgeted.
pub const ABL_SHARD_SPILL_LOSSLESS: &str = "ablation.shard.spill.lossless";
/// 1 when two same-seed budgeted runs evict identically.
pub const ABL_SHARD_EVICT_DETERMINISTIC: &str = "ablation.shard.evict.deterministic";

// ---------------------------------------------------------------------
// Parallel driver (dhs-par).
// ---------------------------------------------------------------------

/// Items ingested by the threaded saturation driver (all workers).
pub const PAR_ITEMS: &str = "par.items";

/// Aggregate saturation throughput (inserts/s, gauge).
pub const ABL_SAT_INSERTS: &str = "ablation.sat.inserts";
/// Virtual speedup over the 1-thread run (gauge, milli-units).
pub const ABL_SAT_SPEEDUP: &str = "ablation.sat.speedup";
/// Per-thread efficiency: speedup / threads (gauge, milli-percent).
pub const ABL_SAT_EFFICIENCY_PCT: &str = "ablation.sat.efficiency.pct";
/// Fan-in merge share of the parallel critical path (gauge, milli-pct).
pub const ABL_SAT_MERGE_OVERHEAD_PCT: &str = "ablation.sat.merge.overhead.pct";
/// Worker count of the ablation point (gauge).
pub const ABL_SAT_THREADS: &str = "ablation.sat.threads";
/// 1 when the state digest matches the 1-thread run's digest.
pub const ABL_SAT_DIGEST_INVARIANT: &str = "ablation.sat.digest.invariant";

// ---------------------------------------------------------------------
// Ablation-harness bookkeeping (dhs-traj).
// ---------------------------------------------------------------------

/// Ablation jobs executed by `run_ablation`.
pub const TRAJ_JOB: &str = "traj.job";
/// Ablation jobs whose runner returned an error.
pub const TRAJ_JOB_FAILED: &str = "traj.job.failed";
/// KPI values inside their declared min/max bounds.
pub const TRAJ_KPI_PASS: &str = "traj.kpi.pass";
/// KPI values outside their declared min/max bounds.
pub const TRAJ_KPI_FAIL: &str = "traj.kpi.fail";
/// Registry-gate violations (regression vs baseline or missing KPI).
pub const TRAJ_GATE_VIOLATION: &str = "traj.gate.violation";

// ---------------------------------------------------------------------
// Span names (bare verbs; regions of work on the virtual clock).
// ---------------------------------------------------------------------

/// One insertion (single tuple).
pub const SPAN_INSERT: &str = "insert";
/// One bulk insertion (grouped batch).
pub const SPAN_BULK_INSERT: &str = "bulk_insert";
/// One count scan.
pub const SPAN_COUNT: &str = "count";
/// One bit-interval probe round inside a count scan.
pub const SPAN_INTERVAL: &str = "interval";
/// One successor-walk retry inside an interval probe.
pub const SPAN_SUCC_SCAN: &str = "succ_scan";
/// One refresh round.
pub const SPAN_REFRESH: &str = "refresh";
/// One routed placement (lookup + routed store) of an owner batch.
pub const SPAN_ROUTE: &str = "route";
/// One replica-chain store of an owner batch.
pub const SPAN_STORE: &str = "store";

/// Every canonical name, for exhaustiveness checks and tooling.
pub const ALL: &[&str] = &[
    OP_INSERT,
    OP_INSERT_ELIDED,
    OP_INSERT_BYTES,
    OP_BULK_INSERT,
    OP_BULK_INSERT_TUPLES,
    OP_COUNT,
    OP_COUNT_BYTES,
    OP_COUNT_HOPS,
    OP_COUNT_PROBES,
    OP_REFRESH,
    OP_REFRESH_TUPLES,
    OP_STORE_LOST,
    COUNT_HINT_SKIPPED,
    COUNT_HINT_WARM,
    COUNT_HINT_COLD,
    CACHE_HIT,
    CACHE_MISS,
    BATCH_SIZE,
    EXCHANGE_ATTEMPTS,
    EXCHANGE_GAVE_UP,
    ROUTE_HOPS,
    ROUTE_CACHE_HIT,
    ROUTE_CACHE_MISS,
    ROUTE_CACHE_STALE,
    MSG_LOOKUP_SENT,
    MSG_LOOKUP_OK,
    MSG_LOOKUP_TIMEOUT,
    MSG_LOOKUP_TICKS,
    MSG_LOOKUP_HOPS,
    MSG_LOOKUP_DELIVERED,
    MSG_STORE_SENT,
    MSG_STORE_OK,
    MSG_STORE_TIMEOUT,
    MSG_STORE_TICKS,
    MSG_STORE_HOPS,
    MSG_STORE_DELIVERED,
    MSG_PROBE_SENT,
    MSG_PROBE_OK,
    MSG_PROBE_TIMEOUT,
    MSG_PROBE_TICKS,
    MSG_PROBE_HOPS,
    MSG_PROBE_DELIVERED,
    MSG_SUCC_SCAN_SENT,
    MSG_SUCC_SCAN_OK,
    MSG_SUCC_SCAN_TIMEOUT,
    MSG_SUCC_SCAN_TICKS,
    MSG_SUCC_SCAN_HOPS,
    MSG_SUCC_SCAN_DELIVERED,
    MSG_OTHER_DELIVERED,
    SHARD_OBSERVE,
    SHARD_FLUSH,
    SHARD_FLUSH_BATCH,
    SHARD_SKETCH_BYTES,
    SHARD_EVICT,
    SHARD_SPILL_BYTES,
    SHARD_RECOVER,
    SHARD_PROMOTE_PACKED,
    SHARD_PROMOTE_DENSE,
    ABL_MESSAGES_BASELINE,
    ABL_MESSAGES_OPTIMIZED,
    ABL_HOPS_BASELINE,
    ABL_HOPS_OPTIMIZED,
    ABL_ACCESSES,
    ABL_EPOCHS,
    ABL_COUNT_BYTES_FULL,
    ABL_COUNT_BYTES_HINTED,
    ABL_INTERVALS_FULL,
    ABL_INTERVALS_HINTED,
    ABL_EQUIVALENT,
    ABL_SHARD_RESIDENT,
    ABL_SHARD_PAYLOAD_BYTES,
    ABL_SHARD_INSERTS,
    ABL_SHARD_EVICTIONS,
    ABL_SHARD_RECOVERIES,
    ABL_SHARD_TRANSPARENT,
    ABL_SHARD_SPILL_LOSSLESS,
    ABL_SHARD_EVICT_DETERMINISTIC,
    PAR_ITEMS,
    ABL_SAT_INSERTS,
    ABL_SAT_SPEEDUP,
    ABL_SAT_EFFICIENCY_PCT,
    ABL_SAT_MERGE_OVERHEAD_PCT,
    ABL_SAT_THREADS,
    ABL_SAT_DIGEST_INVARIANT,
    TRAJ_JOB,
    TRAJ_JOB_FAILED,
    TRAJ_KPI_PASS,
    TRAJ_KPI_FAIL,
    TRAJ_GATE_VIOLATION,
    SPAN_INSERT,
    SPAN_BULK_INSERT,
    SPAN_COUNT,
    SPAN_INTERVAL,
    SPAN_SUCC_SCAN,
    SPAN_REFRESH,
    SPAN_ROUTE,
    SPAN_STORE,
];

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn all_names_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &name in ALL {
            assert!(seen.insert(name), "duplicate canonical name {name:?}");
        }
    }

    #[test]
    fn metric_names_are_dotted_lowercase() {
        for &name in ALL {
            assert!(!name.is_empty());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "non-canonical character in {name:?}"
            );
            assert!(!name.starts_with('.') && !name.ends_with('.'), "{name:?}");
        }
    }
}
