//! The catalogue: every metric the benchmark prints, with its unit, its
//! direction, the layer it belongs to and — for a layer metric — the
//! end-to-end metric it should move and on which workload. `run` prints
//! exactly these names; a unit test holds `BENCHMARK.json` to them.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by; also the
    /// A/A agreement bound. A rate's bound is the contract's ceiling,
    /// 0.25: on the 2-core shared VM the sizes were chosen on, the same
    /// binary on the same seed reads ± 5 % from run to run in a quiet
    /// minute and ± 10 % in a busy one, and a bound under three times
    /// the spread would reject the code for the host's noise.
    pub bound: f64,
    /// Repeats bit for bit for a seed; reported from the first round.
    pub exact: bool,
    /// Workload whose own phases measure it at full shape; the other
    /// three read it from their small-shape background pass.
    pub home: &'static str,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// `BENCHMARK.json`'s column; the unit test holds it to this one.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// Workload whose phases produce it at full shape.
    pub home: &'static str,
    /// End-to-end metrics it should move (empty: a cross-check only).
    pub moves: &'static str,
    /// A model output or a ratio of model outputs: repeats bit for bit
    /// for a seed, and is reported from the first round alone.
    pub exact: bool,
}

const fn e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    home: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: matches!(unit.as_bytes(), b"ratio" | b"B/sketch"),
        home,
    }
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    home: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        home,
        moves,
        exact: false,
    }
}

/// An exact layer metric (see [`Layer::exact`]).
const fn x(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    home: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        home,
        moves,
        exact: true,
    }
}

const W: &str = "dhs-write";
const R: &str = "dhs-read";
const N: &str = "net-lossy";
const T: &str = "tenant-ingest";

pub const END_TO_END: [EndToEnd; 16] = [
    e("setup_s", "s", "lower", 0.25, "all"),
    e("insert_ops_s", "inserts/s", "higher", 0.25, W),
    e("fast_insert_ops_s", "accesses/s", "higher", 0.25, W),
    e("count_ops_s", "counts/s", "higher", 0.25, R),
    e("count_p99_us", "us", "lower", 0.25, R),
    e("hinted_count_ops_s", "counts/s", "higher", 0.25, R),
    e("multi_count_ops_s", "scans/s", "higher", 0.25, R),
    e("count_rel_err", "ratio", "lower", 0.15, R),
    e("net_insert_ops_s", "inserts/s", "higher", 0.25, N),
    e("net_count_ops_s", "counts/s", "higher", 0.25, N),
    e("store_ops_s", "updates/s", "higher", 0.25, T),
    e("store_evict_ops_s", "updates/s", "higher", 0.25, T),
    e("store_estimate_ops_s", "estimates/s", "higher", 0.25, T),
    e("store_bytes_per_sketch", "B/sketch", "lower", 0.02, T),
    e("driver_w1_ops_s", "updates/s", "higher", 0.25, T),
    e("driver_w2_ops_s", "updates/s", "higher", 0.25, T),
];

pub const LAYERS: &[Layer] = &[
    // sketch
    l(
        "sketch.hash_rho_ns",
        "ns",
        "lower",
        T,
        "store_ops_s driver_w1_ops_s driver_w2_ops_s",
    ),
    l("sketch.tier_observe_ns", "ns", "lower", T, "store_ops_s"),
    x("sketch.tier_promotions", "count", "lower", T, "store_ops_s"),
    l(
        "sketch.estimate_m64_ns",
        "ns",
        "lower",
        T,
        "store_estimate_ops_s",
    ),
    l("sketch.estimate_m512_ns", "ns", "lower", R, "count_ops_s"),
    l("sketch.wire_ns", "ns", "lower", T, "store_evict_ops_s"),
    x(
        "sketch.payload_bytes_per_sketch",
        "B/sketch",
        "lower",
        T,
        "store_bytes_per_sketch",
    ),
    // dht
    l("dht.insert_route_ns", "ns", "lower", W, "insert_ops_s"),
    l("dht.insert_put_ns", "ns", "lower", W, "insert_ops_s"),
    l("dht.insert_nav_ns", "ns", "lower", W, "insert_ops_s"),
    l("dht.insert_share", "ratio", "lower", W, "insert_ops_s"),
    x("dht.insert_hops", "hops", "lower", W, "insert_ops_s"),
    l("dht.fast_route_ns", "ns", "lower", W, "fast_insert_ops_s"),
    x(
        "dht.fast_route_hit_ratio",
        "ratio",
        "higher",
        W,
        "fast_insert_ops_s",
    ),
    l("dht.fast_put_ns", "ns", "lower", W, "fast_insert_ops_s"),
    l("dht.fast_share", "ratio", "lower", W, "fast_insert_ops_s"),
    l(
        "dht.count_fetch_ns",
        "ns",
        "lower",
        R,
        "count_ops_s count_p99_us hinted_count_ops_s multi_count_ops_s net_count_ops_s",
    ),
    x(
        "dht.count_fetch_calls",
        "count",
        "lower",
        R,
        "count_ops_s count_p99_us",
    ),
    l("dht.count_route_ns", "ns", "lower", R, "count_ops_s"),
    x("dht.count_route_calls", "count", "lower", R, "count_ops_s"),
    x("dht.count_nav_calls", "count", "lower", R, "count_ops_s"),
    l(
        "dht.count_share",
        "ratio",
        "lower",
        R,
        "count_ops_s count_p99_us",
    ),
    x(
        "dht.multi_fetch_calls",
        "count",
        "lower",
        R,
        "multi_count_ops_s",
    ),
    l("dht.multi_share", "ratio", "lower", R, "multi_count_ops_s"),
    l("dht.ninsert_share", "ratio", "lower", N, "net_insert_ops_s"),
    l("dht.ncount_share", "ratio", "lower", N, "net_count_ops_s"),
    // core
    l("core.insert_self_ns", "ns", "lower", W, "insert_ops_s"),
    l("core.insert_share", "ratio", "lower", W, "insert_ops_s"),
    l("core.fast_self_ns", "ns", "lower", W, "fast_insert_ops_s"),
    x(
        "core.fast_elide_ratio",
        "ratio",
        "higher",
        W,
        "fast_insert_ops_s",
    ),
    x(
        "core.fast_msgs_per_kitem",
        "msgs",
        "lower",
        W,
        "fast_insert_ops_s",
    ),
    l(
        "core.count_self_ns",
        "ns",
        "lower",
        R,
        "count_ops_s count_p99_us",
    ),
    l(
        "core.count_share",
        "ratio",
        "lower",
        R,
        "count_ops_s count_p99_us",
    ),
    x("core.count_probes", "count", "lower", R, "count_ops_s"),
    x("core.count_lookups", "count", "lower", R, "count_ops_s"),
    x("core.count_intervals", "count", "lower", R, "count_ops_s"),
    l(
        "core.hinted_self_ns",
        "ns",
        "lower",
        R,
        "hinted_count_ops_s",
    ),
    x(
        "core.hinted_intervals_skipped",
        "count",
        "higher",
        R,
        "hinted_count_ops_s",
    ),
    l("core.multi_self_ns", "ns", "lower", R, "multi_count_ops_s"),
    l("core.multi_share", "ratio", "lower", R, "multi_count_ops_s"),
    l(
        "core.ninsert_share",
        "ratio",
        "lower",
        N,
        "net_insert_ops_s",
    ),
    l("core.ncount_share", "ratio", "lower", N, "net_count_ops_s"),
    // net
    l(
        "net.ninsert_exchange_ns",
        "ns",
        "lower",
        N,
        "net_insert_ops_s",
    ),
    x(
        "net.ninsert_exchanges",
        "count",
        "lower",
        N,
        "net_insert_ops_s",
    ),
    l("net.ninsert_share", "ratio", "lower", N, "net_insert_ops_s"),
    l(
        "net.ncount_exchange_ns",
        "ns",
        "lower",
        N,
        "net_count_ops_s",
    ),
    x(
        "net.ncount_exchanges",
        "count",
        "lower",
        N,
        "net_count_ops_s",
    ),
    l("net.ncount_share", "ratio", "lower", N, "net_count_ops_s"),
    x("net.sent", "count", "lower", N, ""),
    x("net.dropped", "count", "lower", N, ""),
    x("net.duplicates", "count", "lower", N, ""),
    x("net.retry_pauses", "count", "lower", N, ""),
    x("net.virtual_ticks_per_count", "ticks", "lower", N, ""),
    x("net.count_rel_err", "ratio", "lower", N, ""),
    // obs
    x("obs.insert_events", "count", "lower", W, ""),
    l("obs.insert_record_ns", "ns", "lower", W, ""),
    l("obs.insert_overhead_pct", "%", "lower", W, ""),
    x("obs.count_events", "count", "lower", R, ""),
    l("obs.count_record_ns", "ns", "lower", R, ""),
    l("obs.count_overhead_pct", "%", "lower", R, ""),
    x(
        "obs.store_events",
        "count",
        "lower",
        T,
        "driver_w1_ops_s driver_w2_ops_s",
    ),
    l(
        "obs.store_record_ns",
        "ns",
        "lower",
        T,
        "driver_w1_ops_s driver_w2_ops_s",
    ),
    // shard
    l(
        "shard.store_observe_ns",
        "ns",
        "lower",
        T,
        "store_ops_s driver_w1_ops_s driver_w2_ops_s",
    ),
    l(
        "shard.store_index_ns",
        "ns",
        "lower",
        T,
        "store_ops_s driver_w1_ops_s driver_w2_ops_s",
    ),
    l("shard.store_reg_pass_ns", "ns", "lower", T, "store_ops_s"),
    l("shard.store_zipf_pass_ns", "ns", "lower", T, "store_ops_s"),
    l(
        "shard.router_ns",
        "ns",
        "lower",
        T,
        "store_ops_s driver_w1_ops_s",
    ),
    l(
        "shard.evict_observe_ns",
        "ns",
        "lower",
        T,
        "store_evict_ops_s",
    ),
    x("shard.evictions", "count", "lower", T, "store_evict_ops_s"),
    x("shard.recoveries", "count", "lower", T, "store_evict_ops_s"),
    x("shard.spilled_bytes", "B", "lower", T, "store_evict_ops_s"),
    l("shard.cold_spill_ns", "ns", "lower", T, "store_evict_ops_s"),
    l(
        "shard.cold_recover_ns",
        "ns",
        "lower",
        T,
        "store_evict_ops_s",
    ),
    l(
        "shard.evict_share",
        "ratio",
        "lower",
        T,
        "store_evict_ops_s",
    ),
    l(
        "shard.estimate_ns",
        "ns",
        "lower",
        T,
        "store_estimate_ops_s",
    ),
    l(
        "shard.estimate_self_ns",
        "ns",
        "lower",
        T,
        "store_estimate_ops_s",
    ),
    x(
        "shard.bytes_per_sketch",
        "B/sketch",
        "lower",
        T,
        "store_bytes_per_sketch",
    ),
    x(
        "shard.resident",
        "count",
        "higher",
        T,
        "store_bytes_per_sketch",
    ),
    // par
    l("par.drv1_item_ns", "ns", "lower", T, "driver_w1_ops_s"),
    l("par.drv2_item_ns", "ns", "lower", T, "driver_w2_ops_s"),
    l(
        "par.drv1_overhead_ns",
        "ns",
        "lower",
        T,
        "driver_w1_ops_s driver_w2_ops_s",
    ),
    l("par.drv2_speedup", "ratio", "higher", T, "driver_w2_ops_s"),
    l(
        "par.drv2_efficiency_pct",
        "%",
        "higher",
        T,
        "driver_w2_ops_s",
    ),
    x(
        "par.worker_imbalance_pct",
        "%",
        "lower",
        T,
        "driver_w2_ops_s",
    ),
    x("par.chunks", "count", "lower", T, "driver_w1_ops_s"),
    // workload
    l(
        "workload.tenant_gen_ns",
        "ns",
        "lower",
        T,
        "driver_w2_ops_s",
    ),
    l(
        "workload.zipf_sample_ns",
        "ns",
        "lower",
        T,
        "driver_w2_ops_s",
    ),
    // harness
    l("trace.write_overhead_pct", "%", "lower", W, ""),
    l("trace.read_overhead_pct", "%", "lower", R, ""),
    l("trace.net_overhead_pct", "%", "lower", N, ""),
    l("trace.tenant_overhead_pct", "%", "lower", T, ""),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn layer(name: &str) -> Option<&'static Layer> {
    LAYERS.iter().find(|m| m.name == name)
}
