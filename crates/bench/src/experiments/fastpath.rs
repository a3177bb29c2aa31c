//! N3 — the `dhs-fast` layers: elision cache, route cache, batched
//! stores, and hinted counting.
//!
//! The DHS sketch structure makes most hot-path work provably redundant:
//! re-inserting an already-stored tuple only refreshes a timestamp that
//! the current TTL epoch does not need refreshed, repeated lookups
//! re-resolve ownership ranges the origin already learned, per-rank store
//! messages to the same owner could share one envelope, and the top of
//! the downward counting scan probes intervals a prior estimate proves
//! empty. This experiment stacks the four layers one at a time on Zipf
//! and uniform insert workloads and measures what each saves — while
//! checking the non-negotiable: the distinct stored-tuple set and the
//! (exhaustive-probe) estimate must be **identical** with every cache on
//! or off, and same-seed hinted and full counts must return
//! byte-identical registers and estimates.

use std::collections::BTreeSet;

use dhs_core::{Dhs, DhsConfig, EpochCache, ScanHint};
use dhs_dht::cost::CostLedger;
use dhs_dht::ring::{Ring, RingConfig};
use dhs_dht::route_cache::CachedOverlay;
use dhs_sketch::ItemHasher;
use dhs_workload::zipf::Zipf;
use rand::rngs::StdRng;
use rand::Rng;

use crate::env::{item_hasher, ExpConfig};
use crate::table::{f, Table};

const METRIC: u32 = 1;
/// TTL epochs the insert stream spans (epoch boundaries roll the cache).
const EPOCHS: usize = 3;
/// Items an origin buffers before a bulk flush in the batched layer.
const FLUSH: usize = 256;

/// The four stacked configurations under test.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Baseline,
    Elide,
    ElideRoute,
    ElideRouteBatch,
}

impl Mode {
    const ALL: [Mode; 4] = [
        Mode::Baseline,
        Mode::Elide,
        Mode::ElideRoute,
        Mode::ElideRouteBatch,
    ];

    fn name(self) -> &'static str {
        match self {
            Mode::Baseline => "baseline",
            Mode::Elide => "+elision",
            Mode::ElideRoute => "+route cache",
            Mode::ElideRouteBatch => "+batching",
        }
    }
}

struct LayerOut {
    messages: u64,
    hops: u64,
    kb: f64,
    elide_hit_pct: f64,
    route_hit_pct: f64,
    ring: Ring,
}

/// Overlay size used by this experiment (capped so the exhaustive-probe
/// equivalence counts stay cheap; the savings are node-count agnostic).
fn nodes(exp: &ExpConfig) -> usize {
    exp.nodes.min(256)
}

/// Run one layer over `accesses` from a single origin. Every layer gets
/// an identically-seeded ring and insert RNG; only the caches differ.
fn run_layer(dhs: &Dhs, exp: &ExpConfig, accesses: &[u64], mode: Mode) -> LayerOut {
    let mut ring_rng = exp.rng(0xFA57_0001);
    let base_ring = Ring::build(nodes(exp), RingConfig::default(), &mut ring_rng);
    let origin = base_ring.alive_ids()[0];
    let mut rng = exp.rng(0xFA57_0002);
    let mut ledger = CostLedger::new();
    let mut cache = EpochCache::new(dhs.config());
    let chunk_len = accesses.len().div_ceil(EPOCHS);

    let (ring, route) = match mode {
        Mode::Baseline => {
            let mut ring = base_ring;
            for &key in accesses {
                dhs.insert(&mut ring, METRIC, key, origin, &mut rng, &mut ledger);
            }
            (ring, None)
        }
        Mode::Elide => {
            let mut ring = base_ring;
            for (epoch, chunk) in accesses.chunks(chunk_len).enumerate() {
                if epoch > 0 {
                    cache.roll_epoch();
                }
                for &key in chunk {
                    dhs.insert_cached(
                        &mut ring,
                        &mut cache,
                        METRIC,
                        key,
                        origin,
                        &mut rng,
                        &mut ledger,
                    );
                }
            }
            (ring, None)
        }
        Mode::ElideRoute => {
            let mut overlay = CachedOverlay::new(base_ring);
            for (epoch, chunk) in accesses.chunks(chunk_len).enumerate() {
                if epoch > 0 {
                    cache.roll_epoch();
                }
                for &key in chunk {
                    dhs.insert_cached(
                        &mut overlay,
                        &mut cache,
                        METRIC,
                        key,
                        origin,
                        &mut rng,
                        &mut ledger,
                    );
                }
            }
            let stats = overlay.cache_stats();
            (overlay.into_parts().0, Some(stats))
        }
        Mode::ElideRouteBatch => {
            let mut overlay = CachedOverlay::new(base_ring);
            for (epoch, chunk) in accesses.chunks(chunk_len).enumerate() {
                if epoch > 0 {
                    cache.roll_epoch();
                }
                for flush in chunk.chunks(FLUSH) {
                    dhs.bulk_insert_cached(
                        &mut overlay,
                        &mut cache,
                        METRIC,
                        flush,
                        origin,
                        &mut rng,
                        &mut ledger,
                    );
                }
            }
            let stats = overlay.cache_stats();
            (overlay.into_parts().0, Some(stats))
        }
    };

    let probes = cache.hits() + cache.misses();
    let route_hit_pct = route
        .map(|s| 100.0 * s.hits as f64 / (s.hits + s.misses).max(1) as f64)
        .unwrap_or(0.0);
    LayerOut {
        messages: ledger.messages(),
        hops: ledger.hops(),
        kb: ledger.bytes() as f64 / 1024.0,
        elide_hit_pct: if probes == 0 {
            0.0
        } else {
            100.0 * cache.hits() as f64 / probes as f64
        },
        route_hit_pct,
        ring,
    }
}

/// The distinct live stored tuples (app keys) across all alive nodes —
/// the state every layer must agree on exactly.
fn stored_set(ring: &Ring) -> BTreeSet<u64> {
    let now = ring.now();
    let mut set = BTreeSet::new();
    for &node in ring.alive_ids() {
        if let Some(store) = ring.store_of(node) {
            for (app_key, rec) in store.iter() {
                if rec.expires_at > now {
                    set.insert(app_key);
                }
            }
        }
    }
    set
}

/// Exhaustive-probe estimate (lim = node count ⇒ nothing can be missed):
/// a pure function of the distinct stored set, so cache-on and cache-off
/// rings must yield bit-equal results.
fn exhaustive_estimate(dhs: &Dhs, exp: &ExpConfig, ring: &Ring) -> f64 {
    let exhaustive = Dhs::new(DhsConfig {
        lim: nodes(exp) as u32,
        ..*dhs.config()
    })
    .expect("valid config");
    let mut count_rng = exp.rng(0xFA57_00C0);
    let origin = ring.alive_ids()[0];
    exhaustive
        .count(ring, METRIC, origin, &mut count_rng, &mut CostLedger::new())
        .estimate
}

fn zipf_accesses(exp: &ExpConfig, domain: usize, len: usize) -> Vec<u64> {
    let zipf = Zipf::new(domain, 0.7);
    let hasher = item_hasher();
    let mut rng = exp.rng(0xFA57_0021);
    (0..len)
        .map(|_| hasher.hash_u64(zipf.sample(&mut rng) as u64))
        .collect()
}

fn uniform_accesses(exp: &ExpConfig, domain: usize, len: usize) -> Vec<u64> {
    let hasher = item_hasher();
    let mut rng = exp.rng(0xFA57_0022);
    (0..len)
        .map(|_| hasher.hash_u64(rng.gen_range(1..=domain) as u64))
        .collect()
}

struct HintRow {
    scanned_full: f64,
    scanned_hinted: f64,
    skipped: f64,
    probes_full: f64,
    probes_hinted: f64,
    kb_full: f64,
    kb_hinted: f64,
    identical: bool,
}

/// Same-seed full vs hinted counts over `trials` probe streams; the hint
/// is warmed by each trial's full-scan estimate.
fn hint_comparison(dhs: &Dhs, exp: &ExpConfig, ring: &Ring) -> HintRow {
    let origin = ring.alive_ids()[0];
    let mut row = HintRow {
        scanned_full: 0.0,
        scanned_hinted: 0.0,
        skipped: 0.0,
        probes_full: 0.0,
        probes_hinted: 0.0,
        kb_full: 0.0,
        kb_hinted: 0.0,
        identical: true,
    };
    let mut hint = ScanHint::new();
    for trial in 0..exp.trials.max(1) {
        let stream = 0xFA57_0C00 + trial as u64;
        let mut rng_full: StdRng = exp.rng(stream);
        let mut l_full = CostLedger::new();
        let full = dhs.count(ring, METRIC, origin, &mut rng_full, &mut l_full);
        hint.record(METRIC, full.estimate);
        let mut rng_hint: StdRng = exp.rng(stream);
        let mut l_hint = CostLedger::new();
        let hinted = dhs.count_hinted(ring, &mut hint, METRIC, origin, &mut rng_hint, &mut l_hint);
        row.identical &= full.registers == hinted.registers
            && full.estimate.to_bits() == hinted.estimate.to_bits();
        row.scanned_full += f64::from(full.stats.intervals_scanned);
        row.scanned_hinted += f64::from(hinted.stats.intervals_scanned);
        row.skipped += f64::from(hinted.stats.intervals_skipped);
        row.probes_full += full.stats.probes as f64;
        row.probes_hinted += hinted.stats.probes as f64;
        row.kb_full += l_full.bytes() as f64 / 1024.0;
        row.kb_hinted += l_hint.bytes() as f64 / 1024.0;
    }
    let n = exp.trials.max(1) as f64;
    row.scanned_full /= n;
    row.scanned_hinted /= n;
    row.skipped /= n;
    row.probes_full /= n;
    row.probes_hinted /= n;
    row.kb_full /= n;
    row.kb_hinted /= n;
    row
}

fn reduction_pct(base: u64, opt: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        100.0 * (base as f64 - opt as f64) / base as f64
    }
}

/// N3 — message/hop/byte reductions of the dhs-fast layers, with exact
/// equivalence checks.
pub fn fastpath(exp: &ExpConfig) -> String {
    let dhs = Dhs::new(exp.dhs_config()).expect("valid config");
    let domain = ((exp.scale * 100_000.0).round() as usize).max(1_000);
    let len = 4 * domain;
    let mut out = String::new();
    out.push_str(&format!(
        "N3 dhs-fast layers — {} nodes, m = {}, k = {}, {} accesses over {} \
         distinct items, {} epochs, flush = {}\n\
         layers stack: +elision = epoch cache, +route cache = LRU key→owner, \
         +batching = one store message per owner per flush\n\n",
        nodes(exp),
        exp.m,
        exp.k,
        len,
        domain,
        EPOCHS,
        FLUSH
    ));

    let mut zipf_pass = false;
    let mut equivalence = true;
    for (wname, accesses) in [
        ("Zipf(0.7)", zipf_accesses(exp, domain, len)),
        ("uniform", uniform_accesses(exp, domain, len)),
    ] {
        let layers: Vec<(Mode, LayerOut)> = Mode::ALL
            .iter()
            .map(|&mode| (mode, run_layer(&dhs, exp, &accesses, mode)))
            .collect();
        let base = &layers[0].1;
        let base_set = stored_set(&base.ring);
        let base_est = exhaustive_estimate(&dhs, exp, &base.ring);

        let mut table = Table::new(&[
            "layer",
            "messages",
            "msg red (%)",
            "hops",
            "hop red (%)",
            "KB",
            "elide hit (%)",
            "route hit (%)",
            "state+est",
        ]);
        for (mode, layer) in &layers {
            let same_state = stored_set(&layer.ring) == base_set;
            let same_est =
                exhaustive_estimate(&dhs, exp, &layer.ring).to_bits() == base_est.to_bits();
            equivalence &= same_state && same_est;
            if wname == "Zipf(0.7)" && *mode == Mode::ElideRouteBatch {
                zipf_pass = reduction_pct(base.messages, layer.messages) >= 25.0;
            }
            table.row(vec![
                mode.name().to_string(),
                layer.messages.to_string(),
                f(reduction_pct(base.messages, layer.messages), 1),
                layer.hops.to_string(),
                f(reduction_pct(base.hops, layer.hops), 1),
                f(layer.kb, 1),
                f(layer.elide_hit_pct, 1),
                f(layer.route_hit_pct, 1),
                (if same_state && same_est {
                    "same"
                } else {
                    "DIFF"
                })
                .to_string(),
            ]);
        }
        out.push_str(&format!("workload {wname}:\n{}\n", table.render()));
    }

    // Hinted counting over the populated Zipf baseline state.
    let zipf = zipf_accesses(exp, domain, len);
    let populated = run_layer(&dhs, exp, &zipf, Mode::Baseline);
    let hint = hint_comparison(&dhs, exp, &populated.ring);
    let mut table = Table::new(&["scan", "intervals", "skipped", "probes", "KB", "registers"]);
    table.row(vec![
        "full".to_string(),
        f(hint.scanned_full, 1),
        f(0.0, 1),
        f(hint.probes_full, 1),
        f(hint.kb_full, 1),
        "-".to_string(),
    ]);
    table.row(vec![
        "hinted".to_string(),
        f(hint.scanned_hinted, 1),
        f(hint.skipped, 1),
        f(hint.probes_hinted, 1),
        f(hint.kb_hinted, 1),
        (if hint.identical { "identical" } else { "DIFF" }).to_string(),
    ]);
    out.push_str(&format!(
        "hinted counting (same-seed full vs hinted, {} trials, mean):\n{}\n",
        exp.trials.max(1),
        table.render()
    ));
    equivalence &= hint.identical;

    out.push_str(&format!(
        "acceptance: Zipf total-message reduction >= 25% with all layers: {}\n\
         acceptance: stored tuples + estimates byte-identical across all \
         layers and hinted scans: {}\n",
        if zipf_pass { "PASS" } else { "FAIL" },
        if equivalence { "PASS" } else { "FAIL" }
    ));
    out
}

/// N3's deterministic KPIs as `ablation.*` metrics for the dhs-traj
/// harness, from the baseline and fully-stacked layers on the Zipf
/// workload, the same-seed hinted-count comparison, and the equivalence
/// verdict: counter totals for messages/hops/accesses and fixed-point
/// milli-unit gauges for the fractional per-count measurements. No
/// wall-clock quantity is recorded, so two same-seed runs produce
/// digest-identical registries.
pub fn fastpath_kpi_metrics(exp: &ExpConfig) -> dhs_obs::MetricsRegistry {
    use dhs_obs::names;
    let dhs = Dhs::new(exp.dhs_config()).expect("valid config");
    let domain = ((exp.scale * 100_000.0).round() as usize).max(1_000);
    let len = 4 * domain;
    let accesses = zipf_accesses(exp, domain, len);
    let base = run_layer(&dhs, exp, &accesses, Mode::Baseline);
    let opt = run_layer(&dhs, exp, &accesses, Mode::ElideRouteBatch);
    let hint = hint_comparison(&dhs, exp, &base.ring);
    let equivalent = hint.identical
        && stored_set(&base.ring) == stored_set(&opt.ring)
        && exhaustive_estimate(&dhs, exp, &base.ring).to_bits()
            == exhaustive_estimate(&dhs, exp, &opt.ring).to_bits();
    let milli = |x: f64| (x.max(0.0) * 1000.0).round() as u64;
    let mut m = dhs_obs::MetricsRegistry::new();
    m.incr(names::ABL_MESSAGES_BASELINE, base.messages);
    m.incr(names::ABL_MESSAGES_OPTIMIZED, opt.messages);
    m.incr(names::ABL_HOPS_BASELINE, base.hops);
    m.incr(names::ABL_HOPS_OPTIMIZED, opt.hops);
    m.incr(names::ABL_ACCESSES, len as u64);
    m.incr(names::ABL_EPOCHS, EPOCHS as u64);
    m.gauge_set(names::ABL_COUNT_BYTES_FULL, milli(hint.kb_full * 1024.0));
    m.gauge_set(
        names::ABL_COUNT_BYTES_HINTED,
        milli(hint.kb_hinted * 1024.0),
    );
    m.gauge_set(names::ABL_INTERVALS_FULL, milli(hint.scanned_full));
    m.gauge_set(names::ABL_INTERVALS_HINTED, milli(hint.scanned_hinted));
    m.gauge_set(names::ABL_EQUIVALENT, u64::from(equivalent));
    m
}
