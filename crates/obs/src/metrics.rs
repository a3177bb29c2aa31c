//! Metrics registry: named counters, gauges, and log-linear histograms.
//!
//! Everything is keyed by `&'static str` and stored in `BTreeMap`s so that
//! iteration order — and therefore the JSONL export and its FNV digest — is
//! deterministic by construction.

use crate::fnv::fnv1a;
use std::collections::BTreeMap;

/// Number of sub-buckets per power-of-two octave.
const SUBBUCKETS: u64 = 8;

/// A log-linear histogram over `u64` values.
///
/// Values below `SUBBUCKETS` (8) get exact unit buckets; above that, each
/// power-of-two octave is split into `SUBBUCKETS` linear sub-buckets, giving
/// a worst-case relative quantile error of `1/SUBBUCKETS` (12.5%). `min`,
/// `max`, `sum`, and `count` are tracked exactly.
#[derive(Debug, Clone, Default)]
pub struct LogLinearHistogram {
    buckets: BTreeMap<usize, u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "guarded by v < SUBBUCKETS (8); ≤ 61 octaves × 8 sub-buckets, fits"
)]
fn bucket_index(v: u64) -> usize {
    if v < SUBBUCKETS {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as u64; // floor(log2 v), >= 3
    let sub = (v >> (exp - 3)) - SUBBUCKETS; // 0..SUBBUCKETS
    (SUBBUCKETS + (exp - 3) * SUBBUCKETS + sub) as usize
}

fn bucket_lo(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUBBUCKETS {
        return idx;
    }
    let exp = 3 + (idx - SUBBUCKETS) / SUBBUCKETS;
    let sub = (idx - SUBBUCKETS) % SUBBUCKETS;
    (SUBBUCKETS + sub) << (exp - 3)
}

impl LogLinearHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation of `v`.
    pub fn observe(&mut self, v: u64) {
        *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold `other` into `self`: buckets, counts, and sums add; the exact
    /// `[min, max]` envelope widens. Absorbing worker histograms in any
    /// order yields the same result as observing the union of their value
    /// multisets, so a fan-in merge is partition-insensitive.
    pub fn absorb(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Approximate quantile `q` in `[0, 1]` (lower bucket bound, clamped to
    /// the exact `[min, max]` range). Returns 0 if empty.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float→int: a rank below count"
    )]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).floor() as u64;
        if rank == self.count - 1 {
            return self.max;
        }
        let mut seen = 0u64;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen > rank {
                return bucket_lo(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Registry of named counters, gauges, and histograms.
///
/// Metric names are static strings in dotted lowercase (`msg.lookup.sent`,
/// `op.count.hops`); `BTreeMap` storage makes snapshots byte-stable.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, LogLinearHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name`.
    pub fn incr(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Set gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &'static str, value: u64) {
        self.gauges.insert(name, value);
    }

    /// Record `value` in histogram `name`.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().observe(value);
    }

    /// Value of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in name order.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// Value of gauge `name`, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> &BTreeMap<&'static str, u64> {
        &self.gauges
    }

    /// Histogram `name`, if any value was recorded under it.
    pub fn histogram(&self, name: &str) -> Option<&LogLinearHistogram> {
        self.histograms.get(name)
    }

    /// Deterministic JSONL snapshot: one line per metric, sorted by kind then
    /// name. Counters/gauges export their value; histograms export count,
    /// min, max, sum, and p50/p90/p99.
    pub fn snapshot_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":{value}}}\n"
            ));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":\"{name}\",\"value\":{value}}}\n"
            ));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"name\":\"{name}\",\"count\":{},\"min\":{},\"max\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}\n",
                h.count(),
                h.min(),
                h.max(),
                h.sum(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            ));
        }
        out
    }

    /// FNV-1a digest of [`snapshot_jsonl`](Self::snapshot_jsonl).
    pub fn digest(&self) -> u64 {
        fnv1a(self.snapshot_jsonl().as_bytes())
    }

    /// Fold `other` into `self`: counters add, gauges keep the larger
    /// value, histograms merge bucket-wise. Because every combinator is
    /// commutative and associative, absorbing per-worker registries in
    /// any order — or under any work partition that preserves each
    /// metric's observation multiset — produces the same snapshot and
    /// digest; this is the fan-in half of the deterministic threaded
    /// driver.
    pub fn absorb(&mut self, other: &Self) {
        for (&name, &value) in &other.counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
        for (&name, &value) in &other.gauges {
            let g = self.gauges.entry(name).or_insert(0);
            *g = (*g).max(value);
        }
        for (&name, h) in &other.histograms {
            self.histograms.entry(name).or_default().absorb(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_small_values_exact() {
        for v in 0..SUBBUCKETS {
            assert_eq!(bucket_lo(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_lo_is_lower_bound_within_error() {
        for v in [8u64, 9, 15, 16, 100, 1000, 4096, 123_456, u64::MAX / 2] {
            let lo = bucket_lo(bucket_index(v));
            assert!(lo <= v, "lo {lo} > v {v}");
            // Relative error bounded by one sub-bucket width.
            assert!(v - lo <= v / SUBBUCKETS, "v={v} lo={lo}");
        }
    }

    #[test]
    fn bucket_indices_monotone() {
        let mut prev = bucket_index(0);
        for v in 1..100_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev);
            prev = idx;
        }
    }

    #[test]
    fn quantiles_on_uniform_range() {
        let mut h = LogLinearHistogram::new();
        for v in 0..1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 999);
        let p50 = h.quantile(0.5);
        assert!((448..=512).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((896..=999).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 999);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn single_value_quantiles() {
        let mut h = LogLinearHistogram::new();
        h.observe(42);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 42);
        }
    }

    #[test]
    fn absorb_matches_direct_observation() {
        // Split one observation stream across two registries; absorbing
        // the parts must be indistinguishable from the unsplit run.
        let mut whole = MetricsRegistry::new();
        let mut left = MetricsRegistry::new();
        let mut right = MetricsRegistry::new();
        for v in 0..100u64 {
            whole.incr("c.items", 1);
            whole.observe("h.size", v * 7);
            let part = if v % 3 == 0 { &mut left } else { &mut right };
            part.incr("c.items", 1);
            part.observe("h.size", v * 7);
        }
        whole.gauge_set("g.peak", 40);
        left.gauge_set("g.peak", 40);
        right.gauge_set("g.peak", 12);
        let mut merged = MetricsRegistry::new();
        merged.absorb(&right);
        merged.absorb(&left);
        assert_eq!(merged.snapshot_jsonl(), whole.snapshot_jsonl());
        assert_eq!(merged.digest(), whole.digest());
    }

    #[test]
    fn absorb_empty_histogram_keeps_envelope() {
        let mut a = LogLinearHistogram::new();
        a.observe(5);
        a.absorb(&LogLinearHistogram::new());
        assert_eq!((a.count(), a.min(), a.max()), (1, 5, 5));
        let mut b = LogLinearHistogram::new();
        b.absorb(&a);
        assert_eq!((b.count(), b.min(), b.max(), b.sum()), (1, 5, 5, 5));
    }

    #[test]
    fn snapshot_is_deterministic_regardless_of_insertion_order() {
        let mut a = MetricsRegistry::new();
        a.incr("b.two", 2);
        a.incr("a.one", 1);
        a.observe("h.x", 5);
        let mut b = MetricsRegistry::new();
        b.observe("h.x", 5);
        b.incr("a.one", 1);
        b.incr("b.two", 2);
        assert_eq!(a.snapshot_jsonl(), b.snapshot_jsonl());
        assert_eq!(a.digest(), b.digest());
        assert!(a
            .snapshot_jsonl()
            .contains("\"name\":\"a.one\",\"value\":1"));
    }
}
