//! Origin-side caches of the `dhs-fast` layer: duplicate elision for
//! inserts and scan-start hints for counts.
//!
//! Both exploit redundancy the sketch structure *guarantees*:
//!
//! * **[`EpochCache`]** — DHS inserts are duplicate-insensitive (§3.2:
//!   a node stores at most one tuple per `(metric, vector, bit)`;
//!   re-insertion only refreshes the timestamp). Within one TTL epoch an
//!   origin therefore gains nothing from re-storing a tuple it already
//!   stored: the bit is set and its timeout outlives the epoch. The
//!   cache is a per-metric bitset over the `m · rank_bits` possible
//!   `(vector, rank)` cells; a hit skips routing entirely, turning `n`
//!   inserts/epoch into at most `m · rank_bits` store messages per
//!   metric. Rolling the epoch ([`EpochCache::roll_epoch`]) clears the
//!   bitsets so the next refresh round re-stores everything — tie the
//!   roll to [`crate::maintenance::refresh_round_cached`] with a period
//!   no longer than the TTL and elided tuples can never expire while
//!   still live.
//!
//! * **[`ScanHint`]** — Algorithm 1's downward scan spends most of its
//!   probes on high-rank intervals that are almost surely empty: with
//!   `n` distinct items the top set bit concentrates around
//!   `log2(n/m)` per vector. A remembered prior estimate bounds where
//!   the scan can start; [`crate::count`]'s hinted scan uses it while
//!   provably returning byte-identical registers (see the skip rules on
//!   [`crate::Dhs::count_hinted`]).
//!
//! Neither cache changes what is stored or what is counted — they only
//! elide provably redundant messages — so estimates stay byte-identical
//! with caches on or off (the equivalence tests in `tests/fastpath.rs`
//! check exactly that).

use std::collections::BTreeMap;

use crate::cast::checked_cast;
use crate::config::DhsConfig;
use crate::tuple::MetricId;

/// Per-origin, per-epoch memory of which `(metric, vector, rank)` tuples
/// this origin already stored. See the module docs for the soundness
/// argument.
#[derive(Debug, Clone)]
pub struct EpochCache {
    /// One bitset per metric; bit index = `vector · rank_bits + rank`.
    bits: BTreeMap<MetricId, Vec<u64>>,
    words: usize,
    m: usize,
    rank_bits: u32,
    epoch: u64,
    hits: u64,
    misses: u64,
}

impl EpochCache {
    /// An empty cache sized for `cfg` (`m · rank_bits` cells per metric).
    pub fn new(cfg: &DhsConfig) -> Self {
        let cells = cfg.m * checked_cast::<usize, _>(cfg.rank_bits());
        EpochCache {
            bits: BTreeMap::new(),
            words: cells.div_ceil(64),
            m: cfg.m,
            rank_bits: cfg.rank_bits(),
            epoch: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Word index and bit mask of `(vector, rank)`, or `None` when the
    /// cell lies outside the geometry this cache was sized for (it was
    /// built from a `DhsConfig` with a smaller `m` or `rank_bits` than the
    /// caller's). Such a tuple is simply never cached: `probe` misses and
    /// `mark` does nothing, which degrades to the always-correct uncached
    /// path instead of indexing out of bounds.
    fn cell(&self, vector: u16, rank: u32) -> Option<(usize, u64)> {
        if usize::from(vector) >= self.m || rank >= self.rank_bits {
            return None;
        }
        let idx = usize::from(vector) * checked_cast::<usize, _>(self.rank_bits)
            + checked_cast::<usize, _>(rank);
        Some((idx / 64, 1u64 << (idx % 64)))
    }

    /// Whether this origin already stored `(metric, vector, rank)` in the
    /// current epoch. Updates the hit/miss counters.
    pub fn probe(&mut self, metric: MetricId, vector: u16, rank: u32) -> bool {
        let hit = self.cell(vector, rank).is_some_and(|(word, mask)| {
            self.bits.get(&metric).is_some_and(|b| b[word] & mask != 0)
        });
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Record a *successful* store of `(metric, vector, rank)`. Only mark
    /// after the store went through — marking a lost store would elide
    /// future retries of a bit that never made it to the DHT.
    pub fn mark(&mut self, metric: MetricId, vector: u16, rank: u32) {
        if let Some((word, mask)) = self.cell(vector, rank) {
            let words = self.words;
            self.bits.entry(metric).or_insert_with(|| vec![0u64; words])[word] |= mask;
        }
    }

    /// Start a new TTL epoch: forget everything so the next refresh
    /// re-stores (and thereby re-news) every live tuple.
    pub fn roll_epoch(&mut self) {
        self.bits.clear();
        self.epoch += 1;
    }

    /// Epochs rolled so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Probes answered "already stored".
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Probes answered "not yet stored".
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Remembered prior estimates that bound where the super-LogLog downward
/// scan needs to start.
///
/// With `n` distinct items spread over `m` vectors, the probability that
/// *any* vector has a bit set at rank `r` is at most `n · 2^{−r−1}`; a
/// start rank of `⌈log2(max(n, m))⌉ − log2(m) + slack` above the prior
/// estimate makes a set bit above the start astronomically unlikely. The
/// hint is **advisory**: the hinted scan in [`crate::count`] still
/// resolves every interval above the hint exactly (via structural
/// emptiness or single-owner coverage) and falls back to the full
/// per-interval walk otherwise, so a wildly wrong hint costs nothing but
/// the saved work.
#[derive(Debug, Clone, Default)]
pub struct ScanHint {
    priors: BTreeMap<MetricId, f64>,
}

impl ScanHint {
    /// Extra ranks scanned above the prior's top-bit expectation.
    pub const DEFAULT_SLACK: u32 = 4;

    /// An empty hint store.
    pub fn new() -> Self {
        ScanHint::default()
    }

    /// Remember `estimate` as the prior for `metric`.
    pub fn record(&mut self, metric: MetricId, estimate: f64) {
        if estimate.is_finite() && estimate >= 0.0 {
            self.priors.insert(metric, estimate);
        }
    }

    /// The remembered prior for `metric`, if any.
    pub fn prior(&self, metric: MetricId) -> Option<f64> {
        self.priors.get(&metric).copied()
    }

    /// The highest rank the scan must still examine for `metrics`, or
    /// `None` when any metric lacks a prior (→ full scan). The result is
    /// clamped into the scannable range `[bit_shift, k)`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float→int: ceil(log2) of a finite positive f64 is ≤ 1024, comfortably inside u32"
    )]
    pub fn start_rank(&self, cfg: &DhsConfig, metrics: &[MetricId]) -> Option<u32> {
        let mut start = cfg.bit_shift;
        for metric in metrics {
            let prior = self.prior(*metric)?;
            // Per-vector load n/m sets its top bit around log2(n/m); add
            // slack so underestimated priors don't push real work into
            // the exactly-resolved region above the hint.
            let per_vector = (prior / cfg.m as f64).max(1.0);
            let top = per_vector.log2().ceil() as u32 + Self::DEFAULT_SLACK;
            start = start.max(top.min(cfg.k.saturating_sub(1)));
        }
        Some(start)
    }
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test data has known ranges"
)]
mod tests {
    use super::*;

    fn cfg() -> DhsConfig {
        DhsConfig {
            k: 20,
            m: 16,
            ..DhsConfig::default()
        } // rank_bits = 16, k = 20
    }

    #[test]
    fn probe_miss_then_mark_then_hit() {
        let mut cache = EpochCache::new(&cfg());
        assert!(!cache.probe(1, 3, 5));
        cache.mark(1, 3, 5);
        assert!(cache.probe(1, 3, 5));
        // Different metric, vector, or rank: all still misses.
        assert!(!cache.probe(2, 3, 5));
        assert!(!cache.probe(1, 4, 5));
        assert!(!cache.probe(1, 3, 6));
        assert_eq!((cache.hits(), cache.misses()), (1, 4));
    }

    #[test]
    fn roll_epoch_forgets() {
        let mut cache = EpochCache::new(&cfg());
        cache.mark(7, 0, 0);
        assert!(cache.probe(7, 0, 0));
        cache.roll_epoch();
        assert_eq!(cache.epoch(), 1);
        assert!(!cache.probe(7, 0, 0), "new epoch re-stores everything");
    }

    #[test]
    fn cells_do_not_alias_across_the_whole_range() {
        let c = cfg();
        let mut cache = EpochCache::new(&c);
        // Mark every cell of metric 0; none may alias into metric 1, and
        // each (vector, rank) maps to a distinct bit.
        let mut marked = 0usize;
        for vector in 0..c.m as u16 {
            for rank in 0..c.rank_bits() {
                assert!(!cache.probe(0, vector, rank));
                cache.mark(0, vector, rank);
                marked += 1;
            }
        }
        assert_eq!(marked, c.m * c.rank_bits() as usize);
        for vector in 0..c.m as u16 {
            for rank in 0..c.rank_bits() {
                assert!(cache.probe(0, vector, rank));
                assert!(!cache.probe(1, vector, rank));
            }
        }
    }

    /// Cells outside the geometry the cache was sized for are never
    /// cached — a miss and a no-op, not an out-of-bounds index.
    #[test]
    fn out_of_geometry_cells_are_never_cached() {
        let c = cfg(); // m = 16, rank_bits = 16
        let mut cache = EpochCache::new(&c);
        for (vector, rank) in [(63, 3), (16, 0), (0, c.rank_bits()), (u16::MAX, u32::MAX)] {
            assert!(!cache.probe(1, vector, rank));
            cache.mark(1, vector, rank);
            assert!(!cache.probe(1, vector, rank));
        }
        // In-range cells next to them are unaffected.
        assert!(!cache.probe(1, 15, c.rank_bits() - 1));
        cache.mark(1, 15, c.rank_bits() - 1);
        assert!(cache.probe(1, 15, c.rank_bits() - 1));
    }

    #[test]
    fn start_rank_tracks_prior_magnitude() {
        let c = cfg();
        let mut hint = ScanHint::new();
        assert_eq!(hint.start_rank(&c, &[1]), None, "no prior → full scan");
        hint.record(1, 10_000.0);
        // 10_000 / 16 = 625 → top ≈ ⌈log2 625⌉ = 10, +4 slack = 14.
        assert_eq!(hint.start_rank(&c, &[1]), Some(14));
        hint.record(2, 10.0); // below m → per-vector load clamps to 1
        assert_eq!(hint.start_rank(&c, &[2]), Some(4));
        // Multi-metric: the max over metrics governs; a missing prior
        // anywhere disables the hint.
        assert_eq!(hint.start_rank(&c, &[1, 2]), Some(14));
        assert_eq!(hint.start_rank(&c, &[1, 3]), None);
    }

    #[test]
    fn start_rank_clamps_into_scannable_range() {
        let c = cfg();
        let mut hint = ScanHint::new();
        hint.record(1, 1e18); // absurd prior
        assert_eq!(hint.start_rank(&c, &[1]), Some(c.k - 1));
        // A tiny prior starts at the slack, or at the bit shift above it.
        hint.record(2, 0.0);
        assert_eq!(hint.start_rank(&c, &[2]), Some(ScanHint::DEFAULT_SLACK));
        let shifted = DhsConfig { bit_shift: 6, ..c };
        assert_eq!(hint.start_rank(&shifted, &[2]), Some(6));
        // Garbage priors are ignored.
        hint.record(3, f64::NAN);
        assert_eq!(hint.prior(3), None);
    }
}
