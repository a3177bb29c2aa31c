//! DHS counting — the paper's Algorithm 1 (§4).
//!
//! Estimating a cardinality means recovering, for every bitmap vector,
//! either its highest set bit (super-LogLog) or its lowest unset bit
//! (PCSA), by visiting the ID-space interval of each bit position:
//!
//! 1. pick a uniformly random key in the interval and do one DHT lookup
//!    to its owner;
//! 2. probe the owner for tuples of the bit position (for *all* vectors
//!    and *all* requested metrics at once — this is why the hop cost is
//!    independent of both, §4.2);
//! 3. if unresolved vectors remain, walk up to `lim − 1` further nodes:
//!    first successors while they stay inside the interval, then
//!    predecessors of the original target (§4, Alg. 1 lines 13–15);
//! 4. move to the next bit position — downward for super-LogLog (the
//!    first hit *is* the max), upward for PCSA (the first interval where
//!    a vector's bit cannot be found concludes its lowest zero).
//!
//! A vector whose bit is present in the interval but missed by all `lim`
//! probes is mis-concluded — that is the distributed-operation error the
//! paper bounds in §4.1 (see [`crate::retry`]).

use rand::Rng;

use dhs_dht::cost::CostLedger;
use dhs_dht::overlay::Overlay;
use dhs_obs::names;
use dhs_sketch::{
    hyperloglog_estimate_from_registers, pcsa_estimate_from_first_zeros,
    superloglog_estimate_from_registers,
};

use crate::cast::checked_cast;
use crate::config::{DhsConfig, EstimatorKind};
use crate::fast::ScanHint;
use crate::insert::Dhs;
use crate::intervals::{interval_for_rank, WalkState};
use crate::stats::{CountResult, CountStats};
use crate::transport::{
    end_span, routed_send, start_span, with_retry, DirectTransport, MessageKind, Transport,
};
use crate::tuple::{DhsTuple, MetricId};

/// Estimator-specific state of a scan, beside the shared `resolved`
/// registers.
enum ScanMode {
    /// DHS-sLL / DHS-HLL: descending ranks, the first hit is the max
    /// (register = rank + 1). `hint` is the adaptive-scan start rank.
    MaxRank { hint: Option<u32> },
    /// DHS-PCSA: ascending ranks, the first miss is the lowest zero.
    /// `confirmed` marks vectors seen set at the current rank;
    /// `in_question` counts unresolved vectors not yet confirmed.
    Pcsa {
        confirmed: Vec<Vec<bool>>,
        in_question: usize,
    },
}

/// What one scan has concluded so far about every requested register.
struct Registers<'a> {
    metrics: &'a [MetricId],
    m: usize,
    mode: ScanMode,
    /// Per `(metric, vector)`: the concluded register — max rank + 1, or
    /// lowest zero — once known.
    resolved: Vec<Vec<Option<u32>>>,
    unresolved: usize,
}

impl<'a> Registers<'a> {
    /// Nothing concluded yet: descending max-rank state for super-LogLog /
    /// HyperLogLog (they share storage; only the register→estimate formula
    /// differs), ascending lowest-zero state for PCSA, which scans upward
    /// and ignores `start_rank`.
    fn new(cfg: &DhsConfig, metrics: &'a [MetricId], start_rank: Option<u32>) -> Self {
        let mode = match cfg.estimator {
            EstimatorKind::SuperLogLog | EstimatorKind::HyperLogLog => {
                ScanMode::MaxRank { hint: start_rank }
            }
            EstimatorKind::Pcsa => ScanMode::Pcsa {
                confirmed: vec![vec![false; cfg.m]; metrics.len()],
                in_question: 0,
            },
        };
        Registers {
            metrics,
            m: cfg.m,
            mode,
            resolved: vec![vec![None; cfg.m]; metrics.len()],
            unresolved: metrics.len() * cfg.m,
        }
    }

    /// Apply one successful probe's evidence: every requested tuple
    /// present at `target` for `rank` updates the resolution state.
    ///
    /// Out of line on purpose: these `metrics × m` fetches per probe are
    /// where a count's time goes, and compiled on its own the loop keeps
    /// its code whatever the scan body around the call grows into.
    #[inline(never)]
    fn apply_hits<O: Overlay>(&mut self, ring: &O, target: u64, rank: u32) {
        for mi in 0..self.metrics.len() {
            let metric = self.metrics[mi];
            for vector in 0..self.m {
                let tuple = DhsTuple {
                    metric,
                    vector: checked_cast(vector),
                    bit: checked_cast(rank),
                };
                if ring.fetch_at(target, tuple.app_key()).is_none()
                    || self.resolved[mi][vector].is_some()
                {
                    continue;
                }
                match &mut self.mode {
                    ScanMode::MaxRank { .. } => {
                        self.resolved[mi][vector] = Some(rank + 1);
                        self.unresolved -= 1;
                    }
                    ScanMode::Pcsa {
                        confirmed,
                        in_question,
                    } => {
                        if !confirmed[mi][vector] {
                            confirmed[mi][vector] = true;
                            *in_question -= 1;
                        }
                    }
                }
            }
        }
    }

    /// Whether the current rank needs no further probe: every vector is
    /// resolved (max-rank), or every still-open vector was seen set here
    /// (PCSA).
    fn rank_settled(&self) -> bool {
        match &self.mode {
            ScanMode::MaxRank { .. } => self.unresolved == 0,
            ScanMode::Pcsa { in_question, .. } => *in_question == 0,
        }
    }

    /// Close out a fully probed rank (PCSA concludes lowest zeros for
    /// candidates never seen set; max-rank has nothing to conclude).
    fn conclude_rank(&mut self, rank: u32) {
        if let ScanMode::Pcsa { confirmed, .. } = &self.mode {
            // Candidates never seen set at this rank: their lowest zero
            // is here (possibly wrongly, if all `lim` probes missed —
            // §4.1).
            for (mi, row) in confirmed.iter().enumerate() {
                for (vector, &is_set) in row.iter().enumerate() {
                    if self.resolved[mi][vector].is_none() && !is_set {
                        self.resolved[mi][vector] = Some(rank);
                        self.unresolved -= 1;
                    }
                }
            }
        }
    }

    /// One [`CountResult`] per metric, each carrying the operation-total
    /// `stats`.
    fn into_results(self, cfg: &DhsConfig, stats: CountStats) -> Vec<CountResult> {
        // Vectors never concluded. Max-rank: empty (register 0), or — with
        // the bit-shift optimization — "max rank at least bit_shift − 1"
        // (register b). PCSA: set at every scanned rank, so the lowest
        // zero saturates at rank_bits.
        let unseen = match self.mode {
            ScanMode::MaxRank { .. } => cfg.bit_shift,
            ScanMode::Pcsa { .. } => cfg.rank_bits(),
        };
        self.metrics
            .iter()
            .zip(self.resolved)
            .map(|(&metric, cells)| {
                let registers: Vec<u32> = cells.into_iter().map(|c| c.unwrap_or(unseen)).collect();
                let bytes = || -> Vec<u8> { registers.iter().map(|&r| checked_cast(r)).collect() };
                let estimate = match cfg.estimator {
                    EstimatorKind::SuperLogLog => superloglog_estimate_from_registers(&bytes()),
                    EstimatorKind::HyperLogLog => hyperloglog_estimate_from_registers(&bytes()),
                    EstimatorKind::Pcsa => pcsa_estimate_from_first_zeros(&registers),
                };
                CountResult {
                    metric,
                    estimate,
                    registers,
                    stats,
                }
            })
            .collect()
    }
}

impl Dhs {
    /// Estimate the cardinality of a single metric from node `origin`.
    pub fn count<O: Overlay>(
        &self,
        ring: &O,
        metric: MetricId,
        origin: u64,
        rng: &mut impl Rng,
        ledger: &mut CostLedger,
    ) -> CountResult {
        self.count_via(ring, &mut DirectTransport, metric, origin, rng, ledger)
    }

    /// [`Self::count`] over an explicit [`Transport`] — probes that time
    /// out (after the transport's retries) count against `lim` and may
    /// leave vectors unresolved, the §4.1 distributed-operation error.
    pub fn count_via<O: Overlay, T: Transport>(
        &self,
        ring: &O,
        transport: &mut T,
        metric: MetricId,
        origin: u64,
        rng: &mut impl Rng,
        ledger: &mut CostLedger,
    ) -> CountResult {
        self.scan(ring, transport, None, &[metric], origin, rng, ledger)
            .pop()
            // dhs-lint: allow(panic_hygiene) — invariant: the scan returns exactly one result per metric.
            .expect("one metric in, one result out")
    }

    /// Estimate several metrics in one scan (multi-dimensional counting,
    /// §4.2). The scan's cost is shared: every returned result carries the
    /// same operation-total [`CountStats`]. An empty
    /// metric list is an empty operation: no results, no traffic.
    pub fn count_multi<O: Overlay>(
        &self,
        ring: &O,
        metrics: &[MetricId],
        origin: u64,
        rng: &mut impl Rng,
        ledger: &mut CostLedger,
    ) -> Vec<CountResult> {
        self.count_multi_via(ring, &mut DirectTransport, metrics, origin, rng, ledger)
    }

    /// [`Self::count_multi`] over an explicit [`Transport`].
    pub fn count_multi_via<O: Overlay, T: Transport>(
        &self,
        ring: &O,
        transport: &mut T,
        metrics: &[MetricId],
        origin: u64,
        rng: &mut impl Rng,
        ledger: &mut CostLedger,
    ) -> Vec<CountResult> {
        self.scan(ring, transport, None, metrics, origin, rng, ledger)
    }

    /// [`Self::count`] with an adaptive scan start: the downward scan
    /// begins at the rank a remembered prior estimate bounds, instead of
    /// at the top of the key space. The result updates `hint` for the
    /// next call.
    ///
    /// The hint only licenses two *exact* shortcuts above the start rank:
    /// structurally empty intervals (ranks ≥ `rank_bits()`, which
    /// insertion can never populate) are skipped outright, and intervals
    /// wholly owned by a single node are concluded with that one probe
    /// (it holds every tuple of the interval). Any other interval above
    /// the hint is scanned exactly like the full scan, and the interval-
    /// key RNG draws are preserved for skipped ranks — so over a reliable
    /// transport, same-seed hinted and unhinted counts return
    /// byte-identical registers and estimates no matter how wrong the
    /// prior was; only the cost shrinks. PCSA scans upward and ignores
    /// hints.
    pub fn count_hinted<O: Overlay>(
        &self,
        ring: &O,
        hint: &mut ScanHint,
        metric: MetricId,
        origin: u64,
        rng: &mut impl Rng,
        ledger: &mut CostLedger,
    ) -> CountResult {
        self.scan(
            ring,
            &mut DirectTransport,
            Some(hint),
            &[metric],
            origin,
            rng,
            ledger,
        )
        .pop()
        // dhs-lint: allow(panic_hygiene) — invariant: the scan returns exactly one result per metric.
        .expect("one metric in, one result out")
    }

    /// The one scan body behind every `count*` form — Algorithm 1 as the
    /// sequential walk it is: which node the next probe addresses depends
    /// on what the last one concluded, so there is never more than one
    /// exchange outstanding. Ranks descend for DHS-sLL / DHS-HLL and
    /// ascend for DHS-PCSA (picked from the configured estimator); per
    /// rank, one interval-key draw, one routed lookup, then up to `lim`
    /// probes along the interval's [`WalkState`]. `hint`, when given,
    /// supplies the start rank and is updated with the fresh estimates.
    /// This body is the one emitter of the operation's own observability:
    /// it opens the `count` span before the first draw, records the
    /// `op.count*` metrics and closes the span at the end. An empty
    /// metric list is an empty operation: no span, no draws, no events.
    #[allow(clippy::too_many_arguments)]
    fn scan<O: Overlay, T: Transport>(
        &self,
        ring: &O,
        transport: &mut T,
        hint: Option<&mut ScanHint>,
        metrics: &[MetricId],
        origin: u64,
        rng: &mut impl Rng,
        ledger: &mut CostLedger,
    ) -> Vec<CountResult> {
        let cfg = self.config();
        let mut start_rank = None;
        if let Some(hint) = hint.as_deref() {
            if cfg.estimator != EstimatorKind::Pcsa {
                start_rank = hint.start_rank(cfg, metrics);
            }
            if let Some(r) = transport.recorder() {
                let key = if start_rank.is_some() {
                    names::COUNT_HINT_WARM
                } else {
                    names::COUNT_HINT_COLD
                };
                r.incr(key, 1);
            }
        }
        if metrics.is_empty() {
            return Vec::new();
        }
        let (bytes_before, hops_before) = (ledger.bytes(), ledger.hops());
        let span = start_span(transport, names::SPAN_COUNT, metrics.len() as u64);
        let request = u64::from(DhsConfig::REQUEST_BYTES);
        let response = cfg.response_bytes(metrics.len());
        let mut stats = CountStats::default();
        let mut regs = Registers::new(cfg, metrics, start_rank);
        let descending = matches!(regs.mode, ScanMode::MaxRank { .. });
        let (bottom, top) = (cfg.bit_shift, cfg.k);
        for up in bottom..top {
            if regs.unresolved == 0 {
                break;
            }
            let rank = if descending {
                top - 1 - (up - bottom)
            } else {
                up
            };
            let interval = interval_for_rank(cfg, rank);
            let attempts = match &mut regs.mode {
                ScanMode::MaxRank { hint } => {
                    let above_hint = hint.is_some_and(|h| rank > h);
                    if above_hint && rank >= cfg.rank_bits() {
                        // Structurally empty: `classify` saturates ranks at
                        // rank_bits − 1, so no insertion can ever populate
                        // this interval. Draw (and discard) the interval
                        // key the full scan would have drawn, keeping the
                        // RNG stream — and therefore every later probe —
                        // byte-identical.
                        let _ = rng.gen_range(interval.lo..=interval.hi);
                        stats.intervals_skipped += 1;
                        continue;
                    }
                    // Above the hint a single-owner interval is concluded
                    // by its one owner: every tuple of the interval lives
                    // there, so walk retries cannot change the outcome.
                    if above_hint && ring.owner_of(interval.lo) == ring.owner_of(interval.hi) {
                        1
                    } else {
                        cfg.lim
                    }
                }
                ScanMode::Pcsa {
                    confirmed,
                    in_question,
                } => {
                    for row in confirmed.iter_mut() {
                        row.iter_mut().for_each(|c| *c = false);
                    }
                    // Unresolved vectors not yet confirmed set at this
                    // rank.
                    *in_question = regs.unresolved;
                    cfg.lim
                }
            };
            let interval_span = start_span(transport, names::SPAN_INTERVAL, u64::from(rank));
            let key = rng.gen_range(interval.lo..=interval.hi);
            let mut target = ring.owner_of(key);
            stats.lookups += 1;
            stats.intervals_scanned += 1;
            let found = routed_send(
                ring,
                transport,
                ledger,
                origin,
                key,
                target,
                MessageKind::Lookup,
                request,
            );
            if found.is_err() {
                // Lookup unreachable: skip this interval (PCSA draws no
                // first-zero conclusions without probe evidence).
                end_span(transport, interval_span);
                continue;
            }
            let mut walk = WalkState::new(interval, target);
            let mut kind = MessageKind::Probe;
            let mut scan_span = None;
            for attempt in 1..=attempts {
                stats.probes += 1;
                let probed = with_retry(transport, |t| {
                    t.exchange(origin, target, kind, request, response, ledger)
                });
                if probed.is_ok() {
                    ledger.record_visit(target);
                    regs.apply_hits(ring, target, rank);
                }
                end_span(transport, scan_span);
                if regs.rank_settled() || attempt == attempts {
                    break;
                }
                // One hop to the walk's next node, then a successor probe.
                target = walk.next_target(ring);
                ledger.charge_hops(1);
                scan_span = start_span(transport, names::SPAN_SUCC_SCAN, u64::from(attempt));
                kind = MessageKind::SuccessorScan;
            }
            end_span(transport, interval_span);
            regs.conclude_rank(rank);
        }
        stats.bytes = ledger.bytes() - bytes_before;
        stats.hops = ledger.hops() - hops_before;
        let results = regs.into_results(cfg, stats);
        if let Some(r) = transport.recorder() {
            r.incr(names::OP_COUNT, 1);
            r.observe(names::OP_COUNT_BYTES, stats.bytes);
            r.observe(names::OP_COUNT_HOPS, stats.hops);
            r.observe(names::OP_COUNT_PROBES, stats.probes);
            if stats.intervals_skipped > 0 {
                r.incr(
                    names::COUNT_HINT_SKIPPED,
                    u64::from(stats.intervals_skipped),
                );
            }
        }
        end_span(transport, span);
        if let Some(hint) = hint {
            for result in &results {
                hint.record(result.metric, result.estimate);
            }
        }
        results
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // test data has known ranges
mod tests {
    use super::*;
    use crate::config::DhsConfig;
    use dhs_dht::ring::{Ring, RingConfig};
    use dhs_sketch::{ItemHasher, SplitMix64};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(nodes: usize, seed: u64) -> (Ring, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ring = Ring::build(nodes, RingConfig::default(), &mut rng);
        (ring, rng)
    }

    fn populate(
        dhs: &Dhs,
        ring: &mut Ring,
        metric: MetricId,
        n: u64,
        hash_seed: u64,
        rng: &mut StdRng,
    ) {
        let hasher = SplitMix64::with_seed(hash_seed);
        let origin = ring.alive_ids()[0];
        let mut ledger = CostLedger::new();
        for i in 0..n {
            dhs.insert(ring, metric, hasher.hash_u64(i), origin, rng, &mut ledger);
        }
    }

    fn cfg(estimator: EstimatorKind, m: usize) -> DhsConfig {
        DhsConfig {
            m,
            estimator,
            ..DhsConfig::default()
        }
    }

    /// Dense regime (n ≥ m·N): both estimators should land within a few
    /// standard errors of the truth.
    #[test]
    fn sll_counts_dense_population() {
        let (mut ring, mut rng) = setup(128, 1);
        let dhs = Dhs::new(cfg(EstimatorKind::SuperLogLog, 64)).unwrap();
        let n = 50_000u64;
        populate(&dhs, &mut ring, 1, n, 7, &mut rng);
        let mut ledger = CostLedger::new();
        let origin = ring.alive_ids()[3];
        let result = dhs.count(&ring, 1, origin, &mut rng, &mut ledger);
        let err = result.relative_error(n).abs();
        // 1.05/√64 ≈ 13%; allow ~3.5σ plus distribution error (a 3σ
        // bound proved seed-marginal: one RNG stream landed at 0.453).
        assert!(err < 0.50, "estimate {} (err {err})", result.estimate);
    }

    #[test]
    fn pcsa_counts_dense_population() {
        let (mut ring, mut rng) = setup(128, 2);
        let dhs = Dhs::new(cfg(EstimatorKind::Pcsa, 64)).unwrap();
        let n = 50_000u64;
        populate(&dhs, &mut ring, 1, n, 7, &mut rng);
        let mut ledger = CostLedger::new();
        let origin = ring.alive_ids()[3];
        let result = dhs.count(&ring, 1, origin, &mut rng, &mut ledger);
        let err = result.relative_error(n).abs();
        assert!(err < 0.40, "estimate {} (err {err})", result.estimate);
    }

    /// The distributed reconstruction must match a local sketch built from
    /// the same items when probing is exhaustive (lim ≥ interval node
    /// count ⇒ nothing can be missed).
    #[test]
    fn exhaustive_probing_matches_local_sketch_sll() {
        let nodes = 16;
        let (mut ring, mut rng) = setup(nodes, 3);
        let config = DhsConfig {
            lim: nodes as u32, // exhaustive
            ..cfg(EstimatorKind::SuperLogLog, 16)
        };
        let dhs = Dhs::new(config).unwrap();
        let n = 5_000u64;
        populate(&dhs, &mut ring, 1, n, 9, &mut rng);

        // Local reference sketch over the same k-bit keys.
        let hasher = SplitMix64::with_seed(9);
        let mut local = dhs_sketch::SuperLogLog::new(16).unwrap();
        for i in 0..n {
            let (vector, rank) = dhs.classify(hasher.hash_u64(i));
            local.observe(vector as usize, rank as u8 + 1);
        }

        let mut ledger = CostLedger::new();
        let origin = ring.alive_ids()[0];
        let result = dhs.count(&ring, 1, origin, &mut rng, &mut ledger);
        for v in 0..16 {
            assert_eq!(
                result.registers[v],
                u32::from(local.register(v)),
                "vector {v}"
            );
        }
        use dhs_sketch::CardinalityEstimator;
        assert!((result.estimate - local.estimate()).abs() < 1e-9);
    }

    #[test]
    fn exhaustive_probing_matches_local_sketch_pcsa() {
        let nodes = 16;
        let (mut ring, mut rng) = setup(nodes, 4);
        let config = DhsConfig {
            lim: nodes as u32,
            ..cfg(EstimatorKind::Pcsa, 16)
        };
        let dhs = Dhs::new(config).unwrap();
        let n = 5_000u64;
        populate(&dhs, &mut ring, 1, n, 11, &mut rng);

        let hasher = SplitMix64::with_seed(11);
        let mut local = dhs_sketch::Pcsa::with_width(16, 16).unwrap();
        for i in 0..n {
            let (vector, rank) = dhs.classify(hasher.hash_u64(i));
            local.set_bit(vector as usize, rank);
        }

        let mut ledger = CostLedger::new();
        let origin = ring.alive_ids()[0];
        let result = dhs.count(&ring, 1, origin, &mut rng, &mut ledger);
        for v in 0..16 {
            assert_eq!(result.registers[v], local.lowest_zero(v), "vector {v}");
        }
    }

    #[test]
    fn hll_counts_dense_population() {
        let (mut ring, mut rng) = setup(128, 17);
        let dhs = Dhs::new(cfg(EstimatorKind::HyperLogLog, 64)).unwrap();
        let n = 50_000u64;
        populate(&dhs, &mut ring, 1, n, 7, &mut rng);
        let mut ledger = CostLedger::new();
        let origin = ring.alive_ids()[3];
        let result = dhs.count(&ring, 1, origin, &mut rng, &mut ledger);
        let err = result.relative_error(n).abs();
        // 1.04/√64 = 13%; allow 3σ plus distribution error.
        assert!(err < 0.45, "estimate {} (err {err})", result.estimate);
    }

    #[test]
    fn hll_small_population_uses_linear_counting() {
        // The HLL extension fixes the small-cardinality weakness of the
        // paper's estimators: counting 500 items with m = 256 registers.
        let (mut ring, mut rng) = setup(64, 19);
        let config = DhsConfig {
            lim: 16,
            ..cfg(EstimatorKind::HyperLogLog, 256)
        };
        let dhs = Dhs::new(config).unwrap();
        populate(&dhs, &mut ring, 1, 500, 3, &mut rng);
        let origin = ring.alive_ids()[0];
        let hll = dhs.count(&ring, 1, origin, &mut rng, &mut CostLedger::new());
        let sll_dhs = Dhs::new(DhsConfig {
            lim: 16,
            ..cfg(EstimatorKind::SuperLogLog, 256)
        })
        .unwrap();
        let sll = sll_dhs.count(&ring, 1, origin, &mut rng, &mut CostLedger::new());
        // Both must be usable at n/m ≈ 2 — the linear-counting path keeps
        // HLL sane where plain LogLog formulas are far out of their
        // asymptotic regime (cf. the −30%+ biases in debug diagnostics).
        let hll_err = hll.relative_error(500).abs();
        let sll_err = sll.relative_error(500).abs();
        assert!(hll_err < 0.30, "HLL err {hll_err} ({})", hll.estimate);
        assert!(sll_err < 0.45, "sLL err {sll_err} ({})", sll.estimate);
    }

    /// The paper develops DHS for a single bitmap first (§3.1–3.3,
    /// "We'll first discuss the PCSA case when m = 1"); that degenerate
    /// configuration must work end-to-end.
    #[test]
    fn single_bitmap_pcsa_counts() {
        let (mut ring, mut rng) = setup(64, 23);
        let config = DhsConfig {
            m: 1,
            lim: 8,
            ..cfg(EstimatorKind::Pcsa, 1)
        };
        let dhs = Dhs::new(config).unwrap();
        let n = 40_000u64;
        populate(&dhs, &mut ring, 1, n, 5, &mut rng);
        let origin = ring.alive_ids()[0];
        let result = dhs.count(&ring, 1, origin, &mut rng, &mut CostLedger::new());
        // A single FM bitmap has ~78% standard error: only sanity-check
        // the binary order of magnitude (the paper's own framing).
        assert!(
            result.estimate > n as f64 / 8.0 && result.estimate < n as f64 * 8.0,
            "single-bitmap estimate {} for n = {n}",
            result.estimate
        );
        assert_eq!(result.registers.len(), 1);
    }

    #[test]
    fn empty_metric_estimates_near_zero() {
        let (ring, mut rng) = setup(64, 5);
        let dhs = Dhs::new(cfg(EstimatorKind::SuperLogLog, 32)).unwrap();
        let mut ledger = CostLedger::new();
        let origin = ring.alive_ids()[0];
        let result = dhs.count(&ring, 99, origin, &mut rng, &mut ledger);
        assert!(result.registers.iter().all(|&r| r == 0));
        assert!(result.estimate < 32.0);
    }

    /// No metrics is an empty operation on every estimator, not a panic:
    /// no results, no RNG draws, no charges, no recorder events.
    #[test]
    fn empty_metric_list_is_an_empty_operation() {
        use crate::transport::Observed;
        use rand::RngCore;
        for estimator in [
            EstimatorKind::SuperLogLog,
            EstimatorKind::HyperLogLog,
            EstimatorKind::Pcsa,
        ] {
            let (mut ring, mut rng) = setup(32, 5);
            let dhs = Dhs::new(cfg(estimator, 16)).unwrap();
            populate(&dhs, &mut ring, 1, 500, 3, &mut rng);
            let origin = ring.alive_ids()[0];
            let mut untouched = rng.clone();
            let mut ledger = CostLedger::new();
            assert!(dhs
                .count_multi(&ring, &[], origin, &mut rng, &mut ledger)
                .is_empty());
            let mut transport = Observed::new(DirectTransport, dhs_obs::Observer::new(1));
            assert!(dhs
                .count_multi_via(&ring, &mut transport, &[], origin, &mut rng, &mut ledger)
                .is_empty());
            let fresh = dhs_obs::Observer::new(1);
            let seen = transport.observer();
            assert_eq!(seen.metrics.digest(), fresh.metrics.digest(), "no events");
            assert_eq!(seen.spans.digest(), fresh.spans.digest(), "no span");
            assert_eq!(
                (ledger.messages(), ledger.hops(), ledger.bytes()),
                (0, 0, 0)
            );
            assert_eq!(rng.next_u64(), untouched.next_u64(), "no draws");
        }
    }

    #[test]
    fn multi_metric_scan_shares_cost() {
        // Counting 8 metrics at once must cost (nearly) the same hops as
        // counting 1 — the paper's multi-dimensional counting property.
        let (mut ring, mut rng) = setup(128, 6);
        let dhs = Dhs::new(cfg(EstimatorKind::SuperLogLog, 32)).unwrap();
        for metric in 0..8u32 {
            populate(
                &dhs,
                &mut ring,
                metric,
                20_000,
                100 + u64::from(metric),
                &mut rng,
            );
        }
        let origin = ring.alive_ids()[0];

        let mut single_ledger = CostLedger::new();
        let single = dhs.count(&ring, 0, origin, &mut rng, &mut single_ledger);

        let metrics: Vec<u32> = (0..8).collect();
        let mut multi_ledger = CostLedger::new();
        let multi = dhs.count_multi(&ring, &metrics, origin, &mut rng, &mut multi_ledger);

        assert_eq!(multi.len(), 8);
        // All results share the same stats instance values.
        assert!(multi.windows(2).all(|w| w[0].stats == w[1].stats));
        // Hop cost within 2x (scan depth varies slightly with the union
        // of unresolved vectors), *not* 8x.
        let ratio = multi[0].stats.hops as f64 / single.stats.hops.max(1) as f64;
        assert!(ratio < 2.5, "hops ratio {ratio}");
        // Bandwidth *does* scale with metrics (bigger responses).
        assert!(multi[0].stats.bytes > single.stats.bytes);
    }

    #[test]
    fn duplicate_insertions_do_not_change_estimate() {
        let (mut ring, mut rng) = setup(64, 7);
        let dhs = Dhs::new(cfg(EstimatorKind::SuperLogLog, 32)).unwrap();
        let hasher = SplitMix64::default();
        let origin = ring.alive_ids()[0];
        let mut ledger = CostLedger::new();
        for i in 0..3_000u64 {
            for _ in 0..3 {
                dhs.insert(
                    &mut ring,
                    1,
                    hasher.hash_u64(i),
                    origin,
                    &mut rng,
                    &mut ledger,
                );
            }
        }
        let mut count_rng = StdRng::seed_from_u64(1234);
        let mut l1 = CostLedger::new();
        let with_dups = dhs.count(&ring, 1, origin, &mut count_rng, &mut l1);

        // Fresh ring with each item inserted once.
        let (mut ring2, mut rng2) = setup(64, 7);
        let origin2 = ring2.alive_ids()[0];
        let mut ledger2 = CostLedger::new();
        for i in 0..3_000u64 {
            dhs.insert(
                &mut ring2,
                1,
                hasher.hash_u64(i),
                origin2,
                &mut rng2,
                &mut ledger2,
            );
        }
        let mut count_rng2 = StdRng::seed_from_u64(1234);
        let mut l2 = CostLedger::new();
        let without_dups = dhs.count(&ring2, 1, origin2, &mut count_rng2, &mut l2);

        // Same seed for the probe RNG and same ring topology: duplicates
        // may place extra tuple copies (different RNG draws at insertion),
        // so estimates need not be bit-identical — but they must be close.
        let diff = (with_dups.estimate - without_dups.estimate).abs() / without_dups.estimate;
        assert!(diff < 0.25, "duplicate drift {diff}");
    }

    #[test]
    fn counting_cost_independent_of_m() {
        // Hop count should not grow linearly with the number of bitmaps
        // (§4.2); allow sub-2x drift for retry effects.
        let (mut ring, mut rng) = setup(256, 8);
        let n = 60_000u64;
        let mut hops = Vec::new();
        for m in [16usize, 64, 256] {
            let dhs = Dhs::new(cfg(EstimatorKind::SuperLogLog, m)).unwrap();
            populate(&dhs, &mut ring, m as u32, n, 55, &mut rng);
            let mut ledger = CostLedger::new();
            let origin = ring.alive_ids()[0];
            let result = dhs.count(&ring, m as u32, origin, &mut rng, &mut ledger);
            hops.push(result.stats.hops);
        }
        let max = *hops.iter().max().unwrap() as f64;
        let min = *hops.iter().min().unwrap() as f64;
        assert!(max / min < 3.0, "hops across m: {hops:?}");
    }

    #[test]
    fn stats_probe_lookup_split_is_consistent() {
        let (mut ring, mut rng) = setup(128, 9);
        let dhs = Dhs::new(cfg(EstimatorKind::SuperLogLog, 64)).unwrap();
        populate(&dhs, &mut ring, 1, 30_000, 77, &mut rng);
        let mut ledger = CostLedger::new();
        let origin = ring.alive_ids()[0];
        let result = dhs.count(&ring, 1, origin, &mut rng, &mut ledger);
        let s = result.stats;
        assert_eq!(s.lookups, u64::from(s.intervals_scanned));
        // Each interval probes between 1 and lim nodes.
        assert!(s.probes >= s.lookups);
        assert!(s.probes <= s.lookups * u64::from(dhs.config().lim));
        // Walk hops = probes − lookups (each retry is one hop).
        assert!(s.hops >= s.probes - s.lookups);
        assert!(s.bytes > 0);
    }

    /// Over `DirectTransport` a probe is one message of request + response
    /// bytes (16 + 72 at the paper's m = 512) and a lookup one message
    /// carrying the request across its routed hops.
    #[test]
    fn direct_probe_charges_one_message_and_88_bytes() {
        let (ring, mut rng) = setup(16, 1);
        let dhs = Dhs::new(DhsConfig::default()).unwrap();
        let mut ledger = CostLedger::new();
        let origin = ring.alive_ids()[0];
        let s = dhs
            .count_via(
                &ring,
                &mut DirectTransport,
                1,
                origin,
                &mut rng,
                &mut ledger,
            )
            .stats;
        assert_eq!(ledger.messages(), s.lookups + s.probes);
        let routed_hops = s.hops - (s.probes - s.lookups);
        assert_eq!(ledger.bytes(), 88 * s.probes + 16 * routed_hops);
    }
}
