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

use crate::config::EstimatorKind;
use crate::fast::ScanHint;
use crate::insert::Dhs;
use crate::machine::{drive_scan_in_order, ScanMachine};
use crate::stats::CountResult;
use crate::transport::{DirectTransport, Transport};
use crate::tuple::MetricId;

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
    /// same operation-total [`CountStats`](crate::CountStats). An empty
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

    /// The one scan body behind every `count*` form: a [`ScanMachine`]
    /// (descending for DHS-sLL / DHS-HLL, ascending for DHS-PCSA — the
    /// machine picks from the configured estimator) driven in strict
    /// submission order, the degenerate in-order case of the
    /// completion-based protocol. `hint`, when given, supplies the start
    /// rank and is updated with the fresh estimates.
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
        let mut start_rank = None;
        if let Some(hint) = hint.as_deref() {
            if self.config().estimator != EstimatorKind::Pcsa {
                start_rank = hint.start_rank(self.config(), metrics);
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
        let mut machine = ScanMachine::new(self, metrics, origin, start_rank, ledger);
        drive_scan_in_order(&mut machine, ring, transport, rng, ledger);
        let results = machine.finish(transport, ledger);
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
}
