//! Adaptive retry budgets — §4.1's remedy, operationalized.
//!
//! The paper: *"there is a different optimal `lim_m` for every ID-space
//! interval […] when counting smaller-cardinality sets, we may choose to
//! increase `lim_m` according to eq. 6."* A counting node does not know
//! the cardinality in advance — so [`Dhs::count_adaptive`] runs two
//! phases: a coarse pass with the configured `lim` yields an estimate
//! `n̂`; eq. 6 sized at `n̂` gives the probe budget that reaches the
//! requested confidence; a second pass runs with it. Costs of both
//! passes accumulate in the caller's ledger.

use rand::Rng;

use dhs_dht::cost::CostLedger;
use dhs_dht::overlay::Overlay;

use crate::config::DhsConfig;
use crate::insert::Dhs;
use crate::retry::required_lim;
use crate::stats::CountResult;
use crate::tuple::MetricId;

/// Ceiling for the adaptive budget: beyond this, probing an interval
/// approaches visiting it wholesale and a different mechanism (smaller
/// overlay, replication) is the right tool — the paper's own advice.
pub const MAX_ADAPTIVE_LIM: u32 = 64;

impl Dhs {
    /// The eq. 6 probe budget for an (estimated) cardinality on an
    /// `n_nodes` overlay at confidence `p`, under this configuration.
    ///
    /// Sized at the *largest* interval (half the ring, half the items):
    /// the items-to-nodes ratio is the same in every interval (§3.1's
    /// load-balance construction), and eq. 6's budget is monotone in the
    /// interval's node count, so the largest interval binds.
    pub fn recommended_lim(&self, estimated_n: u64, n_nodes: usize, p: f64) -> u32 {
        let items = (estimated_n / 2).max(1);
        let nodes = (n_nodes as u64 / 2).max(1);
        required_lim(p, items, nodes, self.config().m, self.config().replication)
            .min(MAX_ADAPTIVE_LIM)
    }

    /// Two-phase adaptive counting at confidence `p` (e.g. 0.99).
    ///
    /// Returns the refined result; if the coarse pass's budget already
    /// meets the eq. 6 requirement, the second pass is skipped and the
    /// coarse result is returned as-is.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float→int: a finite, non-negative estimate; `as` saturates"
    )]
    pub fn count_adaptive<O: Overlay>(
        &self,
        ring: &O,
        metric: MetricId,
        origin: u64,
        p: f64,
        rng: &mut impl Rng,
        ledger: &mut CostLedger,
    ) -> CountResult {
        let coarse = self.count(ring, metric, origin, rng, ledger);
        let needed = self.recommended_lim(coarse.estimate.max(1.0) as u64, ring.node_count(), p);
        if needed <= self.config().lim {
            return coarse;
        }
        let refined_cfg = DhsConfig {
            lim: needed,
            ..*self.config()
        };
        #[expect(
            clippy::expect_used,
            reason = "invariant: only lim changed; validation cannot newly fail"
        )]
        let refined = Dhs::new(refined_cfg).expect("lim change keeps config valid");
        refined.count(ring, metric, origin, rng, ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EstimatorKind;
    use dhs_dht::ring::{Ring, RingConfig};
    use dhs_sketch::{ItemHasher, SplitMix64};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sparse_system(n: u64) -> (Dhs, Ring, StdRng) {
        let mut rng = StdRng::seed_from_u64(77);
        let mut ring = Ring::build(256, RingConfig::default(), &mut rng);
        let cfg = DhsConfig {
            m: 64,
            estimator: EstimatorKind::Pcsa, // most lim-sensitive
            ..DhsConfig::default()
        };
        let dhs = Dhs::new(cfg).unwrap();
        let hasher = SplitMix64::default();
        let keys: Vec<u64> = (0..n).map(|i| hasher.hash_u64(i)).collect();
        let origins = ring.alive_ids().to_vec();
        let mut ledger = CostLedger::new();
        for (chunk, &origin) in keys.chunks(64).zip(origins.iter().cycle()) {
            dhs.bulk_insert(&mut ring, 1, chunk, origin, &mut rng, &mut ledger);
        }
        (dhs, ring, rng)
    }

    #[test]
    fn recommended_lim_grows_as_density_falls() {
        let dhs = Dhs::new(DhsConfig {
            m: 512,
            ..DhsConfig::default()
        })
        .unwrap();
        let dense = dhs.recommended_lim(10_000_000, 1024, 0.99);
        let sparse = dhs.recommended_lim(50_000, 1024, 0.99);
        assert!(dense <= 5, "dense regime needs ≤ default: {dense}");
        assert!(sparse > dense, "sparse {sparse} !> dense {dense}");
        assert!(sparse <= MAX_ADAPTIVE_LIM);
    }

    #[test]
    fn adaptive_skips_second_pass_when_dense() {
        // Dense: the coarse estimate satisfies eq. 6 at lim = 5 already,
        // so adaptive must cost the same as plain counting.
        let (dhs, ring, rng) = sparse_system(60_000); // 60k over m=64·256 ⇒ α≈3.7 dense
        let origin = ring.alive_ids()[0];
        let mut l1 = CostLedger::new();
        let mut rng1 = StdRng::seed_from_u64(5);
        let plain = dhs.count(&ring, 1, origin, &mut rng1, &mut l1);
        let mut l2 = CostLedger::new();
        let mut rng2 = StdRng::seed_from_u64(5);
        let adaptive = dhs.count_adaptive(&ring, 1, origin, 0.99, &mut rng2, &mut l2);
        assert_eq!(plain.estimate, adaptive.estimate);
        assert_eq!(l1.hops(), l2.hops());
        let _ = rng;
    }

    #[test]
    fn adaptive_beats_fixed_lim_when_sparse() {
        // Sparse: 2k items over m=64 × 256 nodes ⇒ α ≈ 0.12.
        let n = 2_000u64;
        let (dhs, ring, _) = sparse_system(n);
        let origin = ring.alive_ids()[0];
        // Average both estimators' |error| over several trials.
        let mean_err = |adaptive: bool| {
            let mut total = 0.0;
            let trials = 8;
            for seed in 0..trials {
                let mut rng = StdRng::seed_from_u64(100 + seed);
                let mut ledger = CostLedger::new();
                let result = if adaptive {
                    dhs.count_adaptive(&ring, 1, origin, 0.99, &mut rng, &mut ledger)
                } else {
                    dhs.count(&ring, 1, origin, &mut rng, &mut ledger)
                };
                total += result.relative_error(n).abs();
            }
            total / trials as f64
        };
        let fixed = mean_err(false);
        let adaptive = mean_err(true);
        assert!(
            adaptive < fixed,
            "adaptive err {adaptive} should beat fixed-lim err {fixed}"
        );
        assert!(adaptive < 0.30, "adaptive err {adaptive}");
    }

    #[test]
    fn adaptive_budget_is_capped() {
        let dhs = Dhs::new(DhsConfig {
            m: 512,
            ..DhsConfig::default()
        })
        .unwrap();
        assert_eq!(dhs.recommended_lim(1, 100_000, 0.999), MAX_ADAPTIVE_LIM);
    }
}
