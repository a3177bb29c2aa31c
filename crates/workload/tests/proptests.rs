#![expect(
    clippy::cast_possible_truncation,
    reason = "test data has known ranges"
)]
//! Property-based tests for the workload generators.

use dhs_workload::multiset::DuplicatedMultiset;
use dhs_workload::relation::{Relation, RelationSpec};
use dhs_workload::zipf::Zipf;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// The Zipf pmf is a valid, monotone non-increasing distribution for
    /// arbitrary domain and skew.
    #[test]
    fn zipf_pmf_valid(domain in 1usize..2_000, theta in 0.0f64..3.0) {
        let z = Zipf::new(domain, theta);
        let total: f64 = (1..=domain).map(|i| z.pmf(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        for i in 1..domain {
            prop_assert!(z.pmf(i) >= z.pmf(i + 1) - 1e-12, "rank {i}");
        }
    }

    /// Samples always land in the domain, and the sampler is
    /// seed-deterministic.
    #[test]
    fn zipf_samples_in_domain(domain in 1usize..500, theta in 0.0f64..2.0, seed in any::<u64>()) {
        let z = Zipf::new(domain, theta);
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let s1 = z.sample(&mut a);
            let s2 = z.sample(&mut b);
            prop_assert_eq!(s1, s2);
            prop_assert!((1..=domain).contains(&s1));
        }
    }

    /// expected_distinct is monotone in n and bounded by the domain.
    #[test]
    fn expected_distinct_monotone(domain in 1usize..300, theta in 0.0f64..2.0) {
        let z = Zipf::new(domain, theta);
        let mut prev = 0.0;
        for n in [0u64, 1, 10, 100, 10_000] {
            let e = z.expected_distinct(n);
            prop_assert!(e >= prev - 1e-9);
            prop_assert!(e <= domain as f64 + 1e-9);
            prev = e;
        }
    }

    /// Relations have unique ids, in-domain values, and exact scaled
    /// sizes.
    #[test]
    fn relation_well_formed(tuples in 1u64..20_000, domain in 1usize..500, seed in any::<u64>()) {
        let spec = RelationSpec {
            name: "X",
            paper_tuples: tuples,
            domain,
            theta: 0.7,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let rel = Relation::generate(&spec, 1.0, 5, &mut rng);
        prop_assert_eq!(rel.len() as u64, tuples);
        let mut ids: Vec<u64> = rel.tuples.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, tuples, "ids unique");
        prop_assert!(rel.tuples.iter().all(|t| (t.value as usize) < domain));
        // Frequencies are consistent with counts.
        let freq = rel.value_frequencies();
        prop_assert_eq!(freq.iter().sum::<u64>(), tuples);
        prop_assert_eq!(rel.count_in_range(0, domain as u32), tuples);
    }

    /// Multisets report exact distinct counts and stream lengths.
    #[test]
    fn multiset_invariants(distinct in 0u64..2_000, copies in 1u32..6, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ms = DuplicatedMultiset::uniform_copies(distinct, copies, &mut rng);
        prop_assert_eq!(ms.distinct, distinct);
        prop_assert_eq!(ms.len() as u64, distinct * u64::from(copies));
        let mut support: Vec<u64> = ms.items.clone();
        support.sort_unstable();
        support.dedup();
        prop_assert_eq!(support.len() as u64, distinct);
    }

    /// Zipf-copies multisets cover the full support exactly once at
    /// minimum.
    #[test]
    fn zipf_multiset_support(distinct in 1u64..500, max_copies in 1u32..50, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ms = DuplicatedMultiset::zipf_copies(distinct, max_copies, 0.9, &mut rng);
        let mut support: Vec<u64> = ms.items.clone();
        support.sort_unstable();
        support.dedup();
        prop_assert_eq!(support.len() as u64, distinct);
        prop_assert!(ms.len() as u64 >= distinct);
        prop_assert!(ms.len() as u64 <= distinct * u64::from(max_copies));
    }
}
