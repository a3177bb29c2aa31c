//! Property-based tests for the histogram crate.

use dhs_histogram::buckets::BucketSpec;
use dhs_histogram::query::{exact_join_size, join_size};
use dhs_histogram::selectivity::Selectivity;
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = BucketSpec> {
    (0u32..1000, 1u32..500, 1u32..40).prop_filter_map(
        "buckets must fit the domain",
        |(min, width, buckets)| {
            let max = min + width * buckets - 1;
            if u64::from(buckets) <= u64::from(max) - u64::from(min) + 1 {
                Some(BucketSpec::new(min, max, buckets, 0))
            } else {
                None
            }
        },
    )
}

proptest! {
    /// Every in-domain value belongs to exactly one bucket, and bucket
    /// ranges tile the domain.
    #[test]
    fn buckets_partition_domain(spec in arb_spec(), offset in 0u32..10_000) {
        let value = spec.min + offset % (spec.max - spec.min + 1);
        let b = spec.bucket_of(value).expect("in-domain");
        let (lo, hi) = spec.range_of(b);
        prop_assert!((lo..hi).contains(&value));
        // Tiling.
        let mut expected = spec.min;
        for i in 0..spec.buckets {
            let (lo, hi) = spec.range_of(i);
            prop_assert_eq!(lo, expected);
            prop_assert!(hi > lo);
            expected = hi;
        }
        prop_assert_eq!(expected, spec.max + 1);
    }

    /// Selectivity is additive over adjacent ranges and bounded by the
    /// total.
    #[test]
    fn selectivity_additive(
        counts in prop::collection::vec(0.0f64..1e6, 10),
        a in 0u32..100,
        b in 0u32..100,
        c in 0u32..100,
    ) {
        let spec = BucketSpec::new(0, 99, 10, 0);
        let sel = Selectivity::new(spec, &counts);
        let mut points = [a.min(99), b.min(99), c.min(99)];
        points.sort_unstable();
        let [x, y, z] = points;
        let split = sel.range(x, y) + sel.range(y, z);
        let whole = sel.range(x, z);
        prop_assert!((split - whole).abs() < 1e-6 * (1.0 + whole));
        prop_assert!(whole <= sel.total() + 1e-6);
    }

    /// The join-size model is symmetric and zero when either side is
    /// empty.
    #[test]
    fn join_model_symmetric(
        a in prop::collection::vec(0.0f64..1e5, 8),
        b in prop::collection::vec(0.0f64..1e5, 8),
    ) {
        let spec = BucketSpec::new(0, 79, 8, 0);
        let ab = join_size(&spec, &a, &b);
        let ba = join_size(&spec, &b, &a);
        prop_assert!((ab - ba).abs() < 1e-6 * (1.0 + ab));
        let zero = vec![0.0; 8];
        prop_assert_eq!(join_size(&spec, &a, &zero), 0.0);
    }

    /// The exact join size is an upper-bounded bilinear form.
    #[test]
    fn exact_join_bilinear(
        a in prop::collection::vec(0u64..1000, 6),
        b in prop::collection::vec(0u64..1000, 6),
    ) {
        let size = exact_join_size(&a, &b);
        let max_a = *a.iter().max().unwrap();
        let sum_b: u64 = b.iter().sum();
        prop_assert!(size <= max_a * sum_b);
    }
}
