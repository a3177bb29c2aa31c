//! The paper's relations.
//!
//! §5.1: "The system hosts four relations — Q, R, S, and T — of size equal
//! to 10, 20, 40, and 80 GBytes respectively. We assume a tuple size of
//! 1 kByte, so that relations contain 10, 20, 40, and 80 million tuples
//! respectively. Tuples in the relations consist of a single integer
//! attribute each, receiving values according to a Zipf distribution with
//! θ = 0.7. Tuples are randomly (uniformly) assigned to nodes."
//!
//! A [`RelationSpec`] captures that description; [`Relation::generate`]
//! materializes tuples at a configurable scale factor (the experiments
//! default to 1/100 scale; `--scale 1.0` reproduces paper scale — see
//! EXPERIMENTS.md for why every reported metric is scale-robust).

use rand::Rng;

use crate::zipf::Zipf;

/// The Zipf skew used throughout the paper's evaluation.
pub const PAPER_THETA: f64 = 0.7;

/// Attribute-domain size used by our reproduction (the paper does not pin
/// one; 10 000 distinct values gives 100-bucket histograms 100 values per
/// bucket, matching its histogram setup).
pub const DEFAULT_DOMAIN: usize = 10_000;

/// Declarative description of a relation.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationSpec {
    /// Relation name (e.g. "Q").
    pub name: &'static str,
    /// Tuple count at paper scale.
    pub paper_tuples: u64,
    /// Attribute domain size (values are `0..domain`).
    pub domain: usize,
    /// Zipf skew θ.
    pub theta: f64,
}

/// The paper's four relations at full scale.
pub const PAPER_RELATIONS: [RelationSpec; 4] = [
    RelationSpec {
        name: "Q",
        paper_tuples: 10_000_000,
        domain: DEFAULT_DOMAIN,
        theta: PAPER_THETA,
    },
    RelationSpec {
        name: "R",
        paper_tuples: 20_000_000,
        domain: DEFAULT_DOMAIN,
        theta: PAPER_THETA,
    },
    RelationSpec {
        name: "S",
        paper_tuples: 40_000_000,
        domain: DEFAULT_DOMAIN,
        theta: PAPER_THETA,
    },
    RelationSpec {
        name: "T",
        paper_tuples: 80_000_000,
        domain: DEFAULT_DOMAIN,
        theta: PAPER_THETA,
    },
];

/// One tuple: a globally unique identifier plus a single integer
/// attribute, exactly the paper's schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuple {
    /// Globally unique tuple identifier (relations never share ids).
    pub id: u64,
    /// The single integer attribute, in `0..domain`.
    pub value: u32,
}

/// A materialized relation.
#[derive(Debug, Clone)]
pub struct Relation {
    /// The spec this relation was generated from.
    pub spec: RelationSpec,
    /// The tuples.
    pub tuples: Vec<Tuple>,
}

impl RelationSpec {
    /// Tuple count after applying `scale` (at least 1).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float→int: a rounded, finite tuple count"
    )]
    pub fn scaled_tuples(&self, scale: f64) -> u64 {
        assert!(scale > 0.0 && scale.is_finite());
        ((self.paper_tuples as f64 * scale).round() as u64).max(1)
    }
}

impl Relation {
    /// Materialize the relation at `scale` (1.0 = paper scale). Tuple ids
    /// are made globally unique by tagging the top byte with
    /// `relation_tag`, so multi-relation experiments never collide.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "Zipf ranks are ≤ the domain size"
    )]
    pub fn generate(spec: &RelationSpec, scale: f64, relation_tag: u8, rng: &mut impl Rng) -> Self {
        let n = spec.scaled_tuples(scale);
        let zipf = Zipf::new(spec.domain, spec.theta);
        let tag = u64::from(relation_tag) << 56;
        let tuples = (0..n)
            .map(|i| Tuple {
                id: tag | i,
                value: (zipf.sample(rng) - 1) as u32,
            })
            .collect();
        Relation {
            spec: spec.clone(),
            tuples,
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Exact number of tuples with `lo ≤ value < hi` (ground truth for
    /// histogram experiments).
    pub fn count_in_range(&self, lo: u32, hi: u32) -> u64 {
        self.tuples
            .iter()
            .filter(|t| (lo..hi).contains(&t.value))
            .count() as u64
    }

    /// Exact per-value frequency vector over the domain.
    pub fn value_frequencies(&self) -> Vec<u64> {
        let mut freq = vec![0u64; self.spec.domain];
        for t in &self.tuples {
            freq[t.value as usize] += 1;
        }
        freq
    }
}

/// Generate all four paper relations at `scale`, with distinct tags.
#[expect(
    clippy::cast_possible_truncation,
    reason = "schemas hold far fewer than 256 relations"
)]
pub fn generate_paper_relations(scale: f64, rng: &mut impl Rng) -> Vec<Relation> {
    PAPER_RELATIONS
        .iter()
        .enumerate()
        .map(|(i, spec)| Relation::generate(spec, scale, (i + 1) as u8, rng))
        .collect()
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test data has known ranges"
)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_specs_match_the_paper() {
        assert_eq!(PAPER_RELATIONS[0].paper_tuples, 10_000_000);
        assert_eq!(PAPER_RELATIONS[3].paper_tuples, 80_000_000);
        for spec in &PAPER_RELATIONS {
            assert_eq!(spec.theta, 0.7);
        }
    }

    #[test]
    fn scaling_rounds_and_floors_at_one() {
        let spec = &PAPER_RELATIONS[0];
        assert_eq!(spec.scaled_tuples(1.0), 10_000_000);
        assert_eq!(spec.scaled_tuples(0.01), 100_000);
        assert_eq!(spec.scaled_tuples(1e-9), 1);
    }

    #[test]
    fn tuple_ids_globally_unique_across_relations() {
        let mut rng = StdRng::seed_from_u64(1);
        let rels = generate_paper_relations(0.0001, &mut rng);
        let mut ids: Vec<u64> = rels
            .iter()
            .flat_map(|r| r.tuples.iter().map(|t| t.id))
            .collect();
        let total = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total);
    }

    #[test]
    fn values_zipf_skewed() {
        let mut rng = StdRng::seed_from_u64(2);
        let rel = Relation::generate(&PAPER_RELATIONS[0], 0.001, 1, &mut rng);
        let freq = rel.value_frequencies();
        // Value 0 (rank 1) must be the most frequent, and visibly more
        // frequent than a mid-domain value.
        let max = *freq.iter().max().unwrap();
        assert_eq!(freq[0], max);
        assert!(freq[0] > 5 * freq[5000].max(1));
    }

    #[test]
    fn count_in_range_agrees_with_frequencies() {
        let mut rng = StdRng::seed_from_u64(3);
        let rel = Relation::generate(&PAPER_RELATIONS[1], 0.0005, 2, &mut rng);
        let freq = rel.value_frequencies();
        let lo = 100u32;
        let hi = 250u32;
        let expected: u64 = freq[lo as usize..hi as usize].iter().sum();
        assert_eq!(rel.count_in_range(lo, hi), expected);
        assert_eq!(
            rel.count_in_range(0, rel.spec.domain as u32),
            rel.len() as u64
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let mut r1 = StdRng::seed_from_u64(4);
        let mut r2 = StdRng::seed_from_u64(4);
        let a = Relation::generate(&PAPER_RELATIONS[2], 0.0001, 3, &mut r1);
        let b = Relation::generate(&PAPER_RELATIONS[2], 0.0001, 3, &mut r2);
        assert_eq!(a.tuples, b.tuples);
    }
}
