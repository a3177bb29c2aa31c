//! Duplicate-laden multisets.
//!
//! The paper's constraint (6) is duplicate insensitivity: sensor networks
//! report the same event from many sensors, file-sharing networks index
//! the same document at many peers. This module generates multisets with
//! a controlled number of distinct items and a duplication profile, so
//! experiments can verify that DHS (and the sketch baselines) count
//! *distinct* items while duplicate-sensitive baselines (sampling) drift.

use rand::Rng;

/// A multiset with known distinct cardinality.
#[derive(Debug, Clone)]
pub struct DuplicatedMultiset {
    /// The item stream, duplicates included, in insertion order.
    pub items: Vec<u64>,
    /// Number of distinct items in the stream.
    pub distinct: u64,
}

impl DuplicatedMultiset {
    /// `distinct` items, each appearing exactly `copies` times, shuffled.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a capacity hint; workloads are far below usize::MAX items"
    )]
    pub fn uniform_copies(distinct: u64, copies: u32, rng: &mut impl Rng) -> Self {
        assert!(copies >= 1);
        let mut items = Vec::with_capacity((distinct * u64::from(copies)) as usize);
        for item in 0..distinct {
            for _ in 0..copies {
                items.push(item);
            }
        }
        shuffle(&mut items, rng);
        DuplicatedMultiset { items, distinct }
    }

    /// `distinct` items with Zipf-skewed copy counts: item of popularity
    /// rank `i` appears `⌈max_copies / i^θ⌉` times. Models "popular
    /// documents indexed everywhere".
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float→int: ≤ max_copies, fits u32"
    )]
    pub fn zipf_copies(distinct: u64, max_copies: u32, theta: f64, rng: &mut impl Rng) -> Self {
        assert!(max_copies >= 1);
        let mut items = Vec::new();
        for item in 0..distinct {
            let rank = item + 1;
            let copies = ((f64::from(max_copies) / (rank as f64).powf(theta)).ceil() as u32).max(1);
            for _ in 0..copies {
                items.push(item);
            }
        }
        shuffle(&mut items, rng);
        DuplicatedMultiset { items, distinct }
    }

    /// Total stream length (with duplicates).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Duplication factor: stream length / distinct count.
    pub fn duplication_factor(&self) -> f64 {
        if self.distinct == 0 {
            0.0
        } else {
            self.items.len() as f64 / self.distinct as f64
        }
    }
}

/// Fisher–Yates shuffle (kept local: `rand`'s `SliceRandom` would work,
/// but an explicit implementation keeps the shuffle order stable across
/// `rand` versions for reproducibility).
fn shuffle<T>(v: &mut [T], rng: &mut impl Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    #[test]
    fn uniform_copies_exact_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let ms = DuplicatedMultiset::uniform_copies(100, 5, &mut rng);
        assert_eq!(ms.len(), 500);
        assert_eq!(ms.distinct, 100);
        assert_eq!(ms.duplication_factor(), 5.0);
        let distinct: BTreeSet<u64> = ms.items.iter().copied().collect();
        assert_eq!(distinct.len(), 100);
    }

    #[test]
    fn zipf_copies_head_is_heavier() {
        let mut rng = StdRng::seed_from_u64(2);
        let ms = DuplicatedMultiset::zipf_copies(50, 100, 1.0, &mut rng);
        let count = |x: u64| ms.items.iter().filter(|&&i| i == x).count();
        assert_eq!(count(0), 100);
        assert_eq!(count(1), 50);
        assert!(count(49) >= 1);
        let distinct: BTreeSet<u64> = ms.items.iter().copied().collect();
        assert_eq!(distinct.len(), 50);
    }

    #[test]
    fn shuffle_is_permutation_and_seeded() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b: Vec<u32> = (0..100).collect();
        shuffle(&mut a, &mut StdRng::seed_from_u64(3));
        shuffle(&mut b, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b, "same seed, same order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(a, sorted, "a 100-element shuffle should move something");
    }

    #[test]
    fn empty_multiset() {
        let mut rng = StdRng::seed_from_u64(4);
        let ms = DuplicatedMultiset::uniform_copies(0, 3, &mut rng);
        assert!(ms.is_empty());
        assert_eq!(ms.duplication_factor(), 0.0);
    }
}
