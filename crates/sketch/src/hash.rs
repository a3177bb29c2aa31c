//! Item-hashing substrate.
//!
//! Every hash-sketch algorithm assumes a pseudo-uniform hash
//! `h: D → [0, 2^L)`. DHTs already provide one (node/item IDs *are*
//! pseudo-uniform L-bit values), which is the observation the DHS paper
//! builds on. This module defines the [`ItemHasher`] abstraction and its
//! one implementation, [`SplitMix64`], a 64-bit finalizer. The paper's
//! evaluation used MD4; it only needs a pseudo-uniform hash, and every
//! ring, item and experiment here hashes with SplitMix64.

/// A deterministic, stateless map from items to pseudo-uniform `u64`s.
///
/// Implementations must be pure functions: the same input always yields the
/// same output, with no interior state. This is what lets every node of a
/// distributed system agree on item placement without coordination.
pub trait ItemHasher {
    /// Hash an arbitrary byte string.
    fn hash_bytes(&self, data: &[u8]) -> u64;

    /// Hash a `u64` item. The default hashes its little-endian bytes; an
    /// impl may override it with a direct mix of the word.
    fn hash_u64(&self, item: u64) -> u64 {
        self.hash_bytes(&item.to_le_bytes())
    }

    /// Hash a string item.
    fn hash_str(&self, item: &str) -> u64 {
        self.hash_bytes(item.as_bytes())
    }
}

/// SplitMix64-style mixing hasher with an optional seed.
///
/// For `u64` inputs it applies the SplitMix64 finalizer directly; for byte
/// strings it folds 8-byte words through the finalizer. Passes practical
/// uniformity tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplitMix64 {
    seed: u64,
}

impl SplitMix64 {
    /// A hasher whose outputs are decorrelated from the default by `seed`.
    pub fn with_seed(seed: u64) -> Self {
        SplitMix64 { seed }
    }

    /// The SplitMix64 finalizer (Stafford's Mix13 variant).
    #[inline]
    pub fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl ItemHasher for SplitMix64 {
    fn hash_bytes(&self, data: &[u8]) -> u64 {
        let mut acc = Self::mix(self.seed ^ 0x5bf0_3635_d1c2_03a9);
        for chunk in data.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            acc = Self::mix(acc ^ u64::from_le_bytes(word));
        }
        // Fold in the length so prefixes don't collide with padded inputs.
        Self::mix(acc ^ (data.len() as u64))
    }

    fn hash_u64(&self, item: u64) -> u64 {
        Self::mix(item ^ Self::mix(self.seed ^ 0x5bf0_3635_d1c2_03a9) ^ 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_determinism<H: ItemHasher>(h: &H) {
        assert_eq!(h.hash_u64(42), h.hash_u64(42));
        assert_eq!(h.hash_bytes(b"hello"), h.hash_bytes(b"hello"));
        assert_eq!(h.hash_str("hello"), h.hash_bytes(b"hello"));
    }

    #[test]
    fn all_hashers_deterministic() {
        check_determinism(&SplitMix64::default());
        check_determinism(&SplitMix64::with_seed(7));
    }

    #[test]
    fn seeds_decorrelate_splitmix() {
        let a = SplitMix64::with_seed(1);
        let b = SplitMix64::with_seed(2);
        let same = (0..1000u64)
            .filter(|&i| a.hash_u64(i) == b.hash_u64(i))
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn splitmix_bytes_length_sensitivity() {
        let h = SplitMix64::default();
        // A prefix must not collide with its zero-padded extension.
        assert_ne!(h.hash_bytes(b"abc"), h.hash_bytes(b"abc\0"));
        assert_ne!(h.hash_bytes(b""), h.hash_bytes(b"\0"));
    }

    /// Chi-squared-style bucket balance test for each hasher: hash 64k
    /// consecutive integers into 256 buckets using the low byte, expect
    /// each bucket within 25% of the mean.
    fn bucket_balance<H: ItemHasher>(h: &H, label: &str) {
        let n = 1u64 << 16;
        let mut buckets = [0u32; 256];
        for i in 0..n {
            buckets[(h.hash_u64(i) & 0xFF) as usize] += 1;
        }
        let mean = (n / 256) as f64;
        for (b, &c) in buckets.iter().enumerate() {
            assert!(
                (f64::from(c) - mean).abs() / mean < 0.25,
                "{label}: bucket {b} count {c} vs mean {mean}"
            );
        }
    }

    #[test]
    fn splitmix_bucket_balance() {
        bucket_balance(&SplitMix64::default(), "splitmix64");
    }

    #[test]
    fn high_bits_balance_too() {
        // DHS partitions the ID space by *high* bits, so the top byte must
        // be uniform as well.
        let h = SplitMix64::default();
        let n = 1u64 << 16;
        let mut buckets = [0u32; 256];
        for i in 0..n {
            buckets[(h.hash_u64(i) >> 56) as usize] += 1;
        }
        let mean = (n / 256) as f64;
        for &c in &buckets {
            assert!((f64::from(c) - mean).abs() / mean < 0.25);
        }
    }
}
