//! DHS configuration and validation.

use std::error::Error;
use std::fmt;

/// Which hash-sketch estimator the counting algorithm reconstructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// Flajolet–Martin PCSA (paper's DHS-PCSA): scan intervals from the
    /// least significant bit upward, concluding each bitmap's first 0-bit.
    Pcsa,
    /// Durand–Flajolet super-LogLog (paper's DHS-sLL): scan intervals from
    /// the most significant bit downward, concluding each bitmap's highest
    /// set bit.
    SuperLogLog,
    /// HyperLogLog (Flajolet et al. 2007) — the successor estimator, added
    /// as an extension beyond the paper: identical top-down scan and
    /// storage as super-LogLog (insertion is shared by all three), but the
    /// estimate uses the harmonic mean with a small-range correction.
    /// Requires `m ≥ 16`.
    HyperLogLog,
}

impl EstimatorKind {
    /// The fewest bitmap vectors the estimator's constants are defined
    /// for.
    fn min_buckets(self) -> usize {
        match self {
            EstimatorKind::Pcsa => 1,
            EstimatorKind::SuperLogLog => 2,
            EstimatorKind::HyperLogLog => 16,
        }
    }
}

impl fmt::Display for EstimatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimatorKind::Pcsa => write!(f, "PCSA"),
            EstimatorKind::SuperLogLog => write!(f, "sLL"),
            EstimatorKind::HyperLogLog => write!(f, "HLL"),
        }
    }
}

/// DHS protocol parameters (paper notation in brackets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DhsConfig {
    /// Length of DHS keys/bitmaps in bits (`k ≤ L = 64`). The evaluation
    /// uses 24.
    pub k: u32,
    /// Number of bitmap vectors (`m`, a power of two). The evaluation
    /// defaults to 512.
    pub m: usize,
    /// Per-interval probe retry limit (`lim`), default 5 (§4.1).
    pub lim: u32,
    /// Replication degree (`R ≥ 1`; 1 means no replication). Replicas go
    /// to the `R−1` immediate successors of the storing node (§3.5).
    pub replication: u32,
    /// Bit-shift fault tolerance (`b`, §3.5): the `b` least significant
    /// bit positions are not stored (assumed set — only cardinalities
    /// beyond `2^b` are measured), promoting every stored bit into a
    /// larger interval. Default 0.
    pub bit_shift: u32,
    /// Soft-state time-to-live in logical time units (`u64::MAX` = never
    /// expire). Default never, so cost experiments are not perturbed.
    pub ttl: u64,
    /// Estimator reconstructed at counting time.
    pub estimator: EstimatorKind,
}

impl Default for DhsConfig {
    /// The paper's §5.1 defaults: `k = 24`, `m = 512`, `lim = 5`,
    /// no replication, no bit shift, 8-byte tuples.
    fn default() -> Self {
        DhsConfig {
            k: 24,
            m: 512,
            lim: 5,
            replication: 1,
            bit_shift: 0,
            ttl: u64::MAX,
            estimator: EstimatorKind::SuperLogLog,
        }
    }
}

/// Errors validating a [`DhsConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `k` must be in `1..=64`.
    KeyBitsOutOfRange(u32),
    /// `m` must be a power of two ≥ 1.
    BitmapsNotPowerOfTwo(usize),
    /// `m` must fit in a `u16` vector index (`m ≤ 65536`): `classify`
    /// masks the low `log2(m)` key bits into a `u16`, so a larger `m`
    /// would silently truncate vector indices.
    TooManyBitmaps(usize),
    /// After splitting off `log2(m)` bucket bits, no rank bits remain
    /// (`k ≤ log2(m)`).
    NoRankBits {
        /// Configured key bits.
        k: u32,
        /// Configured bitmap count.
        m: usize,
    },
    /// `bit_shift` must leave at least one storable bit position.
    BitShiftTooLarge {
        /// Configured shift.
        bit_shift: u32,
        /// Available rank bits.
        rank_bits: u32,
    },
    /// The estimator's α constants need more buckets than `m`:
    /// super-LogLog at least 2, HyperLogLog at least 16.
    TooFewBuckets {
        /// Configured estimator.
        estimator: EstimatorKind,
        /// Configured bitmap count.
        m: usize,
    },
    /// `lim` must be ≥ 1.
    ZeroRetryLimit,
    /// `replication` must be ≥ 1.
    ZeroReplication,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::KeyBitsOutOfRange(k) => write!(f, "k = {k} out of range 1..=64"),
            ConfigError::BitmapsNotPowerOfTwo(m) => {
                write!(f, "m = {m} is not a power of two ≥ 1")
            }
            ConfigError::TooManyBitmaps(m) => {
                write!(f, "m = {m} exceeds 65536 (vector indices are u16)")
            }
            ConfigError::NoRankBits { k, m } => {
                write!(f, "k = {k} leaves no rank bits after m = {m} bucket bits")
            }
            ConfigError::BitShiftTooLarge {
                bit_shift,
                rank_bits,
            } => write!(
                f,
                "bit_shift = {bit_shift} leaves no storable bits (rank bits = {rank_bits})"
            ),
            ConfigError::TooFewBuckets { estimator, m } => {
                write!(
                    f,
                    "{estimator} needs m ≥ {}, got {m}",
                    estimator.min_buckets()
                )
            }
            ConfigError::ZeroRetryLimit => write!(f, "lim must be ≥ 1"),
            ConfigError::ZeroReplication => write!(f, "replication must be ≥ 1"),
        }
    }
}

impl Error for ConfigError {}

impl DhsConfig {
    /// Encoded size of one DHS tuple on the wire/in storage. The paper's
    /// evaluation packs `<metric_id, vector_id, bit, time_out>` into
    /// 8 bytes (§5.1).
    pub const TUPLE_BYTES: u32 = 8;
    /// Size of a probe/lookup request message.
    pub const REQUEST_BYTES: u32 = 16;
    /// Fixed header of a probe response (the variable part — which
    /// vectors have the bit — is `⌈m/8⌉` bytes per metric).
    pub const RESPONSE_HEADER_BYTES: u32 = 8;

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.k == 0 || self.k > 64 {
            return Err(ConfigError::KeyBitsOutOfRange(self.k));
        }
        if self.m == 0 || !self.m.is_power_of_two() {
            return Err(ConfigError::BitmapsNotPowerOfTwo(self.m));
        }
        if self.m > 1 << 16 {
            return Err(ConfigError::TooManyBitmaps(self.m));
        }
        if self.bucket_bits() >= self.k {
            return Err(ConfigError::NoRankBits {
                k: self.k,
                m: self.m,
            });
        }
        if self.bit_shift >= self.rank_bits() {
            return Err(ConfigError::BitShiftTooLarge {
                bit_shift: self.bit_shift,
                rank_bits: self.rank_bits(),
            });
        }
        if self.m < self.estimator.min_buckets() {
            return Err(ConfigError::TooFewBuckets {
                estimator: self.estimator,
                m: self.m,
            });
        }
        if self.lim == 0 {
            return Err(ConfigError::ZeroRetryLimit);
        }
        if self.replication == 0 {
            return Err(ConfigError::ZeroReplication);
        }
        Ok(())
    }

    /// `log2(m)`: bits of the DHS key that select the bitmap vector.
    pub fn bucket_bits(&self) -> u32 {
        self.m.trailing_zeros()
    }

    /// Number of distinct rank (bit) positions: `k − log2(m)`.
    ///
    /// Ranks run in `0..rank_bits()`; the counting scan covers them all.
    pub fn rank_bits(&self) -> u32 {
        self.k - self.bucket_bits()
    }

    /// Number of ID-space intervals: `k − bit_shift` (§3.5's shift
    /// removes the lowest ones). The counting scan covers all `k` bit
    /// positions, as the paper's Algorithm 1 (`for r = L−1, …, 0`) does
    /// and its Table 2 costs reflect, though only the first
    /// `rank_bits() − bit_shift` intervals ever hold data: with `m`
    /// vectors the top `log2(m)` positions are structurally empty.
    pub fn num_intervals(&self) -> u32 {
        self.k - self.bit_shift
    }

    /// Probe response size in bytes when reporting `metrics` metrics: the
    /// fixed header plus one presence bit per vector per metric.
    pub fn response_bytes(&self, metrics: usize) -> u64 {
        u64::from(Self::RESPONSE_HEADER_BYTES) + (metrics as u64) * self.m.div_ceil(8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let cfg = DhsConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.k, 24);
        assert_eq!(cfg.m, 512);
        assert_eq!(cfg.lim, 5);
        assert_eq!(cfg.bucket_bits(), 9);
        assert_eq!(cfg.rank_bits(), 15);
        assert_eq!(cfg.num_intervals(), 24, "paper-faithful full-k scan");
    }

    #[test]
    fn invalid_k_rejected() {
        let cfg = DhsConfig {
            k: 0,
            ..DhsConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::KeyBitsOutOfRange(0))
        ));
        let cfg = DhsConfig {
            k: 65,
            ..DhsConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn invalid_m_rejected() {
        let cfg = DhsConfig {
            m: 0,
            ..DhsConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = DhsConfig {
            m: 100,
            ..DhsConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BitmapsNotPowerOfTwo(100))
        ));
    }

    #[test]
    fn oversized_m_rejected() {
        // Regression: classify() narrows the vector index to u16, so any
        // m > 2^16 would silently alias vectors. 2^16 itself is the last
        // representable size (indices 0..65535) and must stay accepted.
        let cfg = DhsConfig {
            k: 64,
            m: 1 << 17,
            ..DhsConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::TooManyBitmaps(m)) if m == 1 << 17
        ));
        let cfg = DhsConfig {
            k: 64,
            m: 1 << 16,
            ..DhsConfig::default()
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn k_must_exceed_bucket_bits() {
        let cfg = DhsConfig {
            k: 9,
            m: 512,
            ..DhsConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::NoRankBits { .. })
        ));
        let cfg = DhsConfig {
            k: 10,
            m: 512,
            ..DhsConfig::default()
        };
        cfg.validate().unwrap();
        assert_eq!(cfg.rank_bits(), 1);
    }

    #[test]
    fn bit_shift_bounds() {
        let cfg = DhsConfig {
            bit_shift: 14,
            ..DhsConfig::default()
        };
        cfg.validate().unwrap();
        assert_eq!(cfg.num_intervals(), 10);
        let cfg = DhsConfig {
            bit_shift: 15,
            ..DhsConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_lim_and_replication_rejected() {
        let cfg = DhsConfig {
            lim: 0,
            ..DhsConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(ConfigError::ZeroRetryLimit)));
        let cfg = DhsConfig {
            replication: 0,
            ..DhsConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(ConfigError::ZeroReplication)));
    }

    #[test]
    fn response_bytes_scale_with_metrics_and_m() {
        let cfg = DhsConfig::default(); // m = 512 → 64 bytes per metric
        assert_eq!(cfg.response_bytes(1), 8 + 64);
        assert_eq!(cfg.response_bytes(100), 8 + 6400);
        let small = DhsConfig {
            m: 4,
            ..DhsConfig::default()
        };
        assert_eq!(small.response_bytes(1), 8 + 1);
    }

    #[test]
    fn estimator_display() {
        assert_eq!(EstimatorKind::Pcsa.to_string(), "PCSA");
        assert_eq!(EstimatorKind::SuperLogLog.to_string(), "sLL");
        assert_eq!(EstimatorKind::HyperLogLog.to_string(), "HLL");
    }

    /// Regression: super-LogLog with one bucket used to validate, and
    /// the first `count` then panicked in the estimator (its α constant
    /// needs m ≥ 2).
    #[test]
    fn superloglog_requires_two_buckets() {
        let cfg = DhsConfig {
            m: 1,
            estimator: EstimatorKind::SuperLogLog,
            ..DhsConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = DhsConfig { m: 2, ..cfg };
        cfg.validate().unwrap();
        let pcsa = DhsConfig {
            m: 1,
            estimator: EstimatorKind::Pcsa,
            ..DhsConfig::default()
        };
        pcsa.validate().unwrap();
    }

    #[test]
    fn hll_requires_sixteen_buckets() {
        let cfg = DhsConfig {
            m: 8,
            estimator: EstimatorKind::HyperLogLog,
            ..DhsConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::TooFewBuckets { m: 8, .. })
        ));
        let cfg = DhsConfig {
            m: 16,
            estimator: EstimatorKind::HyperLogLog,
            ..DhsConfig::default()
        };
        cfg.validate().unwrap();
    }
}
