//! The tenant-scoped sketch namespace and the shared classification rule.
//!
//! A [`SketchKey`] names one logical sketch: a `(tenant, metric)` pair.
//! The tenant dimension is what turns the single-namespace DHS store into
//! a multi-tenant one — two tenants' metric 7 are distinct sketches, with
//! distinct shard placement and distinct DHT tuple keys. The pair packs
//! into the existing 32-bit [`MetricId`] (`tenant` in the high half), so
//! every downstream layer — DHT tuple keys, epoch caches, scan hints —
//! works on tenant-scoped sketches unchanged.

use dhs_core::MetricId;
use dhs_sketch::packed::MAX_PACKED;
use dhs_sketch::rho;

/// Identifies one tenant (namespace) in the sharded store.
pub type TenantId = u16;

/// One logical sketch: a metric within a tenant's namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SketchKey {
    /// The owning tenant.
    pub tenant: TenantId,
    /// The metric within the tenant's namespace.
    pub metric: u16,
}

impl SketchKey {
    /// Construct from parts.
    pub fn new(tenant: TenantId, metric: u16) -> Self {
        SketchKey { tenant, metric }
    }

    /// The packed 32-bit form: `tenant` in the high 16 bits. This is the
    /// [`MetricId`] the DHT layers see, so tenant isolation holds all the
    /// way down to tuple keys.
    pub fn metric_id(self) -> MetricId {
        (MetricId::from(self.tenant) << 16) | MetricId::from(self.metric)
    }

    /// Rebuild from a packed [`MetricId`].
    pub fn from_metric_id(id: MetricId) -> Self {
        SketchKey {
            tenant: (id >> 16) as u16,
            metric: (id & 0xFFFF) as u16,
        }
    }

    /// The key as a `u64`, for hashing (shard routing) and ordered maps.
    pub fn packed(self) -> u64 {
        u64::from(self.metric_id())
    }
}

/// Split an item hash into `(bucket, rank)` for a sketch with `m = 2^c`
/// buckets — the same rule every estimator in `dhs-sketch` uses and the
/// rule DHS distributes across the DHT: bucket = low `c` bits, rank =
/// `ρ(h >> c)` (0-based, the DHS tuple's `bit`).
///
/// The rank caps at [`MAX_PACKED`]` - 1` so the stored register value
/// (`rank + 1`) fits the 6-bit packed tier. Reaching the cap requires a
/// hash with 62 trailing zeros above the bucket bits (probability
/// `m / 2^64` per item), so the clamp is unobservable at any realistic
/// cardinality; it exists to make every register tier hold identical
/// values.
pub fn classify_hash(hash: u64, m: usize) -> (u16, u8) {
    debug_assert!(m.is_power_of_two() && m <= 1 << 16);
    let c = m.trailing_zeros();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "masked to the bucket bits, m ≤ 65536"
    )]
    let bucket = (hash & (m as u64 - 1)) as u16;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "rho ≤ 64, min-capped below 63"
    )]
    let rank = rho(hash >> c).min(u32::from(MAX_PACKED) - 1) as u8;
    (bucket, rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_id_roundtrip_and_isolation() {
        let a = SketchKey::new(3, 7);
        let b = SketchKey::new(4, 7);
        assert_ne!(a.metric_id(), b.metric_id());
        assert_eq!(SketchKey::from_metric_id(a.metric_id()), a);
        assert_eq!(SketchKey::from_metric_id(b.metric_id()), b);
        assert_eq!(SketchKey::new(0xFFFF, 0xFFFF).metric_id(), u32::MAX);
    }

    #[test]
    fn classify_matches_loglog_insert_rule() {
        use dhs_sketch::{CardinalityEstimator, ItemHasher, SplitMix64, SuperLogLog};
        let m = 256;
        let hasher = SplitMix64::default();
        let mut sll = SuperLogLog::new(m).unwrap();
        let mut regs = vec![0u8; m];
        for i in 0..20_000u64 {
            let h = hasher.hash_u64(i);
            sll.insert_hash(h);
            let (bucket, rank) = classify_hash(h, m);
            let idx = usize::from(bucket);
            regs[idx] = regs[idx].max(rank + 1);
        }
        assert_eq!(
            dhs_sketch::superloglog_estimate_from_registers(&regs),
            sll.estimate()
        );
    }

    #[test]
    fn classify_caps_rank() {
        // hash = 0: every bit above the bucket is zero → rho = 64, capped.
        let (bucket, rank) = classify_hash(0, 64);
        assert_eq!(bucket, 0);
        assert_eq!(rank, MAX_PACKED - 1);
    }
}
