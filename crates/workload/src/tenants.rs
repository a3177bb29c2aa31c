//! Multi-tenant metric workload: the 10⁶-metric stream that exercises
//! the sharded sketch store.
//!
//! The paper's §4.2 histogram use puts one sketch behind every
//! (user, bucket) pair; at Internet scale that is millions of concurrent
//! metrics with a heavily skewed popularity distribution. This module
//! generates that shape deterministically:
//!
//! * a **registration pass** touches every metric exactly once (so a run
//!   with `total_metrics() = 10⁶` really materializes 10⁶ sketches — a
//!   Zipf-only stream would leave the tail empty), then
//! * an **update pass** draws `extra_updates` metrics from a Zipf(θ)
//!   distribution over the global metric index, so head metrics grow
//!   dense registers while tail metrics stay sparse — exactly the fill
//!   mix the tiered register store is built for.
//!
//! Item keys are unique per (metric, update) pair, derived from a
//! counter, so every update is a genuinely new item (cardinality grows
//! by one per update) and ground truth is exact.

use rand::Rng;

use crate::zipf::Zipf;

/// Shape of a multi-tenant metric stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantWorkload {
    /// Number of tenants (≤ 65536).
    pub tenants: u32,
    /// Metrics per tenant (≤ 65536).
    pub metrics_per_tenant: u32,
    /// Zipf skew of metric popularity in the update pass.
    pub theta: f64,
    /// Updates drawn after the registration pass.
    pub extra_updates: u64,
}

/// One update: an item arriving at a tenant's metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantUpdate {
    /// The tenant (fits `u16`).
    pub tenant: u16,
    /// The metric within the tenant (fits `u16`).
    pub metric: u16,
    /// The item key (unique across the whole stream).
    pub item: u64,
}

impl TenantWorkload {
    /// Total metrics across tenants.
    pub fn total_metrics(&self) -> u64 {
        u64::from(self.tenants) * u64::from(self.metrics_per_tenant)
    }

    /// Total updates the stream will emit (registration + Zipf pass).
    pub fn total_updates(&self) -> u64 {
        self.total_metrics() + self.extra_updates
    }

    /// Validate the tenant/metric dimensions fit their `u16` encodings.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants == 0 || self.tenants > 1 << 16 {
            return Err(format!("tenants {} not in 1..=65536", self.tenants));
        }
        if self.metrics_per_tenant == 0 || self.metrics_per_tenant > 1 << 16 {
            return Err(format!(
                "metrics_per_tenant {} not in 1..=65536",
                self.metrics_per_tenant
            ));
        }
        Ok(())
    }

    /// Stream every update through `f`, in deterministic order: the
    /// registration pass (global metric index ascending), then
    /// `extra_updates` Zipf draws from `rng`.
    ///
    /// The `u16` narrowings below are guaranteed by [`validate`]'s
    /// bounds, which this method asserts.
    ///
    /// [`validate`]: TenantWorkload::validate
    pub fn visit(&self, rng: &mut impl Rng, mut f: impl FnMut(TenantUpdate)) {
        assert!(self.validate().is_ok(), "invalid workload dimensions");
        let total = self.total_metrics();
        // Per-metric update counters make item keys unique stream-wide:
        // item = global_metric_index * 2^32 + seq.
        #[allow(clippy::cast_possible_truncation)]
        // dhs-lint: allow(lossy_cast) — total ≤ 2^32, fits usize.
        let mut seq = vec![0u32; total as usize];
        let emit = |global: u64, seq: &mut [u32], f: &mut dyn FnMut(TenantUpdate)| {
            #[allow(clippy::cast_possible_truncation)]
            let update = TenantUpdate {
                // dhs-lint: allow(lossy_cast) — tenant index bounded by validate().
                tenant: (global / u64::from(self.metrics_per_tenant)) as u16,
                // dhs-lint: allow(lossy_cast) — metric index bounded by validate().
                metric: (global % u64::from(self.metrics_per_tenant)) as u16,
                // dhs-lint: allow(lossy_cast) — global < total ≤ 2^32, fits usize.
                item: (global << 32) | u64::from(seq[global as usize]),
            };
            #[allow(clippy::cast_possible_truncation)]
            {
                // dhs-lint: allow(lossy_cast) — total ≤ 2^32, fits usize.
                seq[global as usize] += 1;
            }
            f(update);
        };
        for global in 0..total {
            emit(global, &mut seq, &mut f);
        }
        if self.extra_updates == 0 {
            return;
        }
        #[allow(clippy::cast_possible_truncation)]
        // dhs-lint: allow(lossy_cast) — total ≤ 2^32, fits usize.
        let zipf = Zipf::new(total as usize, self.theta);
        for _ in 0..self.extra_updates {
            let global = (zipf.sample(rng) - 1) as u64;
            emit(global, &mut seq, &mut f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small() -> TenantWorkload {
        TenantWorkload {
            tenants: 4,
            metrics_per_tenant: 8,
            theta: 0.7,
            extra_updates: 500,
        }
    }

    #[test]
    fn registration_pass_covers_every_metric() {
        let w = small();
        let mut seen = std::collections::BTreeSet::new();
        let mut count = 0u64;
        w.visit(&mut StdRng::seed_from_u64(1), |u| {
            seen.insert((u.tenant, u.metric));
            count += 1;
        });
        assert_eq!(seen.len() as u64, w.total_metrics());
        assert_eq!(count, w.total_updates());
    }

    #[test]
    fn item_keys_are_unique() {
        let w = small();
        let mut items = std::collections::BTreeSet::new();
        w.visit(&mut StdRng::seed_from_u64(2), |u| {
            assert!(items.insert(u.item), "duplicate item {:#x}", u.item);
        });
    }

    #[test]
    fn stream_is_deterministic() {
        let w = small();
        let collect = |seed: u64| {
            let mut v = Vec::new();
            w.visit(&mut StdRng::seed_from_u64(seed), |u| v.push(u));
            v
        };
        assert_eq!(collect(3), collect(3));
        assert_ne!(collect(3), collect(4), "different seeds diverge");
    }

    #[test]
    fn zipf_pass_skews_to_head_metrics() {
        let w = TenantWorkload {
            tenants: 1,
            metrics_per_tenant: 1_000,
            theta: 0.9,
            extra_updates: 20_000,
        };
        let mut counts = vec![0u64; 1_000];
        w.visit(&mut StdRng::seed_from_u64(5), |u| {
            counts[usize::from(u.metric)] += 1;
        });
        let head: u64 = counts[..10].iter().sum();
        let tail: u64 = counts[990..].iter().sum();
        assert!(
            head > 10 * tail,
            "head {head} should dwarf tail {tail} at θ = 0.9"
        );
    }

    #[test]
    fn validation_rejects_overflowing_dimensions() {
        let mut w = small();
        w.tenants = (1 << 16) + 1;
        assert!(w.validate().is_err());
        w.tenants = 0;
        assert!(w.validate().is_err());
    }
}
