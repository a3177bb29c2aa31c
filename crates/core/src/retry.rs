//! The retry analysis of §4.1 (paper eq. 5 and eq. 6).
//!
//! Probing an interval is sampling bins without replacement: with `n′`
//! items uniformly spread over `N′` nodes, the probability that the first
//! `t` probes all land on empty nodes is
//!
//! ```text
//! P(X = t) = ((N′ − t) / N′)^{n′}                                (eq. 5)
//! ```
//!
//! Solving for the probe budget that finds a non-empty node with
//! probability at least `p` — and accounting for `m` bitmaps (items split
//! across vectors) and replication degree `R` (each tuple on `R` nodes) —
//! gives
//!
//! ```text
//! lim_m^R = ⌈N′ · (1 − (1−p)^{m / (R·α·N′)})⌉,   α = n′/N′        (eq. 6)
//! ```
//!
//! **Note on the paper's printed formula.** The paper prints the base of
//! the exponent as `p`, but solving its own eq. 5 for
//! `P(X = t) ≤ 1 − p` gives `1 − p` (the target *miss* probability).
//! The corrected form also reproduces the paper's headline claim exactly:
//! with `p = 0.99` and `n′ = m·N′` (one item per vector per node),
//! `lim = ⌈N′·(1 − 0.01^{1/N′})⌉ = 5` for `N′ = 512` — the paper's
//! default; the printed form would give 1 instead. We implement the
//! corrected formula.
//!
//! The paper's default `lim = 5` thus guarantees `p ≥ 0.99` whenever the
//! items-to-nodes ratio per interval is at least `m` (i.e. `n ≥ m·N`).

/// Exponential backoff schedule for transport-level retries: attempt
/// `i` (0-based) waits `base · 2^i` virtual ticks, capped at `cap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the first retry, in virtual ticks.
    pub base: u64,
    /// Upper bound on any single delay.
    pub cap: u64,
}

impl Backoff {
    /// The delay before retry number `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> u64 {
        let shift = attempt.min(32);
        self.base.saturating_mul(1u64 << shift).min(self.cap)
    }
}

/// How a DHS operation retries a timed-out message exchange. This is the
/// *network-failure* retry (re-sending the same message), orthogonal to
/// the paper's `lim` probe budget (trying a *different* node, §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total send attempts per exchange (≥ 1; 1 = no retries).
    pub attempts: u32,
    /// Backoff between attempts.
    pub backoff: Backoff,
}

impl RetryPolicy {
    /// No retries: one attempt, fail fast.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            backoff: Backoff { base: 0, cap: 0 },
        }
    }

    /// `attempts` tries with exponential backoff from `base` ticks,
    /// capped at `cap` ticks per wait.
    pub fn new(attempts: u32, base: u64, cap: u64) -> Self {
        assert!(attempts >= 1, "a policy needs at least one attempt");
        RetryPolicy {
            attempts,
            backoff: Backoff { base, cap },
        }
    }
}

/// Eq. 5: probability that `t` uniformly chosen distinct nodes out of
/// `n_nodes` are all empty, after `items` items were placed uniformly.
pub fn prob_t_empty_probes(items: u64, n_nodes: u64, t: u64) -> f64 {
    assert!(n_nodes > 0);
    if t >= n_nodes {
        // More probes than nodes: if anything is stored, we must hit it.
        return if items == 0 { 1.0 } else { 0.0 };
    }
    ((n_nodes - t) as f64 / n_nodes as f64).powf(items as f64)
}

/// Eq. 6: the probe budget needed to find a non-empty node with
/// probability ≥ `p`, when counting with `m` bitmaps and replication `R`.
///
/// `items` is the number of items mapped to the interval (*all* vectors
/// together, matching the paper's `n′`); `n_nodes` the nodes inside it.
/// Returns at least 1.
#[expect(
    clippy::cast_possible_truncation,
    reason = "float→int: lim is a probe count derived from n_nodes ≤ 2^32 and already ceil()ed; saturation at u32::MAX would still mean \"probe every node\""
)]
pub fn required_lim(p: f64, items: u64, n_nodes: u64, m: usize, replication: u32) -> u32 {
    assert!((0.0..1.0).contains(&p), "p must be in [0, 1)");
    assert!(n_nodes > 0 && m > 0 && replication > 0);
    if items == 0 {
        return 1; // nothing to find; one probe concludes "empty"
    }
    // Effective per-vector, replication-boosted item count; the base is
    // the target miss probability 1 − p (see the module docs on the
    // paper's typo).
    let exponent = m as f64 / (f64::from(replication) * items as f64);
    let lim = (n_nodes as f64 * (1.0 - (1.0 - p).powf(exponent))).ceil();
    (lim as u32).max(1)
}

/// The probability that `lim` probes find a non-empty node, for the same
/// parameters as [`required_lim`] — the forward direction, used by tests
/// and the ablation bench.
pub fn hit_probability(lim: u32, items: u64, n_nodes: u64, m: usize, replication: u32) -> f64 {
    assert!(n_nodes > 0 && m > 0 && replication > 0);
    if items == 0 {
        return 0.0;
    }
    let effective_items = items as f64 * f64::from(replication) / m as f64;
    let t = u64::from(lim).min(n_nodes);
    if t >= n_nodes {
        return 1.0;
    }
    1.0 - ((n_nodes - t) as f64 / n_nodes as f64).powf(effective_items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq5_basic_shapes() {
        // No items: all probes are empty with certainty.
        assert_eq!(prob_t_empty_probes(0, 10, 3), 1.0);
        // Zero probes: vacuously all-empty.
        assert_eq!(prob_t_empty_probes(100, 10, 0), 1.0);
        // Probing every node: must find something.
        assert_eq!(prob_t_empty_probes(100, 10, 10), 0.0);
        // Monotone decreasing in t and in items.
        let p1 = prob_t_empty_probes(50, 100, 1);
        let p2 = prob_t_empty_probes(50, 100, 2);
        assert!(p2 < p1);
        let q = prob_t_empty_probes(500, 100, 1);
        assert!(q < p1);
    }

    #[test]
    fn eq5_matches_closed_form() {
        // ((N−t)/N)^n exactly.
        let p = prob_t_empty_probes(3, 4, 1);
        assert!((p - (0.75f64).powi(3)).abs() < 1e-12);
    }

    #[test]
    fn default_lim_suffices_in_dense_regime() {
        // Paper: lim = 5 gives p ≥ 0.99 whenever items ≥ m · nodes.
        // Interval of 512 nodes, m = 512, items = m·nodes:
        let nodes = 512u64;
        let m = 512usize;
        let items = m as u64 * nodes;
        let lim = required_lim(0.99, items, nodes, m, 1);
        // The corrected eq. 6 reproduces the paper's default exactly.
        assert_eq!(lim, 5);
        assert!(hit_probability(5, items, nodes, m, 1) >= 0.99);
    }

    #[test]
    fn sparse_regime_needs_more_probes() {
        // items per vector ≪ nodes ⇒ lim grows toward the interval size.
        let nodes = 512u64;
        let m = 512usize;
        let items = 512u64; // one item per vector over 512 nodes
        let lim = required_lim(0.99, items, nodes, m, 1);
        assert!(lim > 5, "lim = {lim}");
        assert!(hit_probability(5, items, nodes, m, 1) < 0.99);
    }

    #[test]
    fn replication_reduces_required_lim() {
        let nodes = 256u64;
        let m = 256usize;
        let items = 2_048u64;
        let without = required_lim(0.99, items, nodes, m, 1);
        let with = required_lim(0.99, items, nodes, m, 4);
        assert!(with < without, "{with} !< {without}");
        assert!(
            hit_probability(with, items, nodes, m, 4) >= hit_probability(with, items, nodes, m, 1)
        );
    }

    #[test]
    fn required_lim_and_hit_probability_are_inverse() {
        for (items, nodes, m, r) in [
            (10_000u64, 128u64, 64usize, 1u32),
            (1_000, 512, 512, 2),
            (100_000, 64, 16, 1),
        ] {
            let lim = required_lim(0.95, items, nodes, m, r);
            let p = hit_probability(lim, items, nodes, m, r);
            assert!(p >= 0.95 - 1e-9, "p = {p} at lim = {lim}");
            if lim > 1 {
                let p_less = hit_probability(lim - 1, items, nodes, m, r);
                assert!(p_less < 0.95 + 1e-9, "lim not minimal: {p_less}");
            }
        }
    }

    #[test]
    fn empty_interval_edge_cases() {
        assert_eq!(required_lim(0.99, 0, 100, 512, 1), 1);
        assert_eq!(hit_probability(5, 0, 100, 512, 1), 0.0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let b = Backoff { base: 10, cap: 55 };
        assert_eq!(b.delay(0), 10);
        assert_eq!(b.delay(1), 20);
        assert_eq!(b.delay(2), 40);
        assert_eq!(b.delay(3), 55, "capped");
        assert_eq!(b.delay(60), 55, "shift saturates, no overflow");
        let z = Backoff { base: 0, cap: 0 };
        assert_eq!(z.delay(5), 0);
    }

    #[test]
    fn retry_policy_constructors() {
        assert_eq!(RetryPolicy::none().attempts, 1);
        let p = RetryPolicy::new(3, 100, 1_000);
        assert_eq!(p.attempts, 3);
        assert_eq!(p.backoff.delay(0), 100);
    }

    #[test]
    fn backoff_exact_schedule() {
        // Doubling multiplier from `base`, capped at `cap`: enumerate the
        // full schedule a 6-attempt policy would use (5 waits).
        let p = RetryPolicy::new(6, 50, 400);
        let schedule: Vec<u64> = (0..p.attempts - 1).map(|i| p.backoff.delay(i)).collect();
        assert_eq!(schedule, vec![50, 100, 200, 400, 400]);
        // The total wall-clock wait of a fully failing exchange.
        assert_eq!(schedule.iter().sum::<u64>(), 1_150);
        // An uncapped-looking policy still saturates instead of overflowing.
        let wide = Backoff {
            base: u64::MAX,
            cap: u64::MAX,
        };
        assert_eq!(wide.delay(1), u64::MAX, "saturating multiply");
    }

    #[test]
    fn policy_gives_up_after_configured_attempts_with_ledger_charges() {
        use crate::transport::{with_retry, MessageKind, Transport, TransportError};
        use dhs_dht::cost::CostLedger;

        /// A transport where every send reaches the wire (and is charged)
        /// but no reply ever comes back.
        struct BlackHole {
            calls: u32,
            paused: u64,
            policy: RetryPolicy,
        }
        impl Transport for BlackHole {
            fn routed_exchange(
                &mut self,
                _: u64,
                _: u64,
                hops: u64,
                kind: MessageKind,
                request_bytes: u64,
                _: u64,
                ledger: &mut CostLedger,
            ) -> Result<(), TransportError> {
                self.calls += 1;
                ledger.charge_message(0);
                ledger.charge_bytes(request_bytes * hops);
                ledger.record_drop();
                Err(TransportError::Timeout { kind, waited: 400 })
            }
            fn exchange(
                &mut self,
                _: u64,
                _: u64,
                kind: MessageKind,
                request_bytes: u64,
                _: u64,
                ledger: &mut CostLedger,
            ) -> Result<(), TransportError> {
                self.calls += 1;
                ledger.charge_message(request_bytes);
                ledger.record_drop();
                Err(TransportError::Timeout { kind, waited: 400 })
            }
            fn pause(&mut self, ticks: u64) {
                self.paused += ticks;
            }
            fn now(&self) -> u64 {
                0
            }
            fn retry_policy(&self) -> RetryPolicy {
                self.policy
            }
        }

        let policy = RetryPolicy::new(4, 25, 1_000);
        let mut t = BlackHole {
            calls: 0,
            paused: 0,
            policy,
        };
        let mut ledger = CostLedger::new();
        let out = with_retry(&mut t, |t| {
            t.exchange(1, 2, MessageKind::Probe, 16, 72, &mut ledger)
        });
        assert!(
            matches!(out, Err(TransportError::Timeout { .. })),
            "the policy must give up with the last timeout"
        );
        assert_eq!(t.calls, policy.attempts, "exactly `attempts` sends");
        // Every failed attempt still charged its wire traffic.
        assert_eq!(ledger.messages(), u64::from(policy.attempts));
        assert_eq!(ledger.bytes(), 16 * u64::from(policy.attempts));
        assert_eq!(ledger.dropped_messages(), u64::from(policy.attempts));
        // Waits follow the backoff schedule between attempts: 25+50+100.
        assert_eq!(t.paused, 175);

        // attempts = 1 means fail-fast: one send, no pausing.
        let mut t = BlackHole {
            calls: 0,
            paused: 0,
            policy: RetryPolicy::none(),
        };
        let mut ledger = CostLedger::new();
        let out = with_retry(&mut t, |t| {
            t.routed_exchange(1, 2, 3, MessageKind::Store, 8, 0, &mut ledger)
        });
        assert!(out.is_err());
        assert_eq!(t.calls, 1);
        assert_eq!(t.paused, 0);
        assert_eq!(ledger.bytes(), 24, "request bytes across 3 hops");
    }
}
