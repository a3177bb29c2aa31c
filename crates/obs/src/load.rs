//! Per-node / per-bit-interval load monitor.
//!
//! The paper's load-balance claim (Alg. 1): interval `I_r = [thr(r), thr(r-1))`
//! holds a `2^{-(r+1)}` fraction of the node population and receives a
//! `2^{-(r+1)}` fraction of sketch-bit traffic, so per-node load is flat
//! across intervals. The monitor buckets every *delivered* message by the
//! interval owning the destination ID and exposes that claim as a live
//! Gini / max-min summary instead of a post-hoc table.

use std::collections::BTreeMap;

/// Per-interval and per-node message-delivery accounting.
#[derive(Debug, Clone)]
pub struct LoadMonitor {
    intervals: Vec<u64>,
    nodes: BTreeMap<u64, u64>,
}

/// Min/max/mean/Gini summary over a set of load counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadStats {
    /// Number of counts summarized.
    pub count: usize,
    /// Smallest count.
    pub min: u64,
    /// Largest count.
    pub max: u64,
    /// Mean count.
    pub mean: f64,
    /// Gini coefficient in `[0, 1)`; 0 is perfectly flat.
    pub gini: f64,
}

impl LoadStats {
    /// Summarize `counts` (empty input yields all-zero stats).
    pub fn from_counts(counts: &[u64]) -> Self {
        if counts.is_empty() {
            return LoadStats {
                count: 0,
                min: 0,
                max: 0,
                mean: 0.0,
                gini: 0.0,
            };
        }
        let mut sorted = counts.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let total: u64 = sorted.iter().sum();
        let mean = total as f64 / n as f64;
        let gini = if total == 0 {
            0.0
        } else {
            let weighted: f64 = sorted
                .iter()
                .enumerate()
                .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
                .sum();
            (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
        };
        LoadStats {
            count: n,
            min: sorted[0],
            max: sorted[n - 1],
            mean,
            gini,
        }
    }

    /// `max / mean`, the paper-style skew figure (0 if nothing recorded).
    pub fn max_over_mean(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.max as f64 / self.mean
        }
    }
}

impl LoadMonitor {
    /// A monitor over `num_intervals` bit intervals (one per scanned sketch
    /// bit; the last interval is the catch-all for all remaining IDs).
    pub fn new(num_intervals: usize) -> Self {
        LoadMonitor {
            intervals: vec![0; num_intervals.max(1)],
            nodes: BTreeMap::new(),
        }
    }

    /// Index of the interval owning `id`: interval `i` covers IDs whose
    /// binary form starts with `i` zero bits, i.e. `[2^(63-i), 2^(64-i))`,
    /// clamped so the last interval absorbs the tail.
    pub fn interval_of(&self, id: u64) -> usize {
        (id.leading_zeros() as usize).min(self.intervals.len() - 1)
    }

    /// Record one delivered message addressed to node `dst`.
    pub fn record(&mut self, dst: u64) {
        let idx = self.interval_of(dst);
        self.intervals[idx] += 1;
        *self.nodes.entry(dst).or_insert(0) += 1;
    }

    /// Deliveries per interval, in interval order.
    pub fn interval_loads(&self) -> &[u64] {
        &self.intervals
    }

    /// Deliveries per destination node, in node-id order.
    pub fn node_loads(&self) -> &BTreeMap<u64, u64> {
        &self.nodes
    }

    /// Total deliveries recorded.
    pub fn total(&self) -> u64 {
        self.intervals.iter().sum()
    }

    /// Expected fraction of traffic for interval `i` under the paper's
    /// geometric bit distribution: `2^{-(i+1)}`, with the last (catch-all)
    /// interval taking the remaining `2^{-(n-1)}`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "an interval count, at most 65"
    )]
    pub fn expected_share(&self, i: usize) -> f64 {
        let n = self.intervals.len();
        if i + 1 == n {
            (2.0f64).powi(-(n as i32 - 1))
        } else {
            (2.0f64).powi(-(i as i32 + 1))
        }
    }

    /// Skew summary over per-node loads for a known `population` of nodes:
    /// nodes never visited count as zero load.
    pub fn node_stats(&self, population: &[u64]) -> LoadStats {
        let counts: Vec<u64> = population
            .iter()
            .map(|id| self.nodes.get(id).copied().unwrap_or(0))
            .collect();
        LoadStats::from_counts(&counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_of_buckets_by_leading_zeros() {
        let m = LoadMonitor::new(4);
        assert_eq!(m.interval_of(u64::MAX), 0); // 0 leading zeros
        assert_eq!(m.interval_of(1u64 << 63), 0);
        assert_eq!(m.interval_of(1u64 << 62), 1);
        assert_eq!(m.interval_of(1u64 << 61), 2);
        assert_eq!(m.interval_of(1), 3); // clamped to last
        assert_eq!(m.interval_of(0), 3);
    }

    #[test]
    fn record_counts_intervals_and_nodes() {
        let mut m = LoadMonitor::new(4);
        m.record(u64::MAX);
        m.record(u64::MAX);
        m.record(1u64 << 62);
        assert_eq!(m.interval_loads(), &[2, 1, 0, 0]);
        assert_eq!(m.total(), 3);
        assert_eq!(m.node_loads().get(&u64::MAX), Some(&2));
    }

    #[test]
    fn expected_shares_sum_to_one() {
        let m = LoadMonitor::new(24);
        let sum: f64 = (0..24).map(|i| m.expected_share(i)).sum();
        assert!((sum - 1.0).abs() < 1e-12, "sum = {sum}");
    }

    #[test]
    fn gini_zero_for_flat_loads() {
        let s = LoadStats::from_counts(&[5, 5, 5, 5]);
        assert!(s.gini.abs() < 1e-12);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 5);
    }

    #[test]
    fn gini_high_for_concentrated_loads() {
        let s = LoadStats::from_counts(&[0, 0, 0, 100]);
        assert!(s.gini > 0.7, "gini = {}", s.gini);
        assert_eq!(s.max, 100);
    }

    #[test]
    fn node_stats_pads_unvisited_nodes() {
        let mut m = LoadMonitor::new(4);
        m.record(10);
        let s = m.node_stats(&[10, 20, 30]);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1);
    }
}
