//! Cost accounting.
//!
//! Every quantity the paper's tables report — routing hops, nodes visited,
//! bandwidth, per-node access load — is charged into a [`CostLedger`] by
//! the operation that incurs it. Experiments read ledgers; nothing is ever
//! hand-computed, so the reported numbers are the simulated numbers by
//! construction.
//!
//! Visits are counted in a `VisitTable`: an open-addressing table keyed
//! by a fixed SplitMix64 mix of the node id, so a routing hop costs one
//! probe instead of an ordered-tree insert. Node-id order is produced
//! only where a reader needs it — [`CostLedger::visits`] sorts on the
//! way out — and no report or digest reads the table's slot order.

use dhs_sketch::SplitMix64;

/// Accumulates the cost of a (sequence of) distributed operation(s).
#[derive(Debug, Clone, Default)]
pub struct CostLedger {
    hops: u64,
    messages: u64,
    bytes: u64,
    /// Total virtual network latency of delivered messages, in transport
    /// ticks (0 under instantaneous delivery).
    latency_ticks: u64,
    /// Messages that never reached their destination (loss, crash,
    /// partition — charged by simulated transports).
    dropped_messages: u64,
    /// Distinct-node visit counts: node id → number of times a message
    /// was delivered to it.
    visits: VisitTable,
    /// Every `record_visit`, in call order: lets the crate's unit tests
    /// check the order of a route's hops, which the counts do not show.
    #[cfg(test)]
    pub(crate) visit_log: Vec<u64>,
}

impl CostLedger {
    /// A fresh, empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total routing hops charged.
    pub fn hops(&self) -> u64 {
        self.hops
    }

    /// Total messages charged.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total bytes charged.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total virtual network latency of delivered messages, in ticks.
    pub fn latency_ticks(&self) -> u64 {
        self.latency_ticks
    }

    /// Messages charged as dropped (never delivered).
    pub fn dropped_messages(&self) -> u64 {
        self.dropped_messages
    }

    /// Number of *distinct* nodes that received at least one message.
    pub fn nodes_visited(&self) -> usize {
        self.visits.len
    }

    /// Visit count for a specific node (0 if never visited).
    pub fn visits_to(&self, node: u64) -> u64 {
        self.visits.get(node)
    }

    /// All `(node, count)` visit pairs in node-id order. The table keeps
    /// no order of its own; each call sorts its live entries, so reports
    /// and snapshot digests built by iterating this are byte-stable.
    pub fn visits(&self) -> impl Iterator<Item = (&u64, &u64)> {
        let mut entries: Vec<&(u64, u64)> = self.visits.entries().collect();
        entries.sort_unstable_by_key(|&&(node, _)| node);
        entries.into_iter().map(|(node, count)| (node, count))
    }

    /// Charge `n` routing hops.
    pub fn charge_hops(&mut self, n: u64) {
        self.hops += n;
    }

    /// Charge one message of `size` bytes (does not imply a hop; routed
    /// messages charge hops separately per routing step).
    pub fn charge_message(&mut self, size_bytes: u64) {
        self.messages += 1;
        self.bytes += size_bytes;
    }

    /// Charge raw bytes (e.g. payload carried across several hops).
    pub fn charge_bytes(&mut self, n: u64) {
        self.bytes += n;
    }

    /// Charge virtual latency for a delivered message.
    pub fn charge_latency(&mut self, ticks: u64) {
        self.latency_ticks += ticks;
    }

    /// Record a message that was sent but never delivered.
    pub fn record_drop(&mut self) {
        self.dropped_messages += 1;
    }

    /// Record a message delivery to `node`.
    pub fn record_visit(&mut self, node: u64) {
        self.visits.add(node, 1);
        #[cfg(test)]
        self.visit_log.push(node);
    }

    /// Fold another ledger into this one (for aggregating per-operation
    /// ledgers into an experiment total).
    pub fn absorb(&mut self, other: &CostLedger) {
        self.hops += other.hops;
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.latency_ticks += other.latency_ticks;
        self.dropped_messages += other.dropped_messages;
        // Per-node sums do not depend on the order they are added in.
        for &(node, count) in other.visits.entries() {
            self.visits.add(node, count);
        }
    }

    /// Load-balance summary over the visit counts. Needs no node order:
    /// [`LoadSummary::from_counts`] sorts the counts themselves.
    pub fn load_summary(&self) -> LoadSummary {
        LoadSummary::from_counts(self.visits.entries().map(|&(_, count)| count))
    }
}

/// Per-node visit counts: linear probing over a power-of-two array of
/// `(node, count)` slots, at most 3/4 full. A count of 0 marks an empty
/// slot (every stored node has been visited at least once). The probe
/// start is a fixed SplitMix64 finalizer of the node id — no per-process
/// hash seed — so the layout is itself a pure function of the visits.
#[derive(Debug, Clone, Default)]
struct VisitTable {
    slots: Vec<(u64, u64)>,
    len: usize,
}

impl VisitTable {
    /// Slot at which the probe for `node` starts.
    fn home(&self, node: u64) -> usize {
        // The mask keeps the value below the slot count, so it fits.
        let mask = self.slots.len() as u64 - 1;
        usize::try_from(SplitMix64::mix(node) & mask).unwrap_or_default()
    }

    /// The slot holding `node`, or the empty slot where it would go.
    fn find(&self, node: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(node);
        while self.slots[i].1 != 0 && self.slots[i].0 != node {
            i = (i + 1) & mask;
        }
        i
    }

    fn get(&self, node: u64) -> u64 {
        if self.slots.is_empty() {
            return 0;
        }
        self.slots[self.find(node)].1
    }

    /// Add `count ≥ 1` visits to `node`.
    fn add(&mut self, node: u64, count: u64) {
        if 4 * (self.len + 1) > 3 * self.slots.len() {
            self.grow();
        }
        let i = self.find(node);
        let slot = &mut self.slots[i];
        if slot.1 == 0 {
            slot.0 = node;
            self.len += 1;
        }
        slot.1 += count;
    }

    fn grow(&mut self) {
        let capacity = (2 * self.slots.len()).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); capacity]);
        for (node, count) in old {
            if count != 0 {
                let i = self.find(node);
                self.slots[i] = (node, count);
            }
        }
    }

    /// The occupied slots, in table order.
    fn entries(&self) -> impl Iterator<Item = &(u64, u64)> {
        self.slots.iter().filter(|&&(_, count)| count != 0)
    }
}

/// Summary statistics of a load distribution (visit or storage counts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSummary {
    /// Number of loaded entities.
    pub count: usize,
    /// Smallest load.
    pub min: u64,
    /// Largest load.
    pub max: u64,
    /// Mean load.
    pub mean: f64,
    /// Gini coefficient in `[0, 1]`: 0 = perfectly balanced.
    pub gini: f64,
}

impl LoadSummary {
    /// Compute a summary from raw per-entity load counts.
    #[expect(
        clippy::expect_used,
        reason = "invariant: guarded by the is_empty check above"
    )]
    pub fn from_counts(counts: impl IntoIterator<Item = u64>) -> Self {
        let mut v: Vec<u64> = counts.into_iter().collect();
        if v.is_empty() {
            return LoadSummary {
                count: 0,
                min: 0,
                max: 0,
                mean: 0.0,
                gini: 0.0,
            };
        }
        v.sort_unstable();
        let n = v.len() as f64;
        let total: u64 = v.iter().sum();
        let mean = total as f64 / n;
        // Gini via the sorted-rank formula:
        // G = (2·Σ i·x_i) / (n·Σ x_i) − (n+1)/n, with i starting at 1.
        let gini = if total == 0 {
            0.0
        } else {
            let weighted: f64 = v
                .iter()
                .enumerate()
                .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
                .sum();
            (2.0 * weighted) / (n * total as f64) - (n + 1.0) / n
        };
        LoadSummary {
            count: v.len(),
            min: v[0],
            max: *v.last().expect("non-empty"),
            mean,
            gini,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates() {
        let mut ledger = CostLedger::new();
        ledger.charge_hops(3);
        ledger.charge_message(100);
        ledger.charge_message(28);
        ledger.charge_bytes(10);
        assert_eq!(ledger.hops(), 3);
        assert_eq!(ledger.messages(), 2);
        assert_eq!(ledger.bytes(), 138);
    }

    #[test]
    fn latency_and_drops_accumulate_and_absorb() {
        let mut a = CostLedger::new();
        a.charge_latency(25);
        a.record_drop();
        let mut b = CostLedger::new();
        b.charge_latency(5);
        b.record_drop();
        b.record_drop();
        a.absorb(&b);
        assert_eq!(a.latency_ticks(), 30);
        assert_eq!(a.dropped_messages(), 3);
    }

    #[test]
    fn visits_count_distinct_nodes() {
        let mut ledger = CostLedger::new();
        ledger.record_visit(1);
        ledger.record_visit(2);
        ledger.record_visit(1);
        assert_eq!(ledger.nodes_visited(), 2);
        assert_eq!(ledger.visits_to(1), 2);
        assert_eq!(ledger.visits_to(2), 1);
        assert_eq!(ledger.visits_to(99), 0);
    }

    #[test]
    fn absorb_merges() {
        let mut a = CostLedger::new();
        a.charge_hops(1);
        a.record_visit(7);
        let mut b = CostLedger::new();
        b.charge_hops(2);
        b.charge_message(5);
        b.record_visit(7);
        b.record_visit(8);
        a.absorb(&b);
        assert_eq!(a.hops(), 3);
        assert_eq!(a.messages(), 1);
        assert_eq!(a.bytes(), 5);
        assert_eq!(a.nodes_visited(), 2);
        assert_eq!(a.visits_to(7), 2);
    }

    #[test]
    fn gini_of_uniform_is_zero() {
        let s = LoadSummary::from_counts([5u64, 5, 5, 5]);
        assert!(s.gini.abs() < 1e-12);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 5);
        assert_eq!(s.mean, 5.0);
    }

    #[test]
    fn gini_of_concentrated_is_high() {
        // All load on one of many entities → G → (n−1)/n.
        let mut counts = vec![0u64; 99];
        counts.push(1000);
        let s = LoadSummary::from_counts(counts);
        assert!(s.gini > 0.98, "gini = {}", s.gini);
    }

    #[test]
    fn gini_handles_empty_and_zero() {
        assert_eq!(LoadSummary::from_counts(std::iter::empty()).gini, 0.0);
        assert_eq!(LoadSummary::from_counts([0u64, 0, 0]).gini, 0.0);
    }
}
