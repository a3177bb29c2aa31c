//! Per-message telemetry.
//!
//! Every message copy the simulator puts on the wire — request, reply,
//! duplicate — leaves one [`MessageRecord`]. The full trace serializes
//! to bytes ([`NetTelemetry::trace_bytes`]), so "same seed ⇒ same
//! simulation" is checkable as byte equality (or via the FNV-1a
//! [`NetTelemetry::digest`]), not just as equal summary counters.

use dhs_core::transport::MessageKind;

/// Why a message copy never reached its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Random per-leg loss.
    Loss,
    /// The destination was inside a crash window.
    Crash,
    /// Sender and receiver were on opposite sides of a partition.
    Partition,
}

impl DropReason {
    fn tag(self) -> u8 {
        match self {
            DropReason::Loss => 1,
            DropReason::Crash => 2,
            DropReason::Partition => 3,
        }
    }
}

/// Final state of one message copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Scheduled but not yet past its delivery tick (duplicates whose
    /// arrival lies beyond the last clock advance).
    InFlight,
    /// Arrived at the destination at the given tick.
    Delivered {
        /// Arrival tick.
        at: u64,
    },
    /// Never arrived.
    Dropped {
        /// What killed it.
        reason: DropReason,
    },
}

/// One message copy on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageRecord {
    /// Global send sequence number (total order of sends).
    pub seq: u64,
    /// Protocol message type.
    pub kind: MessageKind,
    /// Reply leg of an exchange (vs request leg).
    pub reply: bool,
    /// Fault-injected duplicate copy.
    pub duplicate: bool,
    /// Sender node.
    pub src: u64,
    /// Destination node.
    pub dst: u64,
    /// Wire bytes of this copy (payload × legs for routed messages).
    pub bytes: u64,
    /// Network legs traversed end-to-end (≥ 1; routed sends have one per
    /// routing hop).
    pub legs: u64,
    /// Send tick.
    pub sent_at: u64,
    /// What became of it.
    pub outcome: Outcome,
}

impl MessageRecord {
    fn serialize_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.push(self.kind.tag());
        out.push(u8::from(self.reply) | (u8::from(self.duplicate) << 1));
        out.extend_from_slice(&self.src.to_le_bytes());
        out.extend_from_slice(&self.dst.to_le_bytes());
        out.extend_from_slice(&self.bytes.to_le_bytes());
        out.extend_from_slice(&self.legs.to_le_bytes());
        out.extend_from_slice(&self.sent_at.to_le_bytes());
        match self.outcome {
            Outcome::InFlight => out.push(0),
            Outcome::Delivered { at } => {
                out.push(1);
                out.extend_from_slice(&at.to_le_bytes());
            }
            Outcome::Dropped { reason } => {
                out.push(2);
                out.push(reason.tag());
            }
        }
    }
}

/// The accumulated message trace of one simulated scenario.
#[derive(Debug, Clone, Default)]
pub struct NetTelemetry {
    records: Vec<MessageRecord>,
}

impl NetTelemetry {
    /// All records, in send order.
    pub fn records(&self) -> &[MessageRecord] {
        &self.records
    }

    pub(crate) fn push(&mut self, record: MessageRecord) -> usize {
        self.records.push(record);
        self.records.len() - 1
    }

    pub(crate) fn set_outcome(&mut self, idx: usize, outcome: Outcome) {
        self.records[idx].outcome = outcome;
    }

    /// Total message copies sent.
    pub fn sent(&self) -> u64 {
        self.records.len() as u64
    }

    /// Copies that arrived.
    pub fn delivered(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Delivered { .. }))
            .count() as u64
    }

    /// Copies that were dropped (any reason).
    pub fn dropped(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Dropped { .. }))
            .count() as u64
    }

    /// Copies dropped for a specific reason.
    pub fn dropped_by(&self, reason: DropReason) -> u64 {
        self.records
            .iter()
            .filter(|r| r.outcome == Outcome::Dropped { reason })
            .count() as u64
    }

    /// Fault-injected duplicate copies.
    pub fn duplicates(&self) -> u64 {
        self.records.iter().filter(|r| r.duplicate).count() as u64
    }

    /// Mean end-to-end latency of delivered copies, in ticks.
    pub fn mean_latency(&self) -> f64 {
        let (mut sum, mut n) = (0u64, 0u64);
        for r in &self.records {
            if let Outcome::Delivered { at } = r.outcome {
                sum += at - r.sent_at;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Delivered pairs that arrived in the opposite order they were sent
    /// — direct evidence of reordering. Quadratic; telemetry analysis is
    /// off the simulation's hot path.
    pub fn delivery_inversions(&self) -> u64 {
        let delivered: Vec<(u64, u64)> = self
            .records
            .iter()
            .filter_map(|r| match r.outcome {
                Outcome::Delivered { at } => Some((r.seq, at)),
                _ => None,
            })
            .collect();
        let mut inversions = 0;
        for (i, &(seq_a, at_a)) in delivered.iter().enumerate() {
            for &(seq_b, at_b) in &delivered[i + 1..] {
                if (seq_a < seq_b) != (at_a <= at_b) {
                    inversions += 1;
                }
            }
        }
        inversions
    }

    /// The full trace as a flat byte string (fixed little-endian layout).
    pub fn trace_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.records.len() * 60);
        for r in &self.records {
            r.serialize_into(&mut out);
        }
        out
    }

    /// FNV-1a 64-bit digest of [`Self::trace_bytes`] — a compact
    /// fingerprint for determinism assertions.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in self.trace_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    /// Exact latency percentile (in ticks) over delivered copies, `q` in
    /// `[0, 1]`. Returns 0 when nothing was delivered.
    #[allow(clippy::cast_possible_truncation)]
    pub fn latency_percentile(&self, q: f64) -> u64 {
        let mut latencies: Vec<u64> = self
            .records
            .iter()
            .filter_map(|r| match r.outcome {
                Outcome::Delivered { at } => Some(at - r.sent_at),
                _ => None,
            })
            .collect();
        if latencies.is_empty() {
            return 0;
        }
        latencies.sort_unstable();
        // dhs-lint: allow(lossy_cast) — float→int: an index < latencies.len().
        let rank = ((latencies.len() - 1) as f64 * q.clamp(0.0, 1.0)).floor() as usize;
        latencies[rank]
    }

    /// A human-readable multi-line summary of the trace: delivered and
    /// dropped copies (by reason), duplicates, and the p50/p99 delivery
    /// latency in ticks.
    pub fn summary(&self) -> String {
        format!(
            "sent {}  delivered {}  dropped {} (loss {}, crash {}, partition {})  dup {}\n\
             delivery ticks: mean {:.1}  p50 {}  p99 {}",
            self.sent(),
            self.delivered(),
            self.dropped(),
            self.dropped_by(DropReason::Loss),
            self.dropped_by(DropReason::Crash),
            self.dropped_by(DropReason::Partition),
            self.duplicates(),
            self.mean_latency(),
            self.latency_percentile(0.50),
            self.latency_percentile(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, sent_at: u64, outcome: Outcome) -> MessageRecord {
        MessageRecord {
            seq,
            kind: MessageKind::Probe,
            reply: false,
            duplicate: false,
            src: 1,
            dst: 2,
            bytes: 16,
            legs: 1,
            sent_at,
            outcome,
        }
    }

    #[test]
    fn counters_partition_the_trace() {
        let mut t = NetTelemetry::default();
        t.push(rec(0, 0, Outcome::Delivered { at: 10 }));
        t.push(rec(
            1,
            5,
            Outcome::Dropped {
                reason: DropReason::Loss,
            },
        ));
        t.push(rec(2, 8, Outcome::InFlight));
        assert_eq!(t.sent(), 3);
        assert_eq!(t.delivered(), 1);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.dropped_by(DropReason::Loss), 1);
        assert_eq!(t.dropped_by(DropReason::Crash), 0);
        assert_eq!(t.mean_latency(), 10.0);
    }

    #[test]
    fn inversions_detect_overtaking() {
        let mut t = NetTelemetry::default();
        t.push(rec(0, 0, Outcome::Delivered { at: 50 }));
        t.push(rec(1, 1, Outcome::Delivered { at: 20 })); // overtook seq 0
        t.push(rec(2, 2, Outcome::Delivered { at: 60 }));
        assert_eq!(t.delivery_inversions(), 1);
    }

    #[test]
    fn summary_reports_percentiles_and_reasons() {
        let mut t = NetTelemetry::default();
        for (i, at) in [10u64, 20, 30, 40].iter().enumerate() {
            t.push(rec(i as u64, 0, Outcome::Delivered { at: *at }));
        }
        t.push(rec(
            4,
            0,
            Outcome::Dropped {
                reason: DropReason::Crash,
            },
        ));
        assert_eq!(t.latency_percentile(0.0), 10);
        assert_eq!(t.latency_percentile(0.5), 20);
        assert_eq!(t.latency_percentile(1.0), 40);
        let s = t.summary();
        assert!(s.contains("sent 5"), "{s}");
        assert!(s.contains("delivered 4"), "{s}");
        assert!(s.contains("crash 1"), "{s}");
        assert!(s.contains("p99 30"), "{s}");
        assert_eq!(NetTelemetry::default().latency_percentile(0.5), 0);
    }

    #[test]
    fn digest_is_sensitive_to_every_field() {
        let mut a = NetTelemetry::default();
        a.push(rec(0, 0, Outcome::Delivered { at: 10 }));
        let mut b = NetTelemetry::default();
        b.push(rec(0, 0, Outcome::Delivered { at: 11 }));
        assert_ne!(a.digest(), b.digest());
        let mut c = NetTelemetry::default();
        c.push(rec(0, 0, Outcome::Delivered { at: 10 }));
        assert_eq!(a.digest(), c.digest());
        assert_eq!(a.trace_bytes(), c.trace_bytes());
    }
}
