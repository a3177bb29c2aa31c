//! The DHS tuple `<metric_id, vector_id, bit, time_out>` (§3.2) and its
//! packing into the DHT's application-key space.
//!
//! A node in interval `I_r` stores *at most one* tuple per
//! `(metric, vector)` pair — re-insertions only refresh the timestamp —
//! so the application key is exactly the `(metric, vector, bit)` triple,
//! packed into a `u64`. The `time_out` lives in the stored record's
//! expiry field; the wire size of the whole tuple is configured by
//! [`crate::DhsConfig::TUPLE_BYTES`] (8 bytes in the paper's evaluation).

use crate::cast::checked_cast;

/// Identifier of an estimated metric (quantity). The paper's examples:
/// "the cardinality of the node population", "the number of distinct data
/// objects", "the number of tuples satisfying some predefined condition"
/// (one metric per histogram bucket).
pub type MetricId = u32;

/// The in-flight form of a DHS tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DhsTuple {
    /// Which metric this bit belongs to.
    pub metric: MetricId,
    /// Which bitmap vector (`0..m`).
    pub vector: u16,
    /// Which bit position (rank) is being set.
    pub bit: u8,
}

impl DhsTuple {
    /// Pack into the DHT application-key space.
    ///
    /// Layout (high → low): `metric:32 | vector:16 | bit:8`, leaving the
    /// top 8 bits zero. Injective for all valid field values.
    pub fn app_key(&self) -> u64 {
        (u64::from(self.metric) << 24) | (u64::from(self.vector) << 8) | u64::from(self.bit)
    }

    /// Inverse of [`app_key`](Self::app_key).
    pub fn from_app_key(key: u64) -> Self {
        // Each field is masked to its width first, so the narrowing is
        // infallible by construction; `checked_cast` keeps it audible.
        DhsTuple {
            metric: checked_cast((key >> 24) & 0xFFFF_FFFF),
            vector: checked_cast((key >> 8) & 0xFFFF),
            bit: checked_cast(key & 0xFF),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_key_roundtrips() {
        let cases = [
            DhsTuple {
                metric: 0,
                vector: 0,
                bit: 0,
            },
            DhsTuple {
                metric: u32::MAX,
                vector: u16::MAX,
                bit: u8::MAX,
            },
            DhsTuple {
                metric: 12345,
                vector: 511,
                bit: 14,
            },
        ];
        for t in cases {
            assert_eq!(DhsTuple::from_app_key(t.app_key()), t);
        }
    }

    #[test]
    fn app_key_is_injective_across_fields() {
        let a = DhsTuple {
            metric: 1,
            vector: 0,
            bit: 0,
        };
        let b = DhsTuple {
            metric: 0,
            vector: 1 << 8,
            bit: 0,
        };
        // metric 1 packs above vector bits; no aliasing.
        assert_ne!(a.app_key(), b.app_key());
        let c = DhsTuple {
            metric: 0,
            vector: 1,
            bit: 0,
        };
        let d = DhsTuple {
            metric: 0,
            vector: 0,
            bit: 255,
        };
        assert_ne!(c.app_key(), d.app_key());
    }
}
