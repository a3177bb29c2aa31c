//! Message byte sizes, derived from the DHS configuration and
//! `dhs-sketch`'s wire encodings.
//!
//! The simulator charges whatever byte sizes the core protocol hands it,
//! and those come from [`DhsConfig`] (tuples, requests, probe-reply
//! presence bitmaps). This module collects them in one place and adds
//! the one size the config cannot know: shipping a **whole serialized
//! sketch** ([`dhs_sketch::wire::WireSketch::encoded_size`]) — the
//! centralized alternative DHS exists to avoid, used by experiments as a
//! bandwidth baseline.

use dhs_core::{DhsConfig, EstimatorKind};
use dhs_sketch::wire::WireSketch;
use dhs_sketch::{HyperLogLog, Pcsa, SuperLogLog};

/// The byte sizes of every typed message the simulator carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageSizes {
    /// A routed lookup request (per hop).
    pub lookup_request: u64,
    /// A probe / successor-scan request.
    pub probe_request: u64,
    /// Fixed probe-reply header.
    pub probe_reply_header: u64,
    /// One stored tuple `<metric, vector, bit, time_out>`.
    pub tuple: u64,
    /// A full serialized sketch of the configured estimator family and
    /// `m` — what a "just send me your sketch" protocol would ship.
    pub sketch_snapshot: u64,
}

impl MessageSizes {
    /// Derive all sizes from a validated configuration.
    pub fn for_config(cfg: &DhsConfig) -> Self {
        let snapshot = match cfg.estimator {
            EstimatorKind::Pcsa => Pcsa::encoded_size(cfg.m),
            EstimatorKind::SuperLogLog => SuperLogLog::encoded_size(cfg.m),
            EstimatorKind::HyperLogLog => HyperLogLog::encoded_size(cfg.m),
        };
        MessageSizes {
            lookup_request: u64::from(DhsConfig::REQUEST_BYTES),
            probe_request: u64::from(DhsConfig::REQUEST_BYTES),
            probe_reply_header: u64::from(DhsConfig::RESPONSE_HEADER_BYTES),
            tuple: u64::from(DhsConfig::TUPLE_BYTES),
            sketch_snapshot: snapshot as u64,
        }
    }

    /// Probe reply carrying presence bits for `metrics` metrics
    /// (identical to [`DhsConfig::response_bytes`] by construction).
    pub fn probe_reply(&self, cfg: &DhsConfig, metrics: usize) -> u64 {
        cfg.response_bytes(metrics)
    }

    /// A store message carrying `tuples` tuples.
    pub fn store(&self, tuples: usize) -> u64 {
        self.tuple * tuples as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_config_and_sketch_wire() {
        let cfg = DhsConfig::default(); // m = 512, sLL
        let sizes = MessageSizes::for_config(&cfg);
        assert_eq!(sizes.lookup_request, 16);
        assert_eq!(sizes.tuple, 8);
        assert_eq!(sizes.store(3), 24);
        assert_eq!(sizes.probe_reply(&cfg, 2), cfg.response_bytes(2));
        // sLL wire format: 4-byte header + m registers.
        assert_eq!(sizes.sketch_snapshot, 4 + 512);
    }

    #[test]
    fn snapshot_tracks_estimator_family() {
        let pcsa = DhsConfig {
            estimator: EstimatorKind::Pcsa,
            ..DhsConfig::default()
        };
        let sizes = MessageSizes::for_config(&pcsa);
        // PCSA ships m × u64 bitmaps: much bigger than register arrays.
        assert_eq!(sizes.sketch_snapshot, (4 + 512 * 8) as u64);
        // A probe reply (presence bits) is far smaller than any full
        // snapshot — the bandwidth argument for DHS probing in one line.
        assert!(sizes.probe_reply(&pcsa, 1) < sizes.sketch_snapshot);
    }
}
