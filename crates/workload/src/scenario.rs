//! Named parameter sets of the paper's evaluation (§5.1).
//!
//! "We assume we have a network consisting of 1024 nodes, arranged on a
//! Chord-like DHT. Node and item IDs are 64 bits […]. DHS keys are 24 bits
//! long […]. Unless stated otherwise, DHS is using 512 bitmaps. […] The
//! value of the lim parameter was set to its default of 5 hops maximum."

/// The evaluation's default configuration, bundled so experiments and
/// examples can share one source of truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperScenario {
    /// Number of overlay nodes.
    pub nodes: usize,
    /// Identifier length in bits (`L`).
    pub id_bits: u32,
    /// DHS key/bitmap length in bits (`k`).
    pub dhs_bits: u32,
    /// Number of sketch bitmaps (`m`).
    pub bitmaps: usize,
    /// Probe retry limit per interval (`lim`).
    pub lim: u32,
    /// Histogram bucket count used in §5.
    pub histogram_buckets: usize,
    /// Relation scale factor (1.0 = paper scale).
    pub scale: f64,
}

impl Default for PaperScenario {
    fn default() -> Self {
        PaperScenario {
            nodes: 1024,
            id_bits: 64,
            dhs_bits: 24,
            bitmaps: 512,
            lim: 5,
            histogram_buckets: 100,
            scale: 0.01,
        }
    }
}

impl PaperScenario {
    /// The §5.1 configuration at full paper scale.
    pub fn paper_scale() -> Self {
        PaperScenario {
            scale: 1.0,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_section_5_1() {
        let s = PaperScenario::default();
        assert_eq!(s.nodes, 1024);
        assert_eq!(s.id_bits, 64);
        assert_eq!(s.dhs_bits, 24);
        assert_eq!(s.bitmaps, 512);
        assert_eq!(s.lim, 5);
        assert_eq!(s.histogram_buckets, 100);
    }

    #[test]
    fn paper_scale_only_changes_scale() {
        let d = PaperScenario::default();
        let p = PaperScenario::paper_scale();
        assert_eq!(p.scale, 1.0);
        assert_eq!(p.nodes, d.nodes);
        assert_eq!(p.bitmaps, d.bitmaps);
    }
}
