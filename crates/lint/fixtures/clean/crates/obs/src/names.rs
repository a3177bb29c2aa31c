//! Fixture: the canonical name table the metric-name cases check against.

/// Canonical.
pub const OP_INSERT: &str = "op.insert";
/// Canonical.
pub const LATENCY_TICKS: &str = "latency.ticks";
