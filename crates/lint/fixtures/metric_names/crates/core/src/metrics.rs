//! Recorder calls with off-registry names: string literals at recorder
//! call sites must come from the canonical table (`dhs_obs::names`).
//! The case's table (`crates/obs/src/names.rs`) holds only
//! `op.insert` and `latency.ticks`.

/// Minimal recorder stand-in (method names are what the rule keys on).
pub trait Rec {
    /// Count an event.
    fn incr(&mut self, name: &str);
    /// Record a histogram sample.
    fn observe(&mut self, name: &str, v: u64);
}

/// One canonical name, one typo'd name, one unregistered name.
pub fn record(r: &mut dyn Rec) {
    r.incr("op.insert");
    r.incr("op.inserted");
    r.observe("latency.millis", 3);
    r.observe("latency.ticks", 3);
}

/// Strings outside recorder calls are none of the lint's business.
pub fn label() -> &'static str {
    "not.a.metric"
}
