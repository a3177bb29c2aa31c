//! Provenance stamps for trajectory-registry rows.
//!
//! Every registry row carries the VCS commit (from `DHS_COMMIT` —
//! scripts export it; `unknown` otherwise) and the producing tool's
//! version. No wall-clock timestamps: two runs of the same commit stamp
//! identical provenance.

/// The commit id to stamp: `DHS_COMMIT`, cleaned for CSV/JSON embedding,
/// or `unknown`.
#[expect(
    clippy::disallowed_methods,
    reason = "the provenance stamp is the one variable read; it labels a run and changes no output figure"
)]
pub fn commit() -> String {
    match std::env::var("DHS_COMMIT") {
        Ok(v) if !v.trim().is_empty() => v
            .trim()
            .chars()
            .map(|c| {
                if c == ',' || c == '"' || c.is_whitespace() {
                    '_'
                } else {
                    c
                }
            })
            .collect(),
        _ => "unknown".to_string(),
    }
}

/// The producing tool identifier (crate + version).
pub fn tool() -> String {
    format!("dhs-bench-{}", env!("CARGO_PKG_VERSION"))
}
