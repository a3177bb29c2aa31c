//! # dhs-lint — the checks clippy cannot say
//!
//! A zero-dependency lint binary for the invariants a type-aware,
//! per-crate tool cannot express (see DESIGN.md, "dhs-lint" section):
//!
//! 1. **Canonical metric names** (`metric_names`) — string literals,
//!    and values that const-propagate to strings, at recorder call
//!    sites must be names registered in `dhs_obs::names`.
//! 2. **RNG plumbing** (`rng-plumbing`) — a replay-path library fn draws
//!    only from a caller-supplied `&mut impl Rng`.
//! 3. **Bounded recursion** (`recursion-bound`) — every call-graph cycle
//!    across the workspace carries a `dhs-flow: cycle-ok(reason)`.
//!
//! Determinism (wall clocks, threads, hash-ordered containers,
//! environment reads), truncating casts, panics and discarded results
//! are clippy's: the root `clippy.toml` and `[workspace.lints.clippy]`,
//! run by check.sh with `-D warnings`.
//!
//! The pipeline is [`lexer`] (a small hand-rolled Rust lexer: strings,
//! char literals, raw strings, nested block comments) → [`rules`] (the
//! metric-name token rule) and [`items`] → [`callgraph`] → [`flow`]
//! (the two interprocedural rules; escape hatches
//! `// dhs-flow: allow(<rule>)` and `// dhs-flow: cycle-ok(<reason>)`)
//! → [`report`] (deterministic JSONL, sorted by path/line/rule,
//! byte-identical across runs).
//!
//! What each rule is for — and which mutants are left to clippy, rustc,
//! the test suite and the registry gate instead — is the audit table in
//! DESIGN.md; `tests/mutants.rs` replays this crate's rows against the
//! real sources.
//!
//! Run it as `cargo run --release -p dhs-lint` from anywhere in the
//! workspace; it exits non-zero when any finding survives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod flow;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

pub use report::{render_jsonl, Stats};
pub use rules::Finding;
pub use walk::{lint_files, lint_workspace, rust_sources, workspace_members};
