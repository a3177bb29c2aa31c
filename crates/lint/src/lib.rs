//! # dhs-lint — static-analysis gate for the DHS workspace
//!
//! A zero-dependency lint binary that enforces the repo's three
//! hard-won invariants (see DESIGN.md, "dhs-lint" section):
//!
//! 1. **Determinism** — simulation crates must not reach for wall
//!    clocks, OS entropy, or hash-ordered iteration (`determinism`).
//! 2. **No silent truncation** — `as`-narrowing is banned in library
//!    code; use `dhs_core::checked_cast` / `try_cast` (`lossy_cast`).
//! 3. **Canonical metric names** — string literals at recorder call
//!    sites must come from `dhs_obs::names` (`metric_names`), and
//!    library code must not panic casually (`panic_hygiene`).
//!
//! The token pipeline is [`lexer`] (a small hand-rolled Rust lexer:
//! strings, char literals, raw strings, nested block comments) →
//! [`rules`] (a token-pattern rule engine with
//! `// dhs-lint: allow(<rule>)` escape hatches) → [`report`]
//! (deterministic JSONL, sorted by path/line/rule, byte-identical
//! across runs).
//!
//! On top of that sits **dhs-flow** (`dhs-lint --flow`), a thin
//! interprocedural layer: [`items`] parses `fn`/`impl` structure out
//! of the token stream, [`callgraph`] links call sites that name
//! exactly one workspace fn, and [`flow`] runs the three rules no
//! cheaper layer catches: `rng-plumbing`, `dropped-result` and
//! `recursion-bound`. Escape hatches: `// dhs-flow: allow(<rule>)`
//! and `// dhs-flow: cycle-ok(<reason>)`.
//!
//! What each rule is for — and which mutants are left to rustc, clippy,
//! the test suite and the registry gate instead — is the audit table in
//! DESIGN.md; `tests/mutants.rs` replays it against the real sources.
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

pub use flow::{flow_files, FlowStats};
pub use report::{render_flow_jsonl, render_jsonl};
pub use rules::{classify, lint_source, FileClass, Finding, NameSet};
pub use walk::{
    find_names_source, flow_workspace, lint_workspace, rust_sources, workspace_members,
};
