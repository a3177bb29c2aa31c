//! `dhs-lint` CLI: lint the workspace and print findings as
//! deterministic JSONL on stdout — the metric-name token rule and the
//! flow rules in one pass, one report.
//!
//! Usage:
//!
//! ```text
//! dhs-lint          # the enclosing workspace
//! dhs-lint <dir>    # the workspace at <dir>
//! ```
//!
//! Exit status: 0 when clean, 1 when any finding survives, 2 on I/O
//! or usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use dhs_lint::walk::find_workspace_root;
use dhs_lint::{lint_workspace, render_jsonl};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match args.as_slice() {
        [] => {
            // Prefer the manifest dir so `cargo run -p dhs-lint` works
            // from any subdirectory; fall back to the cwd.
            #[expect(
                clippy::disallowed_methods,
                reason = "locates the workspace to lint; no setting is read"
            )]
            let start = std::env::var_os("CARGO_MANIFEST_DIR")
                .map(PathBuf::from)
                .or_else(|| std::env::current_dir().ok());
            match start.as_deref().and_then(find_workspace_root) {
                Some(root) => root,
                None => {
                    eprintln!("dhs-lint: no workspace Cargo.toml found above cwd");
                    return ExitCode::from(2);
                }
            }
        }
        [dir] => PathBuf::from(dir),
        _ => {
            eprintln!("usage: dhs-lint [workspace-root]");
            return ExitCode::from(2);
        }
    };
    match lint_workspace(&root) {
        Ok((findings, stats)) => {
            print!("{}", render_jsonl(&findings, &stats));
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("dhs-lint: {e}");
            ExitCode::from(2)
        }
    }
}
