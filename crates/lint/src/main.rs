//! `dhs-lint` CLI: lint the workspace (or explicit paths) and print
//! findings as deterministic JSONL on stdout.
//!
//! Usage:
//!
//! ```text
//! dhs-lint                 # token rules over the enclosing workspace
//! dhs-lint <dir>           # token rules over the workspace at <dir>
//! dhs-lint --flow [dir]    # interprocedural flow rules instead
//! ```
//!
//! Exit status: 0 when clean, 1 when any finding survives, 2 on I/O
//! or usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use dhs_lint::walk::find_workspace_root;
use dhs_lint::{flow_workspace, lint_workspace, render_flow_jsonl, render_jsonl};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let flow = args.iter().any(|a| a == "--flow");
    args.retain(|a| a != "--flow");
    let root = match args.as_slice() {
        [] => {
            // Prefer the manifest dir so `cargo run -p dhs-lint` works
            // from any subdirectory; fall back to the cwd.
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
            eprintln!("usage: dhs-lint [--flow] [workspace-root]");
            return ExitCode::from(2);
        }
    };

    let rendered = if flow {
        flow_workspace(&root).map(|(findings, stats)| {
            let clean = findings.is_empty();
            (render_flow_jsonl(&findings, &stats), clean)
        })
    } else {
        lint_workspace(&root).map(|(findings, files_scanned)| {
            let clean = findings.is_empty();
            (render_jsonl(&findings, files_scanned), clean)
        })
    };
    match rendered {
        Ok((out, clean)) => {
            print!("{out}");
            if clean {
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
