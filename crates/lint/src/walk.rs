//! Workspace traversal: find the `.rs` files to lint, in a stable
//! sorted order, and run every rule over all of them in one pass.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::flow::flow_files;
use crate::report::Stats;
use crate::rules::{lint_source, Finding, NameSet};

/// Where the canonical metric-name table lives, workspace-relative.
pub const NAMES_PATH: &str = "crates/obs/src/names.rs";

/// Directories scanned relative to the workspace root.
pub const SCAN_ROOTS: &[&str] = &["crates", "src", "examples", "tests"];

/// Collect every `.rs` file under the scan roots, as sorted
/// workspace-relative forward-slash paths. `target/` and the lint
/// crate's own `fixtures/` trees are skipped.
pub fn rust_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            collect(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect(&path, root, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    Ok(())
}

/// Workspace member crate names parsed from the root `Cargo.toml`
/// `[workspace] members` globs, normalized to the directory name
/// directly under `crates/` (so `"crates/shims/*"` contributes
/// `"shims"`), plus `"(root)"` when the manifest also declares a
/// `[package]`. Sorted and deduplicated — the ground truth that
/// `tests/workspace.rs` checks the rule-scope opt-out lists against,
/// so they can never go stale the way the old hand-maintained
/// allowlists did.
pub fn workspace_members(root: &Path) -> io::Result<Vec<String>> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))?;
    let globs = toml_string_array(&manifest, "members");
    let excludes = toml_string_array(&manifest, "exclude");
    let mut out: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    if manifest.contains("[package]") {
        out.insert("(root)".to_string());
    }
    for g in &globs {
        let Some(rest) = g.strip_prefix("crates/") else {
            continue;
        };
        let head = rest.split('/').next().unwrap_or("");
        if head == "*" {
            let dir = root.join("crates");
            if !dir.is_dir() {
                continue;
            }
            let mut names: Vec<String> = fs::read_dir(&dir)?
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .filter(|e| e.path().join("Cargo.toml").is_file())
                .filter_map(|e| e.file_name().to_str().map(str::to_string))
                .collect();
            names.sort();
            for name in names {
                if !excludes.iter().any(|x| x == &format!("crates/{name}")) {
                    out.insert(name);
                }
            }
        } else {
            out.insert(head.to_string());
        }
    }
    Ok(out.into_iter().collect())
}

/// The crates the replay-path rules apply to: workspace members minus
/// [`crate::rules::REPLAY_OPT_OUT`].
pub fn derived_replay_crates(root: &Path) -> io::Result<Vec<String>> {
    Ok(workspace_members(root)?
        .into_iter()
        .filter(|c| crate::rules::replay_scope(c))
        .collect())
}

/// The crates the metric-name rule applies to: workspace members minus
/// [`crate::rules::METRIC_NAME_OPT_OUT`].
pub fn derived_metric_name_crates(root: &Path) -> io::Result<Vec<String>> {
    Ok(workspace_members(root)?
        .into_iter()
        .filter(|c| crate::rules::metric_name_scope(c))
        .collect())
}

/// The string elements of the first `key = [ … ]` array in `text`.
/// Good enough for the workspace manifest this tool owns; no TOML
/// dependency.
fn toml_string_array(text: &str, key: &str) -> Vec<String> {
    let Some(k) = text
        .find(&format!("{key} = ["))
        .or_else(|| text.find(&format!("{key}=[")))
    else {
        return Vec::new();
    };
    let rest = &text[k..];
    let Some(open) = rest.find('[') else {
        return Vec::new();
    };
    let Some(close) = rest[open..].find(']') else {
        return Vec::new();
    };
    rest[open + 1..open + close]
        .split(',')
        .filter_map(|part| {
            let part = part.trim();
            part.strip_prefix('"')?
                .strip_suffix('"')
                .map(str::to_string)
        })
        .collect()
}

/// Run every rule over `(path, source)` pairs taken as one workspace:
/// the metric-name token rule per file, against the table at
/// [`NAMES_PATH`] among the inputs (empty if absent), and the flow
/// rules over their call graph. Findings come back sorted.
pub fn lint_files(inputs: &[(String, String)]) -> (Vec<Finding>, Stats) {
    let names = inputs
        .iter()
        .find(|(path, _)| path == NAMES_PATH)
        .map(|(_, source)| NameSet::parse(source))
        .unwrap_or_default();
    let (mut findings, stats) = flow_files(inputs);
    for (path, source) in inputs {
        findings.extend(lint_source(path, source, &names));
    }
    findings.sort();
    (findings, stats)
}

/// Read every source file under `root` and [`lint_files`] them.
pub fn lint_workspace(root: &Path) -> io::Result<(Vec<Finding>, Stats)> {
    let mut inputs = Vec::new();
    for rel in rust_sources(root)? {
        let source = fs::read_to_string(root.join(&rel))?;
        inputs.push((rel, source));
    }
    Ok(lint_files(&inputs))
}

/// Walk upward from `start` to the directory containing the workspace
/// `Cargo.toml` (identified by a `[workspace]` table).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
