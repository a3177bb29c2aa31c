//! The clippy half of the gate, pinned: the checks that moved out of
//! dhs-lint live in the root `clippy.toml` and the lint tables of the
//! root `Cargo.toml`, and check.sh's `cargo clippy … -D warnings` is
//! what enforces them. A deleted entry or a lowered level would loosen
//! a check silently; this test makes it loud.

#![expect(clippy::panic, reason = "test helpers fail loudly")]

use std::fs;
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The `path = "…"` entries of the top-level array `key = [ … ]`.
fn array_paths(text: &str, key: &str) -> Vec<String> {
    let start = text
        .find(&format!("\n{key} = ["))
        .unwrap_or_else(|| panic!("clippy.toml lacks `{key}`"));
    let body = &text[start..];
    let end = body
        .find("\n]")
        .unwrap_or_else(|| panic!("`{key}` is unclosed"));
    body[..end]
        .split("path = \"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap_or_default().to_string())
        .collect()
}

/// The `name = value` lines of the TOML table `[header]`, in order.
fn table(text: &str, header: &str) -> Vec<(String, String)> {
    let start = text
        .find(&format!("\n[{header}]\n"))
        .unwrap_or_else(|| panic!("Cargo.toml lacks [{header}]"));
    text[start + header.len() + 3..]
        .lines()
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .map(|l| {
            let (k, v) = l.split_once('=').unwrap_or_else(|| panic!("`{l}`"));
            (k.trim().to_string(), v.trim().trim_matches('"').to_string())
        })
        .collect()
}

fn pairs(expected: &[(&str, &str)]) -> Vec<(String, String)> {
    expected
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[test]
fn clippy_toml_bans_clocks_threads_env_reads_and_hash_order() {
    let toml = read("clippy.toml");
    assert_eq!(
        array_paths(&toml, "disallowed-methods"),
        [
            "std::time::Instant::now",
            "std::time::SystemTime::now",
            "std::thread::spawn",
            "std::thread::scope",
            "std::thread::Builder::spawn",
            "std::env::var",
            "std::env::var_os",
        ]
    );
    assert_eq!(
        array_paths(&toml, "disallowed-types"),
        [
            "std::collections::HashMap",
            "std::collections::HashSet",
            "std::sync::Mutex",
            "std::sync::RwLock",
        ]
    );
    for key in [
        "allow-unwrap-in-tests",
        "allow-expect-in-tests",
        "allow-panic-in-tests",
    ] {
        assert!(toml.contains(&format!("\n{key} = true\n")), "{key}");
    }
}

const WORKSPACE_CLIPPY: &[(&str, &str)] = &[
    ("cast_possible_truncation", "warn"),
    ("unwrap_used", "warn"),
    ("expect_used", "warn"),
    ("panic", "warn"),
    ("todo", "warn"),
    ("unimplemented", "warn"),
    ("let_underscore_must_use", "warn"),
];

#[test]
fn workspace_lint_levels_are_pinned() {
    let cargo = read("Cargo.toml");
    assert_eq!(
        table(&cargo, "workspace.lints.clippy"),
        pairs(WORKSPACE_CLIPPY)
    );
    assert_eq!(
        table(&cargo, "workspace.lints.rust"),
        pairs(&[("unsafe_code", "forbid")])
    );
}

/// The root package takes the workspace table in two parts: its
/// `[lints]` for every target, and the panic family on its library via
/// `src/lib.rs` (its frozen `tests/replay_golden.rs` panics by design).
#[test]
fn root_package_covers_the_whole_workspace_table() {
    let cargo = read("Cargo.toml");
    let mut covered = table(&cargo, "lints.clippy");
    assert!(covered.iter().all(|(_, level)| level == "warn"));
    let lib = read("src/lib.rs");
    let warn = lib
        .split("#![warn(")
        .nth(1)
        .and_then(|rest| rest.split(")]").next())
        .unwrap_or_else(|| panic!("src/lib.rs lacks its #![warn(…)]"));
    covered.extend(
        warn.split(',')
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(|l| {
                let name = l
                    .strip_prefix("clippy::")
                    .unwrap_or_else(|| panic!("`{l}`"));
                (name.to_string(), "warn".to_string())
            }),
    );
    covered.sort();
    let mut want = pairs(WORKSPACE_CLIPPY);
    want.sort();
    assert_eq!(covered, want);
    assert_eq!(
        table(&cargo, "lints.rust"),
        pairs(&[("unsafe_code", "forbid")])
    );
}
