//! Deterministic JSONL rendering of findings.
//!
//! One JSON object per finding, sorted by (path, line, rule), plus a
//! trailing summary object ([`Stats`]). Everything is rendered by hand (no JSON
//! dependency) with stable field order, so two runs over the same tree
//! are byte-identical — `scripts/check.sh` diffs them to prove it.

use crate::rules::Finding;

/// What one run covered, rendered into the report's trailing line so
/// coverage regressions are visible in diffs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Source files read.
    pub files_scanned: usize,
    /// Non-test fns in the flow call graph.
    pub functions: usize,
    /// Call edges (sites naming exactly one workspace fn).
    pub resolved_edges: usize,
}

/// Render findings, one JSON object per line sorted by (path, line,
/// rule), plus the summary line.
pub fn render_jsonl(findings: &[Finding], stats: &Stats) -> String {
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    sorted.sort();
    let mut out = String::new();
    for f in sorted {
        out.push_str(&format!(
            "{{\"path\":{},\"line\":{},\"rule\":{},\"snippet\":{}}}\n",
            escape(&f.path),
            f.line,
            escape(f.rule),
            escape(&f.snippet),
        ));
    }
    out.push_str(&format!(
        "{{\"files_scanned\":{},\"functions\":{},\"resolved_edges\":{},\"findings\":{}}}\n",
        stats.files_scanned,
        stats.functions,
        stats.resolved_edges,
        findings.len()
    ));
    out
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATS: Stats = Stats {
        files_scanned: 5,
        functions: 12,
        resolved_edges: 9,
    };

    fn finding(path: &str, line: u32, snippet: &str) -> Finding {
        Finding {
            path: path.to_string(),
            line,
            rule: "metric_names",
            snippet: snippet.to_string(),
        }
    }

    #[test]
    fn sorted_by_path_then_line_with_summary() {
        let fs = vec![
            finding("b.rs", 1, ""),
            finding("a.rs", 9, ""),
            finding("a.rs", 2, ""),
        ];
        let out = render_jsonl(&fs, &STATS);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"a.rs\"") && lines[0].contains("\"line\":2"));
        assert!(lines[1].contains("\"a.rs\"") && lines[1].contains("\"line\":9"));
        assert!(lines[2].contains("\"b.rs\""));
        assert_eq!(
            lines[3],
            "{\"files_scanned\":5,\"functions\":12,\"resolved_edges\":9,\"findings\":3}"
        );
    }

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        let out = render_jsonl(&[finding("a.rs", 1, "incr(\"C:\\x\")\t\u{01}")], &STATS);
        assert!(
            out.contains("\"snippet\":\"incr(\\\"C:\\\\x\\\")\\t\\u0001\""),
            "{out}"
        );
    }

    #[test]
    fn non_ascii_passes_through_unescaped() {
        let out = render_jsonl(&[finding("a.rs", 7, "θ0 = 0.7 → café ✓")], &STATS);
        assert!(out.contains("\"snippet\":\"θ0 = 0.7 → café ✓\""), "{out}");
    }
}
