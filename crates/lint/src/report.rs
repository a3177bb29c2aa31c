//! Deterministic JSONL rendering of findings.
//!
//! One JSON object per finding, sorted by (path, line, rule), plus a
//! trailing summary object. Everything is rendered by hand (no JSON
//! dependency) with stable field order, so two runs over the same tree
//! are byte-identical — `scripts/check.sh` diffs them to prove it.

use crate::flow::FlowStats;
use crate::rules::Finding;

/// One JSON object per finding, sorted.
fn render_findings(findings: &[Finding]) -> String {
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
    out
}

/// Render findings (plus a summary line) as JSONL.
///
/// The caller passes `files_scanned` so the summary reflects coverage
/// even when there are zero findings.
pub fn render_jsonl(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = render_findings(findings);
    out.push_str(&format!(
        "{{\"files_scanned\":{},\"findings\":{}}}\n",
        files_scanned,
        findings.len()
    ));
    out
}

/// Render flow findings plus the flow summary line as JSONL. Finding
/// lines share the token-rule shape; the summary additionally carries
/// call-graph statistics so coverage regressions are visible in diffs.
pub fn render_flow_jsonl(findings: &[Finding], stats: &FlowStats) -> String {
    let mut out = render_findings(findings);
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

    fn finding(path: &str, line: u32, rule: &'static str) -> Finding {
        Finding {
            path: path.to_string(),
            line,
            rule,
            snippet: format!("snippet {line}"),
        }
    }

    #[test]
    fn sorted_by_path_then_line() {
        let fs = vec![
            finding("b.rs", 1, "lossy_cast"),
            finding("a.rs", 9, "determinism"),
            finding("a.rs", 2, "panic_hygiene"),
        ];
        let out = render_jsonl(&fs, 3);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"a.rs\"") && lines[0].contains("\"line\":2"));
        assert!(lines[1].contains("\"a.rs\"") && lines[1].contains("\"line\":9"));
        assert!(lines[2].contains("\"b.rs\""));
        assert_eq!(lines[3], "{\"files_scanned\":3,\"findings\":3}");
    }

    #[test]
    fn escapes_quotes_and_control_chars() {
        let mut f = finding("a.rs", 1, "metric_names");
        f.snippet = "incr(\"x\")\t".to_string();
        let out = render_jsonl(&[f], 1);
        assert!(out.contains("incr(\\\"x\\\")\\t"), "{out}");
    }

    #[test]
    fn empty_findings_still_emit_summary() {
        let out = render_jsonl(&[], 42);
        assert_eq!(out, "{\"files_scanned\":42,\"findings\":0}\n");
    }

    #[test]
    fn escapes_backslashes_byte_exact() {
        let mut f = finding("a.rs", 1, "determinism");
        f.snippet = r#"let p = "C:\\tmp"; // say "hi""#.to_string();
        let out = render_jsonl(&[f], 1);
        assert_eq!(
            out.lines().next().unwrap(),
            "{\"path\":\"a.rs\",\"line\":1,\"rule\":\"determinism\",\
             \"snippet\":\"let p = \\\"C:\\\\\\\\tmp\\\"; // say \\\"hi\\\"\"}"
        );
    }

    #[test]
    fn non_ascii_passes_through_unescaped() {
        let mut f = finding("a.rs", 7, "metric_names");
        f.snippet = "θ0 = 0.7 → café ✓".to_string();
        let out = render_jsonl(&[f], 1);
        assert!(out.contains("\"snippet\":\"θ0 = 0.7 → café ✓\""), "{out}");
        // Two renders are byte-identical (determinism of the escaper).
        let f2 = {
            let mut f2 = finding("a.rs", 7, "metric_names");
            f2.snippet = "θ0 = 0.7 → café ✓".to_string();
            f2
        };
        assert_eq!(out, render_jsonl(&[f2], 1));
    }

    #[test]
    fn control_chars_use_unicode_escapes() {
        let mut f = finding("a.rs", 3, "panic_hygiene");
        f.snippet = "a\u{01}b\u{1f}c".to_string();
        let out = render_jsonl(&[f], 1);
        assert!(out.contains("a\\u0001b\\u001fc"), "{out}");
    }

    #[test]
    fn flow_summary_carries_graph_stats() {
        let stats = FlowStats {
            files_scanned: 5,
            functions: 12,
            resolved_edges: 9,
        };
        let out = render_flow_jsonl(&[finding("a.rs", 1, "rng-plumbing")], &stats);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"files_scanned\":5,\"functions\":12,\"resolved_edges\":9,\
             \"findings\":1}"
        );
    }
}
