//! Regenerate `fixtures/expected/<case>.jsonl` for every fixture case
//! (dev aid): `cargo run -p dhs-lint --example gen_expected`.

use std::fs;
use std::io;
use std::path::Path;

use dhs_lint::{lint_workspace, render_jsonl};

fn main() -> io::Result<()> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut cases: Vec<String> = fs::read_dir(&root)?
        .filter_map(|e| Some(e.ok()?.file_name().to_str()?.to_string()))
        .filter(|name| name != "expected")
        .collect();
    cases.sort();
    for case in cases {
        let (findings, stats) = lint_workspace(&root.join(&case))?;
        let out = render_jsonl(&findings, &stats);
        fs::write(root.join("expected").join(format!("{case}.jsonl")), &out)?;
        print!("--- {case}\n{out}");
    }
    Ok(())
}
