//! Total parse coverage: every `.rs` file in every crate's `src/` tree
//! (plus the shared `tests/` sources) parses with zero [`ParseIssue`]s.
//! The parser's opaque fallback exists for garbage inputs, not for the
//! workspace; any fallback would silently shrink the AST rules' view of
//! the code. The trees `unread-pub-item` reads but nothing lints
//! (`examples/`, `bench_e2e/src/`) are held to the same bar: the pass
//! judges their test gates (`#![cfg(test)]`) from the parse, and a
//! construct the parser cannot structure is one its reading of them may
//! get wrong, turning a real read into a false finding.
//!
//! [`ParseIssue`]: hlisa_lint::parse::ParseIssue

use hlisa_lint::parse_file;
use hlisa_lint::workspace::find_workspace_root;
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_rust_files() -> Vec<(String, PathBuf)> {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("workspace root");
    let mut files = Vec::new();
    let mut stack = vec![
        root.join("crates"),
        root.join("tests"),
        root.join("examples"),
        root.join("bench_e2e/src"),
    ];
    while let Some(dir) = stack.pop() {
        if !dir.is_dir() {
            continue;
        }
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
            .expect("read_dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(&root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push((rel, path));
            }
        }
    }
    assert!(
        files.len() > 40,
        "workspace walk found {} files",
        files.len()
    );
    for reader in ["examples/", "bench_e2e/src/"] {
        assert!(
            files.iter().any(|(rel, _)| rel.starts_with(reader)),
            "the walk misses {reader}"
        );
    }
    files
}

#[test]
fn every_workspace_file_parses_with_zero_issues() {
    let mut failures = Vec::new();
    for (rel, path) in workspace_rust_files() {
        let src = fs::read_to_string(&path).expect("read source");
        let parsed = parse_file(&src);
        for issue in &parsed.issues {
            failures.push(format!("{rel}:{}: {}", issue.line, issue.message));
        }
    }
    assert!(
        failures.is_empty(),
        "{} parse issue(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}
