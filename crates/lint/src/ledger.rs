//! The draw ledger: a committed, machine-readable census of every
//! randomness derivation site in the workspace.
//!
//! [`build_ledger`] walks the same file set as the workspace linter,
//! collects every `ctx.stream("...")` / `ctx.fork(...)` /
//! `ctx.fork_visit(...)` call site (`ctx.visit_forks(...)` counts as
//! `fork_visit`) from the AST pass, and aggregates
//! them by `(crate, file, function, kind, stream)`. [`render_ledger`]
//! serialises the result as canonical JSON — sorted keys, one entry per
//! line — so `LINT_LEDGER.json` diffs cleanly under review.
//!
//! Line numbers are deliberately omitted: the ledger records *which
//! code derives from which stream*, so unrelated edits that only shift
//! lines leave it byte-identical, and a ledger diff always means the
//! randomness topology actually changed. `hlisa-lint --ledger-check`
//! (and a test below) fail when the committed file drifts from the
//! tree.

use crate::provenance::{collect_stream_sites, AstAnalysis, StreamSite};
use crate::workspace::workspace_files;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// The committed ledger's file name, at the workspace root.
pub const LEDGER_FILE: &str = "LINT_LEDGER.json";

/// One aggregated derivation site group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Owning crate (the `crates/` directory name), or `tests` for the
    /// shared integration-test tree.
    pub crate_name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Innermost enclosing item path (`mod::fn`), or `<file>`.
    pub function: String,
    /// `stream`, `fork`, or `fork_visit`.
    pub kind: &'static str,
    /// Stream name / fork label, or `<dynamic>` for non-literal labels.
    pub stream: String,
    /// Call sites in non-test code.
    pub sites: usize,
    /// Call sites inside `#[test]`-gated regions.
    pub test_sites: usize,
}

/// The aggregated ledger, sorted by `(file, function, kind, stream)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Aggregated entries.
    pub entries: Vec<LedgerEntry>,
    /// Files the walk covered (ledger provenance, recorded in the JSON).
    pub files_scanned: usize,
}

impl Ledger {
    /// Per-stream `(sites, test_sites)` totals across the workspace,
    /// sorted by stream name. `fork`/`fork_visit` labels count too —
    /// they name derivation points just as streams do.
    #[cfg(test)]
    pub fn stream_totals(&self) -> Vec<(String, usize, usize)> {
        let mut map: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        for e in &self.entries {
            let t = map.entry(&e.stream).or_default();
            t.0 += e.sites;
            t.1 += e.test_sites;
        }
        map.into_iter()
            .map(|(s, (a, b))| (s.to_string(), a, b))
            .collect()
    }
}

fn crate_of(rel: &str) -> String {
    match rel.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next().unwrap_or(rest).to_string(),
        None => "tests".to_string(),
    }
}

fn aggregate(files: &[(String, Vec<StreamSite>)]) -> Ledger {
    let mut map: BTreeMap<(String, String, &'static str, String), (usize, usize)> = BTreeMap::new();
    for (rel, sites) in files {
        for s in sites {
            let key = (
                rel.clone(),
                s.function.clone(),
                s.kind.label(),
                s.stream.clone(),
            );
            let counts = map.entry(key).or_default();
            if s.in_test {
                counts.1 += 1;
            } else {
                counts.0 += 1;
            }
        }
    }
    Ledger {
        entries: map
            .into_iter()
            .map(
                |((file, function, kind, stream), (sites, test_sites))| LedgerEntry {
                    crate_name: crate_of(&file),
                    file,
                    function,
                    kind,
                    stream,
                    sites,
                    test_sites,
                },
            )
            .collect(),
        files_scanned: files.len(),
    }
}

/// Builds the ledger for the workspace at `root` by parsing every file
/// the linter covers and collecting its derivation sites.
pub fn build_ledger(root: &Path) -> io::Result<Ledger> {
    let mut files = Vec::new();
    for (rel, path, _passes) in workspace_files(root)? {
        let text = fs::read_to_string(&path)?;
        let analysis = AstAnalysis::of(&text);
        files.push((rel, collect_stream_sites(&analysis)));
    }
    Ok(aggregate(&files))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the ledger as canonical JSON: fixed key order, entries one
/// per line, trailing newline. Byte-stable for identical trees.
pub fn render_ledger(ledger: &Ledger) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", ledger.files_scanned));
    out.push_str("  \"entries\": [\n");
    for (i, e) in ledger.entries.iter().enumerate() {
        let sep = if i + 1 == ledger.entries.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "    {{\"crate\": \"{}\", \"file\": \"{}\", \"function\": \"{}\", \
             \"kind\": \"{}\", \"stream\": \"{}\", \"sites\": {}, \"test_sites\": {}}}{}\n",
            json_escape(&e.crate_name),
            json_escape(&e.file),
            json_escape(&e.function),
            e.kind,
            json_escape(&e.stream),
            e.sites,
            e.test_sites,
            sep,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Compares the freshly built ledger against the committed
/// `LINT_LEDGER.json`. `Ok(())` when current; `Err(diff summary)` when
/// the committed file is missing or stale.
pub fn check_ledger(root: &Path) -> io::Result<Result<(), String>> {
    let expected = render_ledger(&build_ledger(root)?);
    let path = root.join(LEDGER_FILE);
    let committed = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(Err(format!(
                "{LEDGER_FILE} is missing; run `hlisa-lint --ledger-write`"
            )))
        }
        Err(e) => return Err(e),
    };
    if committed == expected {
        return Ok(Ok(()));
    }
    let first_diff = committed
        .lines()
        .zip(expected.lines())
        .position(|(a, b)| a != b)
        .map(|i| i + 1)
        .unwrap_or_else(|| committed.lines().count().min(expected.lines().count()) + 1);
    Ok(Err(format!(
        "{LEDGER_FILE} is stale (first differing line {first_diff}); \
         run `hlisa-lint --ledger-write` and commit the result"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::SiteKind;

    fn site(function: &str, kind: SiteKind, stream: &str, in_test: bool) -> StreamSite {
        StreamSite {
            function: function.to_string(),
            kind,
            stream: stream.to_string(),
            in_test,
            line: 1,
        }
    }

    #[test]
    fn sites_aggregate_by_context_without_lines() {
        let files = vec![(
            "crates/core/src/motion.rs".to_string(),
            vec![
                site("gesture", SiteKind::Stream, "cursor", false),
                site("gesture", SiteKind::Stream, "cursor", false),
                site("gesture", SiteKind::Stream, "cursor", true),
                site("gesture", SiteKind::Fork, "segment", false),
            ],
        )];
        let ledger = aggregate(&files);
        assert_eq!(ledger.entries.len(), 2);
        let cursor = &ledger.entries[1];
        assert_eq!(
            (cursor.kind, cursor.sites, cursor.test_sites),
            ("stream", 2, 1)
        );
        assert_eq!(cursor.crate_name, "core");
        let fork = &ledger.entries[0];
        assert_eq!((fork.kind, fork.stream.as_str()), ("fork", "segment"));
    }

    #[test]
    fn tests_tree_files_get_the_tests_crate_label() {
        let files = vec![(
            "tests/api_properties.rs".to_string(),
            vec![site("roundtrip", SiteKind::Stream, "visit", true)],
        )];
        let ledger = aggregate(&files);
        assert_eq!(ledger.entries[0].crate_name, "tests");
    }

    #[test]
    fn rendering_is_canonical_and_escapes() {
        let files = vec![(
            "crates/core/src/a.rs".to_string(),
            vec![site("f", SiteKind::Stream, "cursor", false)],
        )];
        let text = render_ledger(&aggregate(&files));
        assert!(text.starts_with("{\n  \"version\": 1,\n"));
        assert!(text.ends_with("  ]\n}\n"));
        assert!(text.contains(
            "{\"crate\": \"core\", \"file\": \"crates/core/src/a.rs\", \
             \"function\": \"f\", \"kind\": \"stream\", \"stream\": \"cursor\", \
             \"sites\": 1, \"test_sites\": 0}"
        ));
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn stream_totals_sum_across_entries() {
        let files = vec![
            (
                "crates/core/src/a.rs".to_string(),
                vec![site("f", SiteKind::Stream, "cursor", false)],
            ),
            (
                "crates/human/src/b.rs".to_string(),
                vec![site("g", SiteKind::Stream, "cursor", true)],
            ),
        ];
        let totals = aggregate(&files).stream_totals();
        assert_eq!(totals, vec![("cursor".to_string(), 1, 1)]);
    }

    #[test]
    fn the_committed_ledger_is_current() {
        // The gate behind `hlisa-lint --ledger-check`: the committed
        // LINT_LEDGER.json must match a fresh build of the tree, so any
        // change to the randomness topology shows up as a reviewed diff.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = crate::workspace::find_workspace_root(here).expect("workspace root");
        let status = check_ledger(&root).expect("walk");
        assert!(status.is_ok(), "{}", status.unwrap_err());
    }

    #[test]
    fn the_ledger_is_not_empty() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = crate::workspace::find_workspace_root(here).expect("workspace root");
        let ledger = build_ledger(&root).expect("walk");
        assert!(ledger.entries.len() > 10, "suspiciously small ledger");
        assert!(ledger
            .entries
            .iter()
            .any(|e| e.kind == "fork" || e.kind == "fork_visit"));
    }
}
