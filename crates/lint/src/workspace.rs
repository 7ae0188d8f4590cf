//! Walks the workspace and runs the AST-grade analysis over every `.rs`
//! file, in a deterministic (sorted) order.
//!
//! Scope per region:
//!
//! * regular crates (`crates/*/src`) — every pass: the determinism rules
//!   (the six source rules and the stream-provenance rules), the
//!   registry check, and the suppression audit;
//! * `crates/sim/src` — the sanctioned home of real randomness and time,
//!   so the determinism rules are off there; the registry check and
//!   suppression audit still apply (sim's own tests name streams too,
//!   and a stale allow is stale anywhere);
//! * the integration tests — the shared `tests/` tree and every crate's
//!   `crates/*/tests/` tree; registry check and suppression audit only.
//!   The lint crate's own fixtures (`crates/lint/tests/fixtures/`) are
//!   deliberate violations and stay out of the walk.

use crate::diag::Report;
use crate::provenance::{analyze_file, AstAnalysis, Exemptions, RulePasses};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose sources are exempt from the determinism rules:
/// `hlisa-sim` is the sanctioned home of real randomness and time.
const EXEMPT_CRATES: &[&str] = &["sim"];

/// The lint crate's fixtures: files that break a rule on purpose, each
/// checked alone by `golden_fixtures.rs`, never by the workspace walk.
const LINT_FIXTURES: &str = "crates/lint/tests/fixtures/";

/// The one file allowed to spell out pointer-move duration floors
/// numerically: the profile definitions themselves.
const MIN_MOVE_DEFINITION_SITE: &str = "crates/webdriver/src/actions.rs";

/// Files whose hash containers are sanctioned interiors: point-queried
/// only, never iterated, so their per-process ordering cannot reach any
/// observable output. Today that is the jsom atom interner, whose
/// name→id map backs O(1) property-key interning while the
/// insertion-ordered `Vec` side of the table remains the canonical
/// view. Every listed file must still hold a hash container (a unit
/// test checks), so an exemption cannot outlive its reason.
const UNORDERED_INTERIOR_SITES: &[&str] = &["crates/jsom/src/atom.rs"];

/// Path prefixes sanctioned to fail fast (`no-panic` exempt): the
/// offline bench report builders, where aborting on a malformed local
/// artifact is the intended behaviour — nothing there runs inside a
/// crawl worker.
const PANIC_SANCTIONED_PREFIXES: &[&str] = &["crates/bench/src/"];

/// Path prefixes sanctioned to read the wall clock (`no-wall-clock`
/// exempt): the offline bench harnesses, whose entire job is measuring
/// real elapsed time. Their readings are reporting artifacts
/// (`BENCH_*.json` timings), never simulation inputs, so they cannot
/// perturb a measurement.
const WALL_CLOCK_SANCTIONED_PREFIXES: &[&str] = &["crates/bench/src/"];

/// The one file allowed to name `rng_from_seed` (`no-rng-from-seed`
/// exempt): its definition site. Callers elsewhere still need a
/// justified `// lint: allow(...)` each.
const RNG_DEFINITION_SITE: &str = "crates/stats/src/rngutil.rs";

/// The exemptions the walker grants a workspace-relative path. Public so
/// the ledger and the `lint` bench suite analyze each file exactly as
/// the walker does.
pub fn exemptions_for(rel: &str) -> Exemptions {
    Exemptions {
        min_move: rel == MIN_MOVE_DEFINITION_SITE,
        unordered: UNORDERED_INTERIOR_SITES.contains(&rel),
        panics: PANIC_SANCTIONED_PREFIXES.iter().any(|p| rel.starts_with(p)),
        wall_clock: WALL_CLOCK_SANCTIONED_PREFIXES
            .iter()
            .any(|p| rel.starts_with(p)),
        rng_def: rel == RNG_DEFINITION_SITE,
    }
}

/// Walks upward from `start` to the directory that holds both a
/// `Cargo.toml` and a `crates/` directory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files_under(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every `.rs` file the walker covers, as (workspace-relative path,
/// absolute path, passes) — crate sources, each crate's integration
/// tests and the shared `tests/` tree. Shared with [`crate::ledger`] and
/// the `lint` bench suite so both cover exactly the linted file set.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(String, PathBuf, RulePasses)>> {
    let mut out = Vec::new();
    // Integration tests get the registry check and the suppression audit
    // only.
    let push_tests = |dir: &Path, out: &mut Vec<(String, PathBuf, RulePasses)>| {
        let mut files = Vec::new();
        if dir.is_dir() {
            rust_files_under(dir, &mut files)?;
        }
        for file in files {
            let rel = rel_path(root, &file);
            if !rel.starts_with(LINT_FIXTURES) {
                out.push((rel, file, RulePasses { determinism: false }));
            }
        }
        io::Result::Ok(())
    };
    let crates_dir = root.join("crates");
    let mut crates: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    for krate in crates {
        let name = krate.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let passes = RulePasses {
            determinism: !EXEMPT_CRATES.contains(&name),
        };
        let src = krate.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files_under(&src, &mut files)?;
        for file in files {
            out.push((rel_path(root, &file), file, passes));
        }
        push_tests(&krate.join("tests"), &mut out)?;
    }
    push_tests(&root.join("tests"), &mut out)?;
    Ok(out)
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints the workspace (crate sources and the integration tests),
/// returning one merged report with workspace-relative file paths.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::new();
    for (rel, file, passes) in workspace_files(root)? {
        let text = fs::read_to_string(&file)?;
        let analysis = AstAnalysis::of(&text);
        // A file the parser cannot fully structure would silently shrink
        // the AST rules' view; surface it as a finding, not a skip.
        for issue in &analysis.parsed.issues {
            report.push(crate::diag::Diagnostic {
                rule: "stream-name-registry",
                severity: crate::diag::Severity::Deny,
                location: crate::diag::Location::in_file(&rel, issue.line),
                message: format!("file does not fully parse ({}); fix the construct so the AST passes see all of it", issue.message),
            });
        }
        report.extend(analyze_file(&rel, &analysis, exemptions_for(&rel), passes));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_root_is_found_from_inside_a_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates/lint").is_dir());
    }

    #[test]
    fn exemptions_are_per_site() {
        assert!(exemptions_for("crates/webdriver/src/actions.rs").min_move);
        assert!(exemptions_for("crates/jsom/src/atom.rs").unordered);
        assert!(exemptions_for("crates/bench/src/web_bench.rs").panics);
        assert!(exemptions_for("crates/bench/src/web_bench.rs").wall_clock);
        assert!(exemptions_for("crates/stats/src/rngutil.rs").rng_def);
        let plain = exemptions_for("crates/core/src/motion.rs");
        assert!(!plain.min_move && !plain.unordered && !plain.panics);
        assert!(!plain.wall_clock && !plain.rng_def);
    }

    #[test]
    fn every_unordered_exemption_still_has_a_hash_container_to_exempt() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        for rel in UNORDERED_INTERIOR_SITES {
            let src = fs::read_to_string(root.join(rel)).expect(rel);
            let unexempted = Exemptions {
                unordered: false,
                ..exemptions_for(rel)
            };
            let diags = crate::provenance::analyze_ast(rel, &src, unexempted);
            assert!(
                diags.iter().any(|d| d.rule == "no-unordered-containers"),
                "{rel} holds no HashMap/HashSet any more: drop its exemption"
            );
        }
    }

    #[test]
    fn the_walker_covers_sim_and_the_tests_tree() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let files = workspace_files(&root).expect("walk");
        let rels: Vec<&str> = files.iter().map(|(r, _, _)| r.as_str()).collect();
        assert!(rels.iter().any(|r| r.starts_with("crates/sim/src/")));
        assert!(rels.iter().any(|r| r.starts_with("tests/")));
        assert!(!rels.iter().any(|r| r.starts_with(LINT_FIXTURES)));
        let crate_test = files
            .iter()
            .find(|(r, _, _)| r == "crates/web/tests/allocations.rs")
            .expect("crate test file");
        assert!(!crate_test.2.determinism);
        let sim = files
            .iter()
            .find(|(r, _, _)| r.starts_with("crates/sim/src/"))
            .expect("sim file");
        assert!(!sim.2.determinism);
        let core = files
            .iter()
            .find(|(r, _, _)| r.starts_with("crates/core/src/"))
            .expect("core file");
        assert!(core.2.determinism);
    }

    #[test]
    fn a_counter_typo_in_a_crate_integration_test_is_flagged() {
        // A throwaway workspace: one crate whose integration test reads a
        // misspelled `fault.injected`, and a lint fixture with the same
        // typo, which the walk must leave out.
        let root = std::env::temp_dir().join(format!("hlisa-lint-walk-{}", std::process::id()));
        let typo = "#[test]\nfn no_faults() {\n    assert_eq!(counters().get(\"fault.injectd\"), None);\n}\n";
        for (dir, file, text) in [
            ("crates/demo/src", "lib.rs", ""),
            ("crates/demo/tests", "faults.rs", typo),
            ("crates/lint/src", "lib.rs", ""),
            ("crates/lint/tests/fixtures", "typo.rs", typo),
        ] {
            fs::create_dir_all(root.join(dir)).expect("temp workspace");
            fs::write(root.join(dir).join(file), text).expect("temp file");
        }
        let report = lint_workspace(&root);
        fs::remove_dir_all(&root).expect("clean up");
        let report = report.expect("walk");
        let found: Vec<(&str, Option<&str>, Option<usize>)> = report
            .diagnostics()
            .iter()
            .map(|d| (d.rule, d.location.file.as_deref(), d.location.line))
            .collect();
        assert_eq!(
            found,
            [(
                "metric-name-registry",
                Some("crates/demo/tests/faults.rs"),
                Some(3)
            )]
        );
    }

    #[test]
    fn the_workspace_lints_clean() {
        // A hard gate: every determinism hazard in the workspace is
        // either fixed or carries a justified allow directive, the
        // stream registry covers every stream name, and no allow is
        // stale. Running it as a test keeps `cargo test` (tier 1)
        // failing on regressions even where CI scripts are bypassed.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let report = lint_workspace(&root).expect("walk");
        assert!(
            report.is_clean(),
            "workspace determinism violations:\n{}",
            report.render_human()
        );
    }
}
