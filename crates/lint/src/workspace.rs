//! Walks the workspace and runs the AST-grade analysis over every `.rs`
//! file, in a deterministic (sorted) order.
//!
//! Scope per region:
//!
//! * regular crates (`crates/*/src`) — every pass: the six source rules,
//!   the stream-provenance rules, the registry check, and the
//!   suppression audit;
//! * `crates/sim/src` — the sanctioned home of real randomness and time,
//!   so the source and stream rules have a gate there; the registry
//!   check and suppression audit still apply (sim's own tests name
//!   streams too, and a stale allow is stale anywhere);
//! * the shared `tests/` tree — integration/property tests; registry
//!   check and suppression audit only.

use crate::diag::Report;
use crate::provenance::{analyze_file, AstAnalysis, RulePasses};
use crate::source::Exemptions;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose sources are exempt from the source and stream rules:
/// `hlisa-sim` is the sanctioned home of real randomness and time.
const EXEMPT_CRATES: &[&str] = &["sim"];

/// The one file allowed to spell out pointer-move duration floors
/// numerically: the profile definitions themselves.
const MIN_MOVE_DEFINITION_SITE: &str = "crates/webdriver/src/actions.rs";

/// Files whose hash containers are sanctioned interiors: point-queried
/// only, never iterated, so their per-process ordering cannot reach any
/// observable output. Today that is the jsom atom interner, whose
/// name→id map backs O(1) property-key interning while the
/// insertion-ordered `Vec` side of the table remains the canonical
/// view, and the browser document index, whose id/tag/anchor maps are
/// point-queried with precomputed document-ordered values.
const UNORDERED_INTERIOR_SITES: &[&str] =
    &["crates/jsom/src/atom.rs", "crates/browser/src/index.rs"];

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
/// the AST/token differential test can replay the walker's exact
/// per-file configuration.
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
/// absolute path, passes) — crate sources plus the shared `tests/` tree.
/// Shared with [`crate::ledger`] and the `lint` bench suite so both
/// cover exactly the linted file set.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(String, PathBuf, RulePasses)>> {
    let audit_only = RulePasses {
        source_rules: false,
        stream_rules: false,
        registry: true,
        stale: true,
    };
    let mut out = Vec::new();
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
        let passes = if EXEMPT_CRATES.contains(&name) {
            audit_only
        } else {
            RulePasses::all()
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
    }
    let tests_dir = root.join("tests");
    if tests_dir.is_dir() {
        let mut files = Vec::new();
        rust_files_under(&tests_dir, &mut files)?;
        for file in files {
            out.push((rel_path(root, &file), file, audit_only));
        }
    }
    Ok(out)
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints the workspace (crate sources and the shared `tests/` tree),
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
    fn the_walker_covers_sim_and_the_tests_tree() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let files = workspace_files(&root).expect("walk");
        let rels: Vec<&str> = files.iter().map(|(r, _, _)| r.as_str()).collect();
        assert!(rels.iter().any(|r| r.starts_with("crates/sim/src/")));
        assert!(rels.iter().any(|r| r.starts_with("tests/")));
        let sim = files
            .iter()
            .find(|(r, _, _)| r.starts_with("crates/sim/src/"))
            .expect("sim file");
        assert!(!sim.2.source_rules && sim.2.registry && sim.2.stale);
        let core = files
            .iter()
            .find(|(r, _, _)| r.starts_with("crates/core/src/"))
            .expect("core file");
        assert!(core.2.source_rules && core.2.stream_rules);
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
