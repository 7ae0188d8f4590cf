//! Golden-fixture tests for the `hlisa-lint` binary: every source rule
//! has a seeded violation fixture the tool must reject (exit 1, rule id
//! in the JSON), and the clean fixture must pass (exit 0). The
//! cross-file `unread-pub-item` rule has a fixture workspace instead
//! (`fixtures/unread_pub_item/`), linted with `--root`.

use std::path::Path;
use std::process::Command;

fn run_check(fixture: &str, json: bool) -> (i32, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hlisa-lint"));
    if json {
        cmd.arg("--json");
    }
    let out = cmd
        .arg("--check-file")
        .arg(&path)
        .output()
        .expect("run hlisa-lint");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn every_source_rule_has_a_failing_fixture() {
    let cases = [
        ("wall_clock.rs", "no-wall-clock"),
        ("thread_rng.rs", "no-thread-rng"),
        ("unordered_containers.rs", "no-unordered-containers"),
        ("rng_from_seed.rs", "no-rng-from-seed"),
        ("hardcoded_min_move.rs", "no-hardcoded-min-move"),
        ("no_panic.rs", "no-panic"),
    ];
    for (fixture, rule) in cases {
        let (code, json) = run_check(fixture, true);
        assert_eq!(code, 1, "{fixture} should fail the lint");
        assert!(
            json.contains(&format!("\"rule\":\"{rule}\"")),
            "{fixture} should flag {rule}, got: {json}"
        );
        assert!(json.contains("\"clean\":false"), "{json}");
    }
}

#[test]
fn every_provenance_rule_has_a_failing_fixture() {
    let cases = [
        ("stream_registry.rs", "stream-name-registry"),
        ("metric_registry.rs", "metric-name-registry"),
        ("conditional_draw.rs", "conditional-draw"),
        ("loop_variant_fork.rs", "loop-variant-fork"),
        ("loop_variant_visit_forks.rs", "loop-variant-fork"),
        ("stale_allow.rs", "stale-allow"),
    ];
    for (fixture, rule) in cases {
        let (code, json) = run_check(fixture, true);
        assert_eq!(code, 1, "{fixture} should fail the lint");
        assert!(
            json.contains(&format!("\"rule\":\"{rule}\"")),
            "{fixture} should flag {rule}, got: {json}"
        );
        assert!(json.contains("\"clean\":false"), "{json}");
    }
}

#[test]
fn the_clean_fixture_passes() {
    let (code, json) = run_check("clean.rs", true);
    assert_eq!(code, 0, "clean fixture flagged: {json}");
    assert!(json.contains("\"clean\":true"), "{json}");
}

#[test]
fn human_output_names_the_rule_and_location() {
    let (code, human) = run_check("wall_clock.rs", false);
    assert_eq!(code, 1);
    assert!(human.contains("deny[no-wall-clock]"), "{human}");
    assert!(human.contains("wall_clock.rs:"), "{human}");
}

#[test]
fn missing_files_are_a_usage_error_not_a_finding() {
    let out = Command::new(env!("CARGO_BIN_EXE_hlisa-lint"))
        .arg("--check-file")
        .arg("does/not/exist.rs")
        .output()
        .expect("run hlisa-lint");
    assert_eq!(out.status.code(), Some(2));
}

/// Runs workspace mode over a fixture workspace; returns the exit code
/// and every finding as `rule file:line`, sorted.
fn run_workspace(fixture: &str) -> (i32, Vec<String>) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let out = Command::new(env!("CARGO_BIN_EXE_hlisa-lint"))
        .arg("--root")
        .arg(&root)
        .output()
        .expect("run hlisa-lint");
    let mut found: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.strip_prefix("deny["))
        .filter_map(|l| {
            let (rule, rest) = l.split_once("] ")?;
            let (at, _) = rest.split_once(": ")?;
            Some(format!("{rule} {at}"))
        })
        .collect();
    found.sort();
    (out.status.code().expect("exit code"), found)
}

#[test]
fn unread_pub_item_judges_the_fixture_workspace() {
    // `crates/alpha` declares one item per case. Silent: items read by
    // another crate's library, a bin, an example or `bench_e2e/src`, a
    // `pub(crate)` fn, fns declared in bins (`main.rs`, `src/bin/`) or in
    // a module gated by `#![cfg(test)]`, and an allowed unread item (read
    // only from the shared tests). Flagged: the unread items of every
    // kind, items whose only reads are a `#[cfg(test)]` module, a
    // `#![cfg(test)]` module, a crate integration test, a `use` line, a
    // comment and a string, or another crate's declaration of the same
    // name; an allow whose item gained a reader (stale); an allow with
    // no reason.
    let (code, found) = run_workspace("unread_pub_item");
    assert_eq!(code, 1);
    let lib = "crates/alpha/src/lib.rs";
    let mut want: Vec<String> = [4, 12, 14, 16, 18, 20, 22, 24, 26, 36, 42]
        .iter()
        .map(|line| format!("unread-pub-item {lib}:{line}"))
        .collect();
    want.push(format!("stale-allow {lib}:33"));
    want.sort();
    assert_eq!(found, want);
}

#[test]
fn check_file_cannot_judge_the_cross_file_rule() {
    // One file holding unread pub items and `allow(unread-pub-item)`
    // directives, one of them stale in the workspace: alone, it reports
    // neither the rule nor `stale-allow`.
    let (code, json) = run_check("unread_pub_item/crates/alpha/src/lib.rs", true);
    assert_eq!(code, 0, "{json}");
    assert!(!json.contains("unread-pub-item"), "{json}");
    assert!(!json.contains("stale-allow"), "{json}");
    let usage = Command::new(env!("CARGO_BIN_EXE_hlisa-lint"))
        .arg("--help")
        .output()
        .expect("run hlisa-lint");
    assert!(String::from_utf8_lossy(&usage.stdout).contains("cannot judge unread-pub-item"));
}
