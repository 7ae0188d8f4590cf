//! Golden-fixture tests for the `hlisa-lint` binary: every source rule
//! has a seeded violation fixture the tool must reject (exit 1, rule id
//! in the JSON), and the clean fixture must pass (exit 0).

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
