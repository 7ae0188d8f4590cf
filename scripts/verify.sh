#!/usr/bin/env bash
# Full verification gate: build, tests, lints, formatting.
# Run from the repository root (or any subdirectory; cargo finds the root).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> allocation pins, release profile"
# The pins are exact, and release inlining decides some of them (it has
# moved with unrelated edits); the benchmarks run release code, so the
# pins must hold there as well as in the test profile above.
cargo test -q --release -p hlisa-web -p hlisa-crawler -p hlisa-webdriver --test allocations

echo "==> bench_e2e unit tests (miniature traced + untraced run of every workload)"
# The end-to-end benchmark is its own cargo workspace, so the workspace
# test run above does not reach it; a runner change its traced mirror
# does not follow fails here.
cargo test --release --offline --manifest-path bench_e2e/Cargo.toml

echo "==> bench_e2e production digests (all four workloads, seeds 1 and 2)"
# One round of each workload at production size per seed: each child run
# checks its digest against the committed EXPECTED table and the command
# exits non-zero on any mismatch. The timings it prints are not gated.
cargo run --quiet --release --offline --manifest-path bench_e2e/Cargo.toml -- \
    --workload all --seed 1 --seconds 0 --repeat 2

echo "==> Fig. 3 front ends (figure3, lintreport, arms_race example), run once each"
# The build step only compiles them; running them makes a panic in a
# renderer or in the ladder fail the gate. Each takes well under a second.
cargo run -q --release -p hlisa-bench --bin figure3 > /dev/null
cargo run -q --release -p hlisa-bench --bin lintreport > /dev/null
cargo run -q --release --example arms_race > /dev/null

echo "==> field-study front ends (table2, figure4, export_csv, crawl_study example), run once each"
# Same reason: a panic in the field-study fold or a renderer fails the
# gate. Each takes well under a second at paper scale.
cargo run -q --release -p hlisa-bench --bin table2 > /dev/null
cargo run -q --release -p hlisa-bench --bin figure4 > /dev/null
csv_dir=$(mktemp -d)
cargo run -q --release -p hlisa-bench --bin export_csv -- "$csv_dir" > /dev/null
rm -rf "$csv_dir"
cargo run -q --release --example crawl_study > /dev/null

echo "==> remaining examples (quickstart, form_fill_study), run once each"
# quickstart prints the recorder's trace views; form_fill_study drives
# the form-filling comparison. Each takes a few milliseconds.
cargo run -q --release --example quickstart > /dev/null
cargo run -q --release --example form_fill_study > /dev/null

# Workspace determinism rules, the detectability gate, the draw ledger,
# and unread-pub-item: every pub item of a library crate needs a
# non-test reader (library and bin sources, examples/, bench_e2e/src/;
# not tests, use lines or comments) or an allow stating `paper API`
# (Table 1/Table 3 row, §5 behaviour) or `test reference` (its
# differential test).
echo "==> hlisa-lint (workspace determinism + detectability gate + draw ledger + public surface)"
cargo run -q -p hlisa-lint --release -- --ledger-check

echo "==> bench <suite> --smoke (sanity run of every bench suite)"
for suite in campaign interaction web lint parallel reliability; do
    cargo run -q -p hlisa-bench --release --bin bench -- "$suite" --smoke --out "BENCH_$suite.smoke.json"
done

echo "==> bench guard (fresh smoke speedups vs committed baselines)"
# campaign's end-to-end row only reaches its full speedup at full-run
# scale (world-cache amortisation), so it is exempted explicitly.
cargo run -q -p hlisa-bench --release --bin bench -- guard \
    BENCH_campaign.smoke.json:campaign BENCH_interaction.smoke.json BENCH_web.smoke.json \
    BENCH_reliability.smoke.json

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors; vendored stand-ins excluded)"
# Catches intra-doc links left dangling when an item is renamed, made
# private or deleted.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps \
    --exclude proptest --exclude rand --exclude serde --exclude serde_derive

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: all gates passed"
