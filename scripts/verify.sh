#!/usr/bin/env bash
# Full verification gate: build, tests, lints, formatting.
# Run from the repository root (or any subdirectory; cargo finds the root).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo build --release --benches (criterion bench targets)"
# `cargo test` does not compile bench targets, so an API change that
# breaks one only shows up here.
cargo build --release --workspace --benches

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> bench_e2e unit tests (miniature traced + untraced run of every workload)"
# The end-to-end benchmark is its own cargo workspace, so the workspace
# test run above does not reach it; a runner change its traced mirror
# does not follow fails here.
cargo test --release --offline --manifest-path bench_e2e/Cargo.toml

echo "==> hlisa-lint (workspace determinism + detectability gate + draw ledger)"
cargo run -q -p hlisa-lint --release -- --ledger-check

echo "==> bench <suite> --smoke (sanity run of every bench suite)"
for suite in campaign interaction web lint parallel reliability; do
    cargo run -q -p hlisa-bench --release --bin bench -- "$suite" --smoke --out "BENCH_$suite.smoke.json"
done

echo "==> bench guard (fresh smoke speedups vs committed baselines)"
# campaign's end-to-end row only reaches its full speedup at full-run
# scale (world-cache amortisation), so it is exempted explicitly.
cargo run -q -p hlisa-bench --release --bin bench -- guard \
    BENCH_campaign.smoke.json:campaign BENCH_interaction.smoke.json BENCH_web.smoke.json

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: all gates passed"
