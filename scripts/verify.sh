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

echo "==> bench_campaign --smoke (throughput harness sanity run)"
cargo run -q -p hlisa-bench --release --bin bench_campaign -- --smoke --out BENCH_campaign.smoke.json

echo "==> bench_campaign --chaos --smoke (fault plane: rate-0 identity + 5%-fault run)"
cargo run -q -p hlisa-bench --release --bin bench_campaign -- --chaos --smoke --out BENCH_chaos.smoke.json

echo "==> bench_interaction --smoke (interaction fast-path sanity run)"
cargo run -q -p hlisa-bench --release --bin bench_interaction -- --smoke --out BENCH_interaction.smoke.json

echo "==> bench_web --smoke (layered page-model sanity run)"
cargo run -q -p hlisa-bench --release --bin bench_web -- --smoke --out BENCH_web.smoke.json

echo "==> bench_lint --smoke (lint-throughput sanity run)"
cargo run -q -p hlisa-bench --release --bin bench_lint -- --smoke --out BENCH_lint.smoke.json

echo "==> bench_parallel --smoke (core-scaling sanity run: lazy shards + claiming workers)"
cargo run -q -p hlisa-bench --release --bin bench_parallel -- --smoke --out BENCH_parallel.smoke.json

echo "==> bench_reliability --smoke (measurement-loss drift curve + strengthened-mode identity)"
cargo run -q -p hlisa-bench --release --bin bench_reliability -- --smoke --out BENCH_reliability.smoke.json

echo "==> perf-regression guard (fresh smoke speedups vs committed baselines)"
# campaign's end-to-end row only reaches its full speedup at full-run
# scale (world-cache amortisation), so it is exempted explicitly.
scripts/perf_guard.sh BENCH_campaign.smoke.json:campaign BENCH_interaction.smoke.json BENCH_web.smoke.json

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: all gates passed"
