//! Fixture benchmark source: read, not linted.

fn main() {
    alpha::read_by_bench_e2e();
}
