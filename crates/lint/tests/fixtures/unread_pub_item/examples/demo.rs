//! Fixture example: read, not linted.

fn main() {
    alpha::read_by_example();
}
