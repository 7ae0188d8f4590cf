//! Fixture bin under `src/bin/`: a reader, never a definer.

pub fn defined_in_a_bin_dir() {}

fn main() {
    defined_in_a_bin_dir();
}
