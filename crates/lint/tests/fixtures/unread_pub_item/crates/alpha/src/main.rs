//! Fixture bin: a reader, never a definer.

pub fn defined_in_a_bin() {}

fn main() {
    alpha::kept_but_read();
    let _ = alpha::Widget;
}
