//! Fixture module gated to tests whole: it declares nothing and reads
//! nothing.
#![cfg(test)]

pub fn only_for_tests() {
    crate::read_in_cfg_test();
}
