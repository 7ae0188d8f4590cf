//! Fixture crate: the public surface `unread-pub-item` judges. Each item
//! is named for who reads it; `golden_fixtures.rs` lists the findings.

pub fn unread() {}

pub fn read_by_beta() {}

pub fn read_by_example() {}

pub fn read_by_bench_e2e() {}

pub fn read_in_cfg_test() {}

pub fn read_in_crate_tests() {}

pub fn read_in_use_line() {}

pub fn read_in_comment() {}

pub struct UnreadStruct;

pub const UNREAD_CONST: u8 = 1;

pub trait UnreadTrait {}

pub type UnreadAlias = u8;

pub(crate) fn crate_visible() {}

// lint: allow(unread-pub-item) test reference: kept for a differential test
pub fn kept_unread() {}

// lint: allow(unread-pub-item) test reference: the reader below made this stale
pub fn kept_but_read() {}

// lint: allow(unread-pub-item)
pub fn kept_without_reason() {}

pub struct Widget;

impl Widget {
    pub fn unread_method(&self) {}
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_from_test_code_do_not_count() {
        super::read_in_cfg_test();
        super::crate_visible();
    }
}
