//! Fixture integration test: its reads do not count.

#[test]
fn reads_from_integration_tests_do_not_count() {
    alpha::read_in_crate_tests();
    alpha::unread();
}
