//! Fixture shared test tree: its reads do not count.

#[test]
fn reads_from_the_shared_tests_do_not_count() {
    alpha::unread();
    alpha::kept_unread();
}
