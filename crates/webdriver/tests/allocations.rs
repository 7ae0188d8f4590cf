//! Allocation count of a WebDriver element lookup, pinned with
//! `hlisa-web`'s counting global allocator.
//!
//! A locator borrows a `'static` id, and a built query index answers
//! `by_id` from its arrays, so once the index is warm, finding an element
//! by a fixed id allocates nothing. A locator that copies its id again
//! shows up here.

#[path = "../../web/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use hlisa_browser::dom::standard_test_page;
use hlisa_browser::{Browser, BrowserConfig};
use hlisa_webdriver::{By, Session};

#[test]
fn a_warm_lookup_by_a_static_id_allocates_nothing() {
    let session = Session::new(Browser::open(
        BrowserConfig::webdriver(),
        standard_test_page("https://example.test/", 30_000.0),
    ));
    // The first query builds the index.
    let warm = session.find_element(By::Id("submit".into()));
    let (found, n) = allocations(|| session.find_element(By::Id("submit".into())));
    assert!(found.is_ok());
    assert_eq!(found, warm);
    assert_eq!(n, 0, "a warm lookup by a static id allocated");
}
