//! Allocation counts of the visit hot path and of a scenario page's
//! set-up, pinned with the counting global allocator of
//! `counting_alloc`.
//!
//! A `SimContext` keeps its first streams inline and its time as a plain
//! number, a `SiteProfile` derives its background codes into one exactly
//! sized buffer, and a site's visit contexts come from `visit_forks`. So
//! a warm plain visit allocates only the outcome's two status-code
//! vectors. A change that brings back a per-stream `String`, a shared
//! clock, a growing buffer or a per-visit derivation shows up here as an
//! extra allocation.
//!
//! A scenario page is built once per (site, machine) and its page program
//! runs once through an empty `DocumentMemo` before every later drive
//! replays it. Elements borrow their static tags, take their `format!`
//! ids by move and link their children instead of owning a child list,
//! and the query index is a handful of flat arrays. A `String` tag, a
//! copied id or a per-node vector that comes back shows up here, and so
//! does anything a browser's re-open allocates: its time is a number it
//! resets, so the re-open allocates nothing.

mod counting_alloc;

use counting_alloc::allocations;
use hlisa_browser::{Browser, BrowserConfig, DocumentMemo};
use hlisa_sim::{Rng, SimContext, STREAM_REGISTRY};
use hlisa_stats::rngutil::derive_seed;
use hlisa_web::dynamics::{self, apply_scenario, ScenarioKind};
use hlisa_web::page::TARGET_ID;
use hlisa_web::visit::DetectorRuntime;
use hlisa_web::{generate_page, ClientKind, GeneratedPage, PageStructure, Site, SiteProfile};

/// A reachable site without a detector, scenario or breakage, with
/// request counts off the lane width.
fn plain_site() -> Site {
    Site {
        rank: 12,
        domain: "plain.test".into(),
        detector: None,
        ad_slots: 3,
        has_video: false,
        breaks_under_spoofing: false,
        unreachable: false,
        flaky_visit_prob: 0.0,
        first_party_requests: 13,
        third_party_requests: 27,
        scenario: None,
    }
}

#[test]
fn inline_streams_allocate_nothing() {
    let names = STREAM_REGISTRY.iter().map(|s| s.name);
    let names: Vec<&'static str> = names.take(SimContext::INLINE_STREAMS).collect();
    let (draws, n) = allocations(|| {
        let mut ctx = SimContext::new(7);
        let mut draws = 0u64;
        for _ in 0..3 {
            for &name in &names {
                // The names are the registry's own first entries.
                // lint: allow(stream-name-registry)
                draws ^= ctx.stream(name).gen::<u64>();
            }
        }
        draws
    });
    assert_ne!(draws, 0);
    assert_eq!(n, 0, "a context with inline streams allocated");
}

#[test]
fn a_site_profile_allocates_once() {
    let site = plain_site();
    let (profile, n) = allocations(|| SiteProfile::new(&site));
    assert_eq!(profile.site().domain, site.domain);
    assert_eq!(n, 1, "SiteProfile::new allocated more than its code buffer");
}

#[test]
fn a_warm_plain_visit_allocates_its_status_vectors() {
    let site = plain_site();
    let runtime = DetectorRuntime::new();
    let profile = SiteProfile::new(&site);
    let machine = SimContext::new(42).fork("m1", 0);
    // Warm-up: the first visit may fill lazily built shared state.
    for mut ctx in machine.visit_forks(&site.domain, 1) {
        profile.visit(ClientKind::OpenWpm, &runtime, &mut ctx);
    }
    // Each visit: its outcome's two vectors; the fork allocates nothing.
    let mut forks = machine.visit_forks(&site.domain, 9);
    for _ in 0..9 {
        let (outcome, n) = allocations(|| {
            let mut ctx = forks.next()?;
            Some(profile.visit(ClientKind::OpenWpm, &runtime, &mut ctx))
        });
        let outcome = outcome.expect("nine forks");
        assert!(outcome.successful);
        assert!(!outcome.first_party.is_empty() && !outcome.third_party.is_empty());
        assert_eq!(n, 2, "a visit allocated beyond its two status vectors");
    }
    assert!(forks.next().is_none());
}

/// The cookie-banner site the scenario-page pins are taken on: two ad
/// slots and a video player, so every kind of generated node is there.
fn banner_site() -> Site {
    Site {
        domain: "banner.test".into(),
        ad_slots: 2,
        has_video: true,
        scenario: Some(ScenarioKind::CookieBanner),
        ..plain_site()
    }
}

/// The site's scenario page, built as a crawl builds it: generated from
/// a context keyed on the campaign seed and the site, then its scenario
/// applied. Returns the page with the allocations the two steps made.
fn banner_page(site: &Site) -> (GeneratedPage, usize) {
    let mut ctx = SimContext::new(derive_seed(1, &site.domain, u64::from(site.rank)));
    allocations(|| {
        let mut page = generate_page(site, &PageStructure::default(), &mut ctx);
        apply_scenario(&mut page, ScenarioKind::CookieBanner);
        page
    })
}

#[test]
fn a_scenario_page_allocates_within_its_pin() {
    let (page, n) = banner_page(&banner_site());
    assert_eq!(page.doc.len(), 42);
    // An owned tag per element, a copied id or a child vector per
    // parent would each add about one allocation per node.
    assert_eq!(n, 43, "generating the page allocated beyond its pin");
    // A built index serves lookups, and the clones that share it,
    // without allocating.
    page.doc.build_index();
    let copy = page.doc.clone();
    let (found, n) = allocations(|| copy.by_id(TARGET_ID));
    assert_eq!((found, n), (Some(page.target), 0));
}

#[test]
fn a_memo_miss_on_a_scenario_page_allocates_within_its_pin() {
    let (page, _) = banner_page(&banner_site());
    page.doc.build_index();
    let config = BrowserConfig::webdriver();
    let world = config.pristine_world();
    let mut browser = Browser::open_with_world(config, page.doc.clone(), world);
    let mut memo = DocumentMemo::new(dynamics::dismiss_banner);
    // The miss copies the tree, reflows it and indexes the output.
    let (dismissed, n) = allocations(|| browser.mutate_document_memo(&mut memo));
    assert!(dismissed);
    // The copy allocates the arena, the root list and the elements'
    // strings; the index its eight arrays.
    assert_eq!(n, 44, "the memo miss allocated beyond its pin");
    browser.reopen(page.doc.clone());
    assert!(browser.mutate_document_memo(&mut memo));
    assert_eq!(memo.hits(), 1, "the second run must replay the first");
}

/// A browser opened on the indexed banner page, as a worker's retained
/// browser is, and the page it can be re-opened on.
fn browser_on_banner_page() -> (Browser, GeneratedPage) {
    let (page, _) = banner_page(&banner_site());
    page.doc.build_index();
    let config = BrowserConfig::webdriver();
    let world = config.pristine_world();
    let browser = Browser::open_with_world(config, page.doc.clone(), world);
    (browser, page)
}

#[test]
fn reopening_on_a_copy_of_a_scenario_page_allocates_within_its_pin() {
    let (mut browser, page) = browser_on_banner_page();
    // The copy shares the page's tree, index and URL, the re-open keeps
    // the browser's buffers and resets its time to 0.
    let ((), n) = allocations(|| browser.reopen(page.doc.clone()));
    assert_eq!(browser.document(), &page.doc);
    assert_eq!(n, 0, "re-opening on a page copy allocated");
}

#[test]
fn a_memo_hit_on_a_scenario_page_allocates_within_its_pin() {
    let (mut browser, page) = browser_on_banner_page();
    let mut memo = DocumentMemo::new(dynamics::dismiss_banner);
    assert!(browser.mutate_document_memo(&mut memo));
    browser.reopen(page.doc.clone());
    // The hit shares the stored output's tree, index and URL.
    let (dismissed, n) = allocations(|| browser.mutate_document_memo(&mut memo));
    assert!(dismissed);
    assert_eq!(memo.hits(), 1, "the second run must replay the first");
    assert_eq!(n, 0, "the memo hit allocated beyond its pin");
}
