//! Differential test: the row-band index against the linear reference
//! models, on the documents a crawl drives.
//!
//! `hlisa-browser`'s `hit_test_differential.rs` covers random box soups
//! and random trees. The documents a `dynamic_pages` crawl queries
//! millions of times are generated scenario pages: nested full-width
//! containers that span most of the page, a layered overlay, a detached
//! lazy section. Here arbitrary sites × the three scenario kinds × two
//! campaign seeds each give a page, built as a crawl builds it. On the
//! page as generated, and on what each page program (`dismiss_banner`,
//! `reveal_lazy`, `spa_rerender`) leaves when applied through a
//! `DocumentMemo`, `hit_test` must equal `hit_test_linear` over a probe
//! lattice that includes the page edges, every box's corners and points
//! off the page, and `by_id` must equal `by_id_linear` for every id on
//! the page.

use hlisa_browser::dom::DocumentMutator;
use hlisa_browser::{Browser, BrowserConfig, Document, DocumentMemo, Point, World};
use hlisa_sim::SimContext;
use hlisa_stats::rngutil::derive_seed;
use hlisa_web::dynamics::{self, apply_scenario, ScenarioKind};
use hlisa_web::{generate_page, PageStructure, Site};
use proptest::prelude::*;
use std::sync::Arc;

/// The campaign seeds every site's pages are generated under.
const CAMPAIGN_SEEDS: [u64; 2] = [1, 0x5eed];

fn site(rank: u32, name: u32, ad_slots: u8, has_video: bool) -> Site {
    Site {
        rank,
        domain: format!("site{name}.test"),
        detector: None,
        ad_slots,
        has_video,
        breaks_under_spoofing: false,
        unreachable: false,
        flaky_visit_prob: 0.0,
        first_party_requests: 8,
        third_party_requests: 14,
        scenario: None,
    }
}

/// The site's scenario page as the crawler renders it: structure drawn
/// from a context keyed on the campaign seed and the site, then the
/// scenario applied.
fn scenario_page(site: &Site, kind: ScenarioKind, campaign_seed: u64) -> Document {
    let mut ctx = SimContext::new(derive_seed(
        campaign_seed,
        &site.domain,
        u64::from(site.rank),
    ));
    let mut page = generate_page(site, &PageStructure::default(), &mut ctx);
    apply_scenario(&mut page, kind);
    page.doc
}

/// Probe points: a lattice from 1/8 of the page before its origin to 1/8
/// past its far edge (the edges themselves included), plus every
/// element's box corners and centre.
fn probes(doc: &Document) -> Vec<Point> {
    let (w, h) = (doc.page_width, doc.page_height);
    let mut points = Vec::new();
    for i in -1..=9 {
        for j in -1..=9 {
            points.push(Point::new(f64::from(i) * w / 8.0, f64::from(j) * h / 8.0));
        }
    }
    for id in doc.ids() {
        let r = doc.element(id).rect;
        points.push(Point::new(r.x, r.y));
        points.push(Point::new(r.x + r.width, r.y + r.height));
        points.push(r.center());
    }
    points
}

fn assert_index_agrees(doc: &Document, what: &str) {
    for p in probes(doc) {
        assert_eq!(
            doc.hit_test(p),
            doc.hit_test_linear(p),
            "{what}: hit_test at {p:?}"
        );
    }
    let ids = doc.ids().map(|i| doc.element(i).id.as_str());
    for id in ids.chain(["missing"]) {
        assert_eq!(doc.by_id(id), doc.by_id_linear(id), "{what}: by_id({id})");
    }
}

/// Runs the program through a memo, as a drive does, on an unwritten
/// copy of `doc` and checks the document it leaves.
fn check_program<R: Clone>(
    doc: &Document,
    world: &Arc<World>,
    program: fn(&mut DocumentMutator) -> R,
    what: &str,
) {
    let mut browser =
        Browser::open_with_world(BrowserConfig::webdriver(), doc.clone(), Arc::clone(world));
    browser.mutate_document_memo(&mut DocumentMemo::new(program));
    assert_index_agrees(browser.document(), what);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn scenario_pages_index_like_the_linear_reference(
        rank in 1u32..10_000,
        name in 0u32..1_000_000,
        ad_slots in 0u8..7,
        video in 0u8..2,
    ) {
        let site = site(rank, name, ad_slots, video == 1);
        let world = BrowserConfig::webdriver().pristine_world();
        for kind in ScenarioKind::ALL {
            for seed in CAMPAIGN_SEEDS {
                let doc = scenario_page(&site, kind, seed);
                let what = format!("{} {kind:?} seed {seed}", site.domain);
                assert_index_agrees(&doc, &what);
                let dismissed = format!("{what}, banner dismissed");
                check_program(&doc, &world, dynamics::dismiss_banner, &dismissed);
                let revealed = format!("{what}, lazy section revealed");
                check_program(&doc, &world, dynamics::reveal_lazy, &revealed);
                let rerendered = format!("{what}, SPA re-rendered");
                check_program(&doc, &world, dynamics::spa_rerender, &rerendered);
            }
        }
    }
}
