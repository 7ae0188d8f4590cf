//! Allocation counts of a warm scenario drive, pinned with `hlisa-web`'s
//! counting global allocator.
//!
//! A campaign worker drives a site's visits back to back through one
//! `ScenarioScratch`: the first visit generates and indexes the page,
//! builds the browser and runs the page program through its memo; every
//! later visit re-opens the retained browser on a shared copy of the
//! cached page and replays the stored mutation. These pins count what one
//! such warm drive still allocates, per scenario kind and client, so a
//! per-visit buffer, copy or derived view that comes back shows up here.

#[path = "../../web/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use hlisa_crawler::scenario::{drive_scenario_with, ScenarioScratch};
use hlisa_sim::SimContext;
use hlisa_web::dynamics::ScenarioKind;
use hlisa_web::{ClientKind, Site};

fn scenario_site(kind: ScenarioKind) -> Site {
    Site {
        rank: 120,
        domain: "dynamic.example".into(),
        detector: None,
        ad_slots: 2,
        has_video: false,
        breaks_under_spoofing: false,
        unreachable: false,
        flaky_visit_prob: 0.0,
        first_party_requests: 8,
        third_party_requests: 12,
        scenario: Some(kind),
    }
}

/// The allocations of the second visit of a site, driven through the
/// scratch its first visit warmed, and whether that drive landed.
fn warm_drive(kind: ScenarioKind, client: ClientKind) -> (bool, usize) {
    let site = scenario_site(kind);
    let machine = SimContext::new(42).fork("m2", 0);
    let mut scratch = ScenarioScratch::new();
    let mut forks = machine.visit_forks(&site.domain, 2);
    let mut first = forks.next().expect("two forks");
    drive_scenario_with(&site, kind, client, 7, &mut first, &mut scratch);
    let mut second = forks.next().expect("two forks");
    let out =
        allocations(|| drive_scenario_with(&site, kind, client, 7, &mut second, &mut scratch));
    assert_eq!(scratch.pages_generated(), 1, "the warm visit regenerated");
    assert_eq!(
        scratch.browsers_opened(),
        1,
        "the warm visit built a browser"
    );
    out
}

/// (kind, client, allocations of one warm drive). The re-open and the
/// agent's visit fork allocate nothing: a browser's and a context's time
/// are plain numbers. A Selenium drive queues its steps on the scratch's
/// retained chain, and its failed lookups carry the borrowed locator
/// instead of formatting it.
const PINS: [(ScenarioKind, ClientKind, usize); 6] = [
    (ScenarioKind::CookieBanner, ClientKind::OpenWpm, 0),
    (ScenarioKind::CookieBanner, ClientKind::OpenWpmSpoofed, 0),
    (ScenarioKind::LazyContent, ClientKind::OpenWpm, 0),
    (ScenarioKind::LazyContent, ClientKind::OpenWpmSpoofed, 0),
    (ScenarioKind::SpaMutation, ClientKind::OpenWpm, 0),
    (ScenarioKind::SpaMutation, ClientKind::OpenWpmSpoofed, 0),
];

#[test]
fn warm_scenario_drives_allocate_within_their_pins() {
    for (kind, client, pin) in PINS {
        let (landed, n) = warm_drive(kind, client);
        // Selenium fails every scenario, HLISA recovers every one.
        assert_eq!(
            landed,
            client == ClientKind::OpenWpmSpoofed,
            "{kind:?} {client:?}"
        );
        assert_eq!(
            n, pin,
            "a warm {kind:?} drive by {client:?} allocated off its pin"
        );
    }
}
