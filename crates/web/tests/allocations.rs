//! Allocation counts of the visit hot path and of a scenario page's
//! set-up, pinned with the counting global allocator of
//! `counting_alloc`.
//!
//! A `SimContext` keeps its first streams inline and its time as a plain
//! number, a `SiteProfile` derives its background codes into one exactly
//! sized buffer, a site's visit contexts come from `visit_forks`, and a
//! `VisitOutcome` holds its status codes inline. So a warm plain visit
//! allocates nothing, and neither does recording it through any capture
//! mode's observers once the worker's event and write-ahead buffers are
//! warm. A change that brings back a per-stream `String`, a shared
//! clock, a heap status list, a growing buffer or a per-visit derivation
//! shows up here as an allocation.
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
use hlisa_sim::{
    LossSchedule, LossyObserver, Observer, Rng, SimContext, WriteAheadObserver, STREAM_REGISTRY,
};
use hlisa_stats::rngutil::derive_seed;
use hlisa_web::dynamics::{self, apply_scenario, ScenarioKind};
use hlisa_web::page::TARGET_ID;
use hlisa_web::visit::DetectorRuntime;
use hlisa_web::{
    emit_capture_events_into, generate_page, generate_population, CaptureEvent, CaptureRecorder,
    ClientKind, GeneratedPage, PageStructure, PopulationConfig, Site, SiteProfile, VisitOutcome,
    DEFAULT_VISIT_DEADLINE_MS,
};

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
fn a_warm_plain_visit_allocates_nothing() {
    let site = plain_site();
    let runtime = DetectorRuntime::new();
    let profile = SiteProfile::new(&site);
    let machine = SimContext::new(42).fork("m1", 0);
    // Warm-up: the first visit may fill lazily built shared state.
    for mut ctx in machine.visit_forks(&site.domain, 1) {
        profile.visit(ClientKind::OpenWpm, &runtime, &mut ctx);
    }
    // The outcome holds its status codes inline; the fork allocates
    // nothing.
    let mut forks = machine.visit_forks(&site.domain, 9);
    for _ in 0..9 {
        let (outcome, n) = allocations(|| {
            let mut ctx = forks.next()?;
            Some(profile.visit(ClientKind::OpenWpm, &runtime, &mut ctx))
        });
        let outcome = outcome.expect("nine forks");
        assert!(outcome.successful);
        assert!(!outcome.first_party.is_empty() && !outcome.third_party.is_empty());
        assert_eq!(n, 0, "a warm plain visit allocated");
    }
    assert!(forks.next().is_none());
}

/// The crawler's three capture modes (`hlisa_crawler::CaptureMode`).
#[derive(Debug, Clone, Copy)]
enum Mode {
    Pristine,
    NaiveLossy,
    Strengthened,
}

/// Records one visit's `events` through `mode`'s observers, as the
/// crawler's capture stage does: a bare recorder, a recorder behind the
/// lossy channel, or a recorder behind a write-ahead channel that borrows
/// the worker's retained `write_ahead` buffer and hands it back.
fn record(
    mode: Mode,
    events: &[(f64, CaptureEvent)],
    schedule: LossSchedule,
    write_ahead: &mut Vec<(f64, CaptureEvent)>,
) -> VisitOutcome {
    let recorder = match mode {
        Mode::Pristine => {
            let mut recorder = CaptureRecorder::new();
            for (t, e) in events {
                recorder.on_event(*t, e);
            }
            recorder
        }
        Mode::NaiveLossy => {
            let mut lossy =
                LossyObserver::new(CaptureRecorder::new(), schedule, DEFAULT_VISIT_DEADLINE_MS);
            for (t, e) in events {
                lossy.on_event(*t, e);
            }
            lossy.into_inner()
        }
        Mode::Strengthened => {
            let buffer = std::mem::take(write_ahead);
            let mut wal = WriteAheadObserver::detached_with(CaptureRecorder::new(), buffer);
            let attach_at_ms = schedule.attach_at * DEFAULT_VISIT_DEADLINE_MS;
            for (t, e) in events {
                if *t >= attach_at_ms {
                    wal.attach();
                }
                wal.on_event(*t, e);
            }
            let (recorder, buffer) = wal.into_parts();
            *write_ahead = buffer;
            recorder
        }
    };
    recorder.into_outcome()
}

#[test]
fn a_warm_captured_visit_allocates_nothing_in_any_mode() {
    let site = plain_site();
    let runtime = DetectorRuntime::new();
    let profile = SiteProfile::new(&site);
    let machine = SimContext::new(42).fork("m1", 0);
    // Attaches late, drops a window and loses some events at random, so
    // every channel does its work.
    let schedule = LossSchedule {
        attach_at: 0.1,
        dropout: Some((0.2, 0.3)),
        partial: Some((0.2, 9)),
    };
    let (mut events, mut write_ahead) = (Vec::new(), Vec::new());
    for mode in [Mode::Pristine, Mode::NaiveLossy, Mode::Strengthened] {
        // The first visit warms the worker's buffers.
        for (i, mut ctx) in machine.visit_forks(&site.domain, 4).enumerate() {
            let ((truth, recorded), n) = allocations(|| {
                let truth = profile.visit(ClientKind::OpenWpm, &runtime, &mut ctx);
                let timeline = profile.timeline();
                emit_capture_events_into(timeline, &truth, DEFAULT_VISIT_DEADLINE_MS, &mut events);
                let recorded = record(mode, &events, schedule, &mut write_ahead);
                (truth, recorded)
            });
            match mode {
                Mode::NaiveLossy => assert_ne!(recorded, truth, "the lossy channel lost nothing"),
                _ => assert_eq!(recorded, truth, "{mode:?} lost an event"),
            }
            if i > 0 {
                assert_eq!(n, 0, "a warm {mode:?} captured visit allocated");
            }
        }
    }
    assert!(
        write_ahead.capacity() > 0,
        "the write-ahead buffer was not kept"
    );
}

#[test]
fn generated_sites_keep_their_status_codes_inline() {
    // 919 detector sites of 1,000, 38% of them template attacks: the
    // blocking and ad-hiding reactions that cut a visit's codes short,
    // and the 403/503 responders that rewrite them.
    let dense = PopulationConfig {
        seed: 11,
        webdriver_visible: (114, 46, 91, 23),
        template_visible: (87, 87, 175),
        silent_http: (205, 91),
        ..PopulationConfig::default()
    };
    let runtime = DetectorRuntime::new();
    for config in [PopulationConfig::default(), dense] {
        let sites = generate_population(&config);
        let machine = SimContext::new(config.seed);
        for site in &sites {
            let profile = SiteProfile::new(site);
            for (client, mut ctx) in [ClientKind::OpenWpm, ClientKind::OpenWpmSpoofed]
                .into_iter()
                .zip(machine.visit_forks(&site.domain, 2))
            {
                let outcome = profile.visit(client, &runtime, &mut ctx);
                assert!(
                    !outcome.first_party.spilled() && !outcome.third_party.spilled(),
                    "{} spilled its status codes ({} + {} requests)",
                    site.domain,
                    site.first_party_requests,
                    site.third_party_requests
                );
            }
        }
    }
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
