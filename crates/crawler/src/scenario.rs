//! Dynamic-page scenario drives: §4.1's interaction failure modes run
//! differentially.
//!
//! Sites assigned a [`ScenarioKind`] render a page that changes *during*
//! the visit — a consent overlay occludes the target, content lays out
//! only after scrolling, or an SPA re-render swaps the node a handle
//! points at. Machine (1) drives them the way stock OpenWPM does
//! (Selenium action chains, script scrolls, cached element handles);
//! machine (2) drives them the way HLISA does (raw OS input from the
//! human models, wheel scrolling, re-querying after mutations). The two
//! drives land in different [`VisualOutcome`] rows of Table 2, which is
//! exactly the differential the paper's screenshot review reads off.
//!
//! The drives consume only forked streams (`"scenario"`) and the page is
//! a function of the campaign seed and the site alone, so machines see
//! the same page and campaigns without scenario sites are bit-identical
//! to the pre-scenario model.

use hlisa_browser::events::EventKind;
use hlisa_browser::viewport::WHEEL_TICK_PX;
use hlisa_browser::{Browser, BrowserConfig, Document, DocumentMemo, NodeId};
use hlisa_human::{HumanAgent, HumanParams};
use hlisa_sim::SimContext;
use hlisa_stats::rngutil::derive_seed;
use hlisa_web::dynamics::{
    self, lazy_reveal_threshold, ScenarioKind, ACCEPT_ID, CONFIRM_ID, LAZY_TARGET_ID,
};
use hlisa_web::page::TARGET_ID;
use hlisa_web::{apply_scenario, generate_page, GeneratedPage, PageStructure};
use hlisa_web::{ClientKind, Site, VisitOutcome, VisualOutcome};
use hlisa_webdriver::{By, ElementHandle, SeleniumActionChains, Session};

/// Renders the site's scenario page. Structure is keyed on the campaign
/// seed and the site's identity only — never the machine or visit — so
/// both machines drive byte-identical documents and the differential in
/// Table 2 is attributable to the drive alone.
pub fn scenario_page(site: &Site, kind: ScenarioKind, campaign_seed: u64) -> GeneratedPage {
    let mut page_ctx = SimContext::new(derive_seed(
        campaign_seed,
        &site.domain,
        u64::from(site.rank),
    ));
    let mut page = generate_page(site, &PageStructure::default(), &mut page_ctx);
    apply_scenario(&mut page, kind);
    page
}

/// Worker-retained scratch for the scenario drives. It holds four
/// things, the session and the page built lazily by the first drive that
/// needs them:
///
/// * one persistent [`HumanAgent`] rebound to each visit's forked context
///   instead of built fresh per drive, so recovery steps (banner dismiss,
///   re-locate, re-click) reuse the agent's trajectory and typing
///   buffers. Rebinding changes no draw — the agent's streams come wholly
///   from the fork;
/// * one WebDriver [`Session`] — the worker's automated browser, as each
///   crawl instance keeps one in the paper. Every drive borrows it: a
///   Selenium drive drives the session, an HLISA drive its browser. Its
///   WebDriver-flavour [`Browser`] is re-opened on each drive's page
///   ([`Browser::reopen`] gives exactly the state a fresh open does) so
///   its event buffers keep their capacity from drive to drive; no drive
///   installs an auditor or changes the pointer profile, so the browser
///   is all of the session a drive changes. The browser keeps the
///   pristine page world it was first opened with, which every drive
///   shares copy-on-write instead of re-running the world builder
///   (construction is deterministic and RNG-free; no drive writes it).
///   The session is boxed so it adds one word to the scratch: a
///   worker builds its scratch on a fresh stack even in campaigns that
///   never drive a scenario;
/// * one Selenium action chain, which every Selenium drive queues its
///   move and click on and performs without consuming, so its step
///   storage is reused instead of grown afresh per drive;
/// * the most recently generated scenario page, keyed on everything
///   [`scenario_page`] reads — the campaign seed, the [`ScenarioKind`] and
///   the whole [`Site`] — with its kind's page program memoised. A site's
///   visits run back to back, so each visit after the first shares the
///   document instead of regenerating it, and swaps in the stored
///   mutation instead of re-running the program.
///
/// None of the four can influence a draw, so drives through a reused
/// scratch are bit-identical to fresh-scratch drives (pinned by
/// regression and differential tests).
#[derive(Debug)]
pub struct ScenarioScratch {
    human: HumanAgent,
    session: Option<Box<Session>>,
    selenium: SeleniumActionChains,
    page: Option<CachedPage>,
    pages_generated: u64,
    browsers_opened: u64,
}

/// A generated scenario page with the complete key it was generated from,
/// and its kind's page program.
#[derive(Debug)]
struct CachedPage {
    campaign_seed: u64,
    kind: ScenarioKind,
    site: Site,
    doc: Document,
    program: PageProgram,
}

/// The page program a scenario page runs mid-visit, one variant per
/// [`ScenarioKind`], memoised for the cached page: every drive opens an
/// unwritten copy of the same document, so the first drive's mutation
/// serves every later one. A drive matches on the program, so the kind it
/// drives and the program it runs cannot disagree.
#[derive(Debug)]
enum PageProgram {
    CookieBanner(DocumentMemo<bool>),
    LazyContent(DocumentMemo<bool>),
    SpaMutation(DocumentMemo<Option<NodeId>>),
}

impl PageProgram {
    fn for_kind(kind: ScenarioKind) -> Self {
        match kind {
            ScenarioKind::CookieBanner => {
                PageProgram::CookieBanner(DocumentMemo::new(dynamics::dismiss_banner))
            }
            ScenarioKind::LazyContent => {
                PageProgram::LazyContent(DocumentMemo::new(dynamics::reveal_lazy))
            }
            ScenarioKind::SpaMutation => {
                PageProgram::SpaMutation(DocumentMemo::new(dynamics::spa_rerender))
            }
        }
    }
}

impl CachedPage {
    fn is_for(&self, site: &Site, kind: ScenarioKind, campaign_seed: u64) -> bool {
        self.campaign_seed == campaign_seed && self.kind == kind && self.site == *site
    }
}

impl ScenarioScratch {
    /// A fresh scratch with cold buffers, no world and no page.
    pub fn new() -> Self {
        Self {
            human: HumanAgent::with_context(HumanParams::paper_baseline(), SimContext::new(0)),
            session: None,
            selenium: SeleniumActionChains::new(),
            page: None,
            pages_generated: 0,
            browsers_opened: 0,
        }
    }

    /// The retained agent's scratch capacities (see
    /// [`HumanAgent::scratch_capacities`]) — frozen capacities across
    /// drives prove the recovery hot path allocates nothing.
    pub fn capacities(&self) -> [usize; 5] {
        self.human.scratch_capacities()
    }

    /// How many scenario pages this scratch has generated — one per run
    /// of consecutive drives of the same site, not one per drive.
    pub fn pages_generated(&self) -> u64 {
        self.pages_generated
    }

    /// How many browsers this scratch has built — one for its whole life,
    /// since every later drive re-opens the retained one.
    pub fn browsers_opened(&self) -> u64 {
        self.browsers_opened
    }

    /// Opens the drive's WebDriver browser on the site's scenario page —
    /// the page from the cache (regenerated only when the key changed),
    /// shared, in the retained session's browser — and hands out the
    /// session with the page's program, the agent and the Selenium chain
    /// alongside it.
    fn open(
        &mut self,
        site: &Site,
        kind: ScenarioKind,
        campaign_seed: u64,
    ) -> (
        &mut Session,
        &mut PageProgram,
        &mut HumanAgent,
        &mut SeleniumActionChains,
    ) {
        if !self
            .page
            .as_ref()
            .is_some_and(|p| p.is_for(site, kind, campaign_seed))
        {
            self.page = None;
        }
        let page = self.page.get_or_insert_with(|| {
            self.pages_generated += 1;
            let doc = scenario_page(site, kind, campaign_seed).doc;
            // Every visit's clone shares the index built here.
            doc.build_index();
            CachedPage {
                campaign_seed,
                kind,
                site: site.clone(),
                doc,
                program: PageProgram::for_kind(kind),
            }
        });
        let doc = page.doc.clone();
        let session = match self.session {
            Some(ref mut session) => {
                session.browser.reopen(doc);
                session
            }
            None => {
                self.browsers_opened += 1;
                let config = BrowserConfig::webdriver();
                let world = config.pristine_world();
                let browser = Browser::open_with_world(config, doc, world);
                self.session.insert(Box::new(Session::new(browser)))
            }
        };
        (
            session,
            &mut page.program,
            &mut self.human,
            &mut self.selenium,
        )
    }
}

impl Default for ScenarioScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs the scenario drive for one visit and overrides the screenshot
/// verdict when the drive fails. Visits that never rendered normally
/// (blocked, CAPTCHA'd, flaky, …) keep their original outcome: the
/// scenario layer only refines *successful-looking* visits, so campaigns
/// whose population assigns no scenarios are bit-identical.
pub fn apply_scenario_drive(
    campaign_seed: u64,
    site: &Site,
    kind: ScenarioKind,
    client: ClientKind,
    outcome: &mut VisitOutcome,
    ctx: &mut SimContext,
) {
    let mut scratch = ScenarioScratch::new();
    apply_scenario_drive_with(
        campaign_seed,
        site,
        kind,
        client,
        outcome,
        ctx,
        &mut scratch,
    );
}

/// Like [`apply_scenario_drive`], reusing a worker-retained
/// [`ScenarioScratch`] — the campaign engine's per-worker form.
#[allow(clippy::too_many_arguments)]
pub fn apply_scenario_drive_with(
    campaign_seed: u64,
    site: &Site,
    kind: ScenarioKind,
    client: ClientKind,
    outcome: &mut VisitOutcome,
    ctx: &mut SimContext,
    scratch: &mut ScenarioScratch,
) {
    if !outcome.successful || outcome.visual != VisualOutcome::Normal {
        return;
    }
    if !drive_scenario_with(site, kind, client, campaign_seed, ctx, scratch) {
        outcome.visual = kind.failure_outcome();
    }
}

/// Drives one scenario visit to completion. Returns whether the primary
/// interaction actually landed on its intended element.
pub fn drive_scenario(
    site: &Site,
    kind: ScenarioKind,
    client: ClientKind,
    campaign_seed: u64,
    ctx: &mut SimContext,
) -> bool {
    let mut scratch = ScenarioScratch::new();
    drive_scenario_with(site, kind, client, campaign_seed, ctx, &mut scratch)
}

/// Like [`drive_scenario`], reusing a worker-retained scratch.
pub fn drive_scenario_with(
    site: &Site,
    kind: ScenarioKind,
    client: ClientKind,
    campaign_seed: u64,
    ctx: &mut SimContext,
    scratch: &mut ScenarioScratch,
) -> bool {
    let (session, program, human, chain) = scratch.open(site, kind, campaign_seed);
    match client {
        ClientKind::OpenWpm => drive_selenium(session, chain, program),
        ClientKind::OpenWpmSpoofed => drive_hlisa(&mut session.browser, program, ctx, human),
    }
}

/// Whether the most recent `click` event was delivered to `id` — the
/// ground truth a screenshot review infers from whatever the click
/// actually triggered.
fn last_click_hit(browser: &Browser, id: NodeId) -> bool {
    browser
        .recorder
        .events()
        .iter()
        .rev()
        .find(|e| e.kind == EventKind::Click)
        .is_some_and(|e| e.target == Some(id))
}

/// The page's lazy loader: it subscribes to *scroll events* and attaches
/// the deferred section once the viewport has passed the reveal
/// threshold. A script jump (`window.scrollBy`) moves the viewport
/// without firing any wheel event, so the loader never runs — the §4.1
/// failure Selenium-style scrolling triggers.
fn maybe_reveal_lazy(browser: &mut Browser, reveal: &mut DocumentMemo<bool>) -> bool {
    let threshold = lazy_reveal_threshold(browser.document().page_height, browser.viewport.height);
    if browser.recorder.wheel_count() == 0 || browser.viewport.scroll_y() < threshold {
        return false;
    }
    browser.mutate_document_memo(reveal)
}

/// Machine (1): the stock OpenWPM drive. Selenium action chains move the
/// pointer straight to the element centre, scrolling is a one-jump
/// script call, and element handles are cached across DOM mutations —
/// each scenario defeats one of those habits.
fn drive_selenium(
    session: &mut Session,
    chain: &mut SeleniumActionChains,
    program: &mut PageProgram,
) -> bool {
    match program {
        PageProgram::CookieBanner(_) => {
            // The locator sees the target fine (the overlay occludes, it
            // does not detach), so the drive marches straight into the
            // banner: the click dispatches to the overlay, not the CTA.
            let Ok(target) = session.find_element(By::Id(TARGET_ID.into())) else {
                return false;
            };
            if session.ensure_interactable(target).is_err() {
                return false;
            }
            selenium_click(session, chain, target);
            last_click_hit(&session.browser, target.node())
        }
        PageProgram::LazyContent(reveal) => {
            // One script jump to the bottom: the viewport moves but no
            // scroll events fire, so the deferred section never attaches
            // and the locator comes back empty-handed.
            let bottom = session.browser.viewport.max_scroll_y();
            session.scroll_by_script(bottom);
            maybe_reveal_lazy(&mut session.browser, reveal);
            let Ok(el) = session.find_element(By::Id(LAZY_TARGET_ID.into())) else {
                return false;
            };
            if session.ensure_interactable(el).is_err() {
                return false;
            }
            selenium_click(session, chain, el);
            last_click_hit(&session.browser, el.node())
        }
        PageProgram::SpaMutation(rerender) => {
            // Locate, then the app re-renders, then interact through the
            // cached handle: the classic stale-element window. The old
            // node is detached, so the click at its remembered geometry
            // cannot reach the fresh button.
            let Ok(confirm) = session.find_element(By::Id(CONFIRM_ID.into())) else {
                return false;
            };
            if session.ensure_interactable(confirm).is_err() {
                return false;
            }
            let Some(fresh) = session.browser.mutate_document_memo(rerender) else {
                return false;
            };
            selenium_click(session, chain, confirm);
            last_click_hit(&session.browser, fresh)
        }
    }
}

/// Selenium's move-then-click on `el`, queued on the scratch's retained
/// chain, so the drive reuses its step storage.
fn selenium_click(session: &mut Session, chain: &mut SeleniumActionChains, el: ElementHandle) {
    *chain = std::mem::take(chain).move_to_element(el).click(Some(el));
    let _ = chain.perform_mut(session);
}

/// Machine (2): the HLISA drive. Raw OS input from the human models —
/// the agent notices the overlay and dismisses it first, scrolls with
/// real wheel ticks, and re-queries the DOM after the app re-renders.
/// The scratch's persistent agent is rebound to this visit's fork, so
/// recovery steps run through warm buffers instead of re-planning from a
/// fresh agent.
fn drive_hlisa(
    browser: &mut Browser,
    program: &mut PageProgram,
    ctx: &mut SimContext,
    human: &mut HumanAgent,
) -> bool {
    human.rebind(ctx.fork("scenario", 0));
    match program {
        PageProgram::CookieBanner(dismiss) => {
            let accept = browser.document().by_id(ACCEPT_ID);
            let target = browser.document().by_id(TARGET_ID);
            let (Some(accept), Some(target)) = (accept, target) else {
                return false;
            };
            // Dismiss-then-interact: click the consent button, let the
            // page's handler remove the overlay, then go for the CTA.
            human.click_element(browser, accept);
            if !last_click_hit(browser, accept) {
                return false;
            }
            browser.mutate_document_memo(dismiss);
            human.settle(browser, 150.0, 600.0);
            human.click_element(browser, target);
            last_click_hit(browser, target)
        }
        PageProgram::LazyContent(reveal) => {
            // Wheel-scroll past the reveal threshold (with a couple of
            // ticks of slack for wheel quantisation): the loader sees
            // real scroll events and attaches the section.
            let threshold =
                lazy_reveal_threshold(browser.document().page_height, browser.viewport.height);
            human.scroll_by(browser, threshold + 3.0 * WHEEL_TICK_PX);
            if !maybe_reveal_lazy(browser, reveal) {
                return false;
            }
            let Some(lazy) = browser.document().by_id(LAZY_TARGET_ID) else {
                return false;
            };
            human.click_element(browser, lazy);
            last_click_hit(browser, lazy)
        }
        PageProgram::SpaMutation(rerender) => {
            // The app re-renders mid-visit; HLISA's recovery is to
            // re-locate by id instead of trusting the stale handle.
            if browser.document().by_id(CONFIRM_ID).is_none() {
                return false;
            }
            if browser.mutate_document_memo(rerender).is_none() {
                return false;
            }
            human.settle(browser, 150.0, 600.0);
            let Some(confirm) = browser.document().by_id(CONFIRM_ID) else {
                return false;
            };
            human.click_element(browser, confirm);
            last_click_hit(browser, confirm)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_web::dynamics::BANNER_ID;

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

    #[test]
    fn both_machines_see_the_same_scenario_page() {
        let site = scenario_site(ScenarioKind::CookieBanner);
        let a = scenario_page(&site, ScenarioKind::CookieBanner, 42);
        let b = scenario_page(&site, ScenarioKind::CookieBanner, 42);
        assert_eq!(a.doc, b.doc);
        assert!(a.doc.by_id(BANNER_ID).is_some());
    }

    #[test]
    fn selenium_fails_every_scenario() {
        for kind in ScenarioKind::ALL {
            let site = scenario_site(kind);
            let mut ctx = SimContext::new(9).fork_visit(&site.domain, 0);
            assert!(
                !drive_scenario(&site, kind, ClientKind::OpenWpm, 42, &mut ctx),
                "selenium drive unexpectedly survived {kind:?}"
            );
        }
    }

    #[test]
    fn hlisa_recovers_every_scenario() {
        for kind in ScenarioKind::ALL {
            let site = scenario_site(kind);
            let mut ctx = SimContext::new(9).fork_visit(&site.domain, 0);
            assert!(
                drive_scenario(&site, kind, ClientKind::OpenWpmSpoofed, 42, &mut ctx),
                "hlisa drive failed {kind:?}"
            );
        }
    }

    #[test]
    fn drives_are_deterministic() {
        let site = scenario_site(ScenarioKind::LazyContent);
        let run = |seed: u64| {
            let mut ctx = SimContext::new(seed).fork_visit(&site.domain, 3);
            drive_scenario(
                &site,
                ScenarioKind::LazyContent,
                ClientKind::OpenWpmSpoofed,
                42,
                &mut ctx,
            )
        };
        assert_eq!(run(5), run(5));
    }

    /// Every recovery drive (banner dismissal, wheel scroll to lazy
    /// content, SPA re-query) through a reused scratch (a) matches the
    /// fresh-agent drive exactly and (b) allocates no new plan buffers
    /// once warm — capacities are frozen across repeat drives of every
    /// scenario kind.
    #[test]
    fn reused_scenario_scratch_is_warm_and_bit_identical() {
        let site = scenario_site(ScenarioKind::CookieBanner);
        let mut scratch = ScenarioScratch::new();
        // Warm-up: one drive of each scenario shape grows every buffer to
        // its high-water mark.
        for kind in ScenarioKind::ALL {
            let mut ctx = SimContext::new(31).fork_visit(&site.domain, 0);
            drive_scenario_with(
                &site,
                kind,
                ClientKind::OpenWpmSpoofed,
                42,
                &mut ctx,
                &mut scratch,
            );
        }
        let warm = scratch.capacities();
        assert!(warm[2] > 0, "no warm-up drive wheel-scrolled");
        // Three kinds, three distinct pages.
        assert_eq!(scratch.pages_generated(), 3);
        for (k, kind) in ScenarioKind::ALL.into_iter().enumerate() {
            for visit in 0..6u64 {
                let mut reused_ctx = SimContext::new(31).fork_visit(&site.domain, visit);
                let reused = drive_scenario_with(
                    &site,
                    kind,
                    ClientKind::OpenWpmSpoofed,
                    42,
                    &mut reused_ctx,
                    &mut scratch,
                );
                let mut fresh_ctx = SimContext::new(31).fork_visit(&site.domain, visit);
                let fresh =
                    drive_scenario(&site, kind, ClientKind::OpenWpmSpoofed, 42, &mut fresh_ctx);
                assert_eq!(
                    reused, fresh,
                    "{kind:?} visit {visit}: reuse changed the verdict"
                );
                assert!(reused, "{kind:?} visit {visit}: recovery must succeed");
                assert_eq!(
                    scratch.capacities(),
                    warm,
                    "{kind:?} visit {visit}: recovery re-allocated plan buffers"
                );
                // Each kind's page is generated on its first visit and
                // shared by every later one, which also replays the first
                // visit's page program.
                assert_eq!(
                    scratch.pages_generated(),
                    4 + k as u64,
                    "{kind:?} visit {visit}: page regenerated"
                );
                assert_eq!(program_replays(&scratch), visit, "{kind:?} visit {visit}");
            }
        }
    }

    /// Everything observable after a drive: the verdict, the final
    /// document, the browser's metrics (`dom.mutations` included) and
    /// time and, for the HLISA drive, the next draw of each of the
    /// agent's `"scenario"`-fork streams.
    fn drive_state(
        site: &Site,
        kind: ScenarioKind,
        client: ClientKind,
        campaign_seed: u64,
        visit: u64,
        scratch: &mut ScenarioScratch,
    ) -> (bool, Document, hlisa_sim::CounterSet, f64, Option<Vec<u64>>) {
        use hlisa_sim::Rng;
        let mut ctx = SimContext::new(77).fork_visit(&site.domain, visit);
        let landed = drive_scenario_with(site, kind, client, campaign_seed, &mut ctx, scratch);
        let browser = &scratch
            .session
            .as_ref()
            .expect("the drive opened a session")
            .browser;
        let agent = (client == ClientKind::OpenWpmSpoofed).then(|| {
            let mut agent = scratch.human.context().clone();
            vec![
                agent.stream("agent").gen::<u64>(),
                agent.stream("cursor").gen::<u64>(),
                agent.stream("click").gen::<u64>(),
                agent.stream("scroll").gen::<u64>(),
                agent.stream("typing").gen::<u64>(),
            ]
        });
        (
            landed,
            browser.document().clone(),
            browser.metrics(),
            browser.now_ms(),
            agent,
        )
    }

    /// How many drives replayed the cached page's stored mutation.
    fn program_replays(scratch: &ScenarioScratch) -> u64 {
        match scratch.page.as_ref().map(|p| &p.program) {
            Some(PageProgram::CookieBanner(m) | PageProgram::LazyContent(m)) => m.hits(),
            Some(PageProgram::SpaMutation(m)) => m.hits(),
            None => 0,
        }
    }

    /// Differential test of the page-cache key: a reused scratch driven
    /// through interleaved sites — same domain with another rank, kind or
    /// layout, and two campaign seeds — must open exactly the page a fresh
    /// generation gives and leave exactly the state a fresh scratch does.
    #[test]
    fn reused_scratch_matches_fresh_scratch_in_any_site_order() {
        use hlisa_sim::Rng;
        let base = scenario_site(ScenarioKind::CookieBanner);
        let mut pool = Vec::new();
        for kind in ScenarioKind::ALL {
            pool.push(scenario_site(kind));
            pool.push(Site {
                rank: base.rank + 1,
                ..scenario_site(kind)
            });
        }
        pool.push(Site {
            ad_slots: 5,
            ..base.clone()
        });
        pool.push(Site {
            domain: "other.example".into(),
            ..base.clone()
        });

        let mut order = hlisa_stats::rngutil::rng_from_seed(5);
        let mut reused = ScenarioScratch::new();
        let mut runs = 0;
        let mut replayed = false;
        let mut previous: Option<(usize, u64)> = None;
        for step in 0..120u64 {
            // Repeat the previous site half the time, so the cache both
            // hits and misses.
            let (i, campaign_seed) = match previous {
                Some(p) if order.gen_bool(0.5) => p,
                _ => (
                    order.gen_range(0..pool.len()),
                    42 + order.gen_range(0..2u64),
                ),
            };
            if previous != Some((i, campaign_seed)) {
                runs += 1;
            }
            previous = Some((i, campaign_seed));
            let site = &pool[i];
            let Some(kind) = site.scenario else {
                unreachable!("every pool site has a scenario")
            };
            let want = scenario_page(site, kind, campaign_seed).doc;
            let (opened, ..) = reused.open(site, kind, campaign_seed);
            assert_eq!(
                opened.browser.document(),
                &want,
                "step {step}: cached page differs from a fresh generation"
            );
            for client in [ClientKind::OpenWpm, ClientKind::OpenWpmSpoofed] {
                let got = drive_state(site, kind, client, campaign_seed, step, &mut reused);
                let mut fresh = ScenarioScratch::new();
                let want = drive_state(site, kind, client, campaign_seed, step, &mut fresh);
                assert_eq!(got, want, "step {step}: {client:?} diverged on {i}");
                replayed |= program_replays(&reused) > 0;
                let mut ctx = SimContext::new(77).fork_visit(&site.domain, step);
                assert_eq!(
                    got.0,
                    drive_scenario(site, kind, client, campaign_seed, &mut ctx),
                    "step {step}: verdict differs from drive_scenario"
                );
            }
        }
        // One generation per run of consecutive same-key drives, the
        // reused scratch served some drives from a stored mutation, and
        // every drive re-opened the one browser it built first.
        assert_eq!(reused.pages_generated(), runs);
        assert!(replayed, "no drive replayed a stored mutation");
        assert_eq!(reused.browsers_opened(), 1);
    }

    #[test]
    fn drive_overrides_only_normal_successful_visits() {
        let site = scenario_site(ScenarioKind::CookieBanner);
        let mut ctx = SimContext::new(1).fork_visit(&site.domain, 0);
        let runtime = hlisa_web::visit::DetectorRuntime::new();
        let mut outcome = hlisa_web::simulate_visit(&site, ClientKind::OpenWpm, &runtime, &mut ctx);
        assert!(outcome.successful);
        apply_scenario_drive(
            42,
            &site,
            ScenarioKind::CookieBanner,
            ClientKind::OpenWpm,
            &mut outcome,
            &mut ctx,
        );
        assert_eq!(outcome.visual, VisualOutcome::StuckOnOverlay);

        // A visit that already failed keeps its verdict untouched.
        let mut blocked = outcome.clone();
        blocked.visual = VisualOutcome::BlockPage;
        let before = blocked.clone();
        apply_scenario_drive(
            42,
            &site,
            ScenarioKind::CookieBanner,
            ClientKind::OpenWpm,
            &mut blocked,
            &mut ctx,
        );
        assert_eq!(blocked, before);
    }
}
