//! Dynamic-page scenarios: the page behaviours that separate a crawler
//! that *interacts like a human* from one that teleports.
//!
//! Krumnow et al. ("Analysing and strengthening OpenWPM's reliability")
//! show page dynamism silently corrupting measurements; Gundelach et al.
//! ("Detecting Bot Detection") catalogue detectors keying on how
//! automation copes with overlays and late content. This module models
//! the three classes as *deterministic page programs* layered onto a
//! generated tree page ([`crate::page`]):
//!
//! * [`ScenarioKind::CookieBanner`] — a consent overlay paints above the
//!   whole page until its accept button is clicked; clicks that ignore it
//!   land on the banner, not the target underneath.
//! * [`ScenarioKind::LazyContent`] — the measured content is
//!   `display: none` until the viewport has *scrolled* past a reveal
//!   threshold (an IntersectionObserver-style loader watching wheel
//!   scrolling); a script jump never runs the loader.
//! * [`ScenarioKind::SpaMutation`] — the first click re-renders the
//!   page: the follow-up target is detached and re-created elsewhere, so
//!   coordinates (and node handles) cached before the click go stale.
//!
//! Scenario *application* consumes no RNG — each transformation is a
//! pure function of the page — so campaigns with scenarios disabled stay
//! bit-identical to the pre-scenario model, and the scenario rows are
//! reproducible where enabled.

use crate::page::GeneratedPage;
use crate::visit::VisualOutcome;
use hlisa_browser::dom::DocumentMutator;
use hlisa_browser::{Display, ElementBuilder, NodeId, Rect};
use serde::{Deserialize, Serialize};

/// A dynamic-page behaviour a site can exhibit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// A consent wall occludes the page until dismissed.
    CookieBanner,
    /// Content lays out only after genuine scrolling reaches it.
    LazyContent,
    /// The first interaction re-renders the page under the crawler.
    SpaMutation,
}

impl ScenarioKind {
    /// All scenario kinds, in fixed order.
    pub const ALL: [ScenarioKind; 3] = [
        ScenarioKind::CookieBanner,
        ScenarioKind::LazyContent,
        ScenarioKind::SpaMutation,
    ];

    /// The screenshot-level outcome a visit shows when a crawler fails
    /// to cope with this scenario — each kind gets its own Table 2 row.
    pub fn failure_outcome(&self) -> VisualOutcome {
        match self {
            ScenarioKind::CookieBanner => VisualOutcome::StuckOnOverlay,
            ScenarioKind::LazyContent => VisualOutcome::MissingLazyContent,
            ScenarioKind::SpaMutation => VisualOutcome::StaleElement,
        }
    }
}

/// How many sites of the population exhibit each scenario. The default
/// is all-zero: no site is dynamic, and population generation and every
/// downstream campaign remain bit-identical to the pre-scenario model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ScenarioMix {
    /// Sites with a consent wall.
    pub cookie_banner: usize,
    /// Sites with scroll-gated lazy content.
    pub lazy_content: usize,
    /// Sites that re-render on first interaction.
    pub spa_mutation: usize,
}

impl ScenarioMix {
    /// Total scenario sites requested.
    pub fn total(&self) -> usize {
        self.cookie_banner + self.lazy_content + self.spa_mutation
    }
}

/// `id` attribute of the consent overlay root.
pub const BANNER_ID: &str = "cookie-banner";
/// `id` attribute of the overlay's accept (dismiss) button.
pub const ACCEPT_ID: &str = "cookie-accept";
/// `id` attribute of the scroll-gated section.
pub const LAZY_ID: &str = "lazy-section";
/// `id` attribute of the button inside the lazy section — the element a
/// lazy-content visit must interact with.
pub const LAZY_TARGET_ID: &str = "lazy-cta";
/// `id` attribute of the post-click confirmation button (the element an
/// SPA visit must click second).
pub const CONFIRM_ID: &str = "confirm";

/// Fraction of the page height the viewport bottom must have scrolled
/// past for the lazy loader to fire.
pub const LAZY_REVEAL_FRACTION: f64 = 0.6;

/// The scroll offset at which the lazy loader reveals its section.
pub fn lazy_reveal_threshold(page_height: f64, viewport_height: f64) -> f64 {
    (LAZY_REVEAL_FRACTION * page_height - viewport_height).max(0.0)
}

/// Applies a scenario's initial page state to a generated page. Pure —
/// consumes no RNG; geometry comes from the authored overlay boxes and
/// the deterministic reflow, which runs once, after the scenario's
/// nodes are in.
pub fn apply_scenario(page: &mut GeneratedPage, kind: ScenarioKind) {
    let (target, body) = (page.target, page.body);
    page.doc.mutate(|m| match kind {
        ScenarioKind::CookieBanner => {
            // A modal centred over the primary target, one paint layer
            // up, with the accept button in its lower-left corner.
            let target_rect = m.doc().element(target).rect;
            let c = target_rect.center();
            let w = (m.doc().page_width * 0.6).max(320.0);
            let h = 240.0;
            let banner_rect = Rect::new((c.x - w / 2.0).max(0.0), (c.y - h / 2.0).max(0.0), w, h);
            let banner = m.append_root(
                ElementBuilder::new("div", banner_rect)
                    .id(BANNER_ID)
                    .layer(1)
                    .text("We value your privacy")
                    .build(),
            );
            m.append_child(
                banner,
                ElementBuilder::new(
                    "button",
                    Rect::new(banner_rect.x + 24.0, banner_rect.y + h - 52.0, 120.0, 32.0),
                )
                .id(ACCEPT_ID)
                .text("Accept all")
                .build(),
            );
        }
        ScenarioKind::LazyContent => {
            // The measured content sits in a display:none section at the
            // end of the body; until revealed it has no geometry and no
            // locator presence.
            let section = m.append_child(
                body,
                ElementBuilder::flow("section", Display::None)
                    .id(LAZY_ID)
                    .build(),
            );
            m.append_child(
                section,
                ElementBuilder::flow(
                    "button",
                    Display::Block {
                        height: 40.0,
                        width_frac: 0.3,
                        margin: 8.0,
                        padding: 0.0,
                    },
                )
                .id(LAZY_TARGET_ID)
                .text("Load more")
                .build(),
            );
        }
        ScenarioKind::SpaMutation => {
            // The confirmation button exists up front (so a naive driver
            // can cache its coordinates), flowing right after the target.
            m.append_child(
                body,
                ElementBuilder::flow(
                    "button",
                    Display::Block {
                        height: 40.0,
                        width_frac: 0.25,
                        margin: 10.0,
                        padding: 0.0,
                    },
                )
                .id(CONFIRM_ID)
                .text("Confirm")
                .build(),
            );
        }
    });
}

/// Page program: dismisses the consent overlay (what clicking
/// [`ACCEPT_ID`] runs). Returns whether an overlay was present.
pub fn dismiss_banner(m: &mut DocumentMutator) -> bool {
    match m.doc().by_id(BANNER_ID) {
        Some(banner) => {
            m.detach(banner);
            true
        }
        None => false,
    }
}

/// Page program: the lazy loader. Fires when called with the viewport
/// scrolled past [`lazy_reveal_threshold`] *by a wheel-origin scroll* —
/// the caller (the browser harness) is responsible for only invoking it
/// on genuine scroll events, mirroring an IntersectionObserver that
/// never sees a teleporting `window.scrollTo`. Returns whether the
/// section was revealed by this call.
pub fn reveal_lazy(m: &mut DocumentMutator) -> bool {
    match m.doc().ids().find(|&i| m.doc().element(i).id == LAZY_ID) {
        Some(section) => {
            if m.doc().in_tree(section) {
                return false; // already revealed
            }
            m.set_display(
                section,
                Display::Block {
                    height: 60.0,
                    width_frac: 1.0,
                    margin: 8.0,
                    padding: 6.0,
                },
            );
            true
        }
        None => false,
    }
}

/// Page program: the SPA re-render triggered by the first click on the
/// primary target. The confirmation button is detached and re-created at
/// a different place (an absolute modal near the page top), so cached
/// geometry and node handles for [`CONFIRM_ID`] go stale. Returns the
/// fresh node, or `None` if the page has no confirmation button.
pub fn spa_rerender(m: &mut DocumentMutator) -> Option<NodeId> {
    let old = m.doc().by_id(CONFIRM_ID)?;
    let page_w = m.doc().page_width;
    m.detach(old);
    Some(
        m.append_root(
            ElementBuilder::new("button", Rect::new(page_w * 0.5 - 80.0, 120.0, 160.0, 40.0))
                .id(CONFIRM_ID)
                .layer(1)
                .text("Really confirm")
                .build(),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{generate_page, PageStructure};
    use crate::population::{generate_population, PopulationConfig};
    use hlisa_sim::SimContext;

    fn scenario_page(kind: ScenarioKind) -> GeneratedPage {
        let cfg = PopulationConfig {
            n_sites: 1,
            unreachable_sites: 0,
            webdriver_visible: (0, 0, 0, 0),
            template_visible: (0, 0, 0),
            silent_http: (0, 0),
            breakage_sites: 0,
            ..PopulationConfig::default()
        };
        let site = generate_population(&cfg).remove(0);
        let mut page = generate_page(&site, &PageStructure::default(), &mut SimContext::new(5));
        apply_scenario(&mut page, kind);
        page
    }

    #[test]
    fn banner_occludes_target_until_dismissed() {
        let mut page = scenario_page(ScenarioKind::CookieBanner);
        let target_center = page.doc.element(page.target).rect.center();
        let banner = page.doc.by_id(BANNER_ID).unwrap();
        // A click aimed at the target lands on the overlay.
        assert_eq!(page.doc.hit_test(target_center), Some(banner));
        // The accept button paints above the banner.
        let accept = page.doc.by_id(ACCEPT_ID).unwrap();
        let accept_center = page.doc.element(accept).rect.center();
        assert_eq!(page.doc.hit_test(accept_center), Some(accept));
        // Dismissing restores the target.
        let dismissed = page.doc.mutate(dismiss_banner);
        assert!(dismissed);
        assert_eq!(page.doc.hit_test(target_center), Some(page.target));
        assert!(page.doc.by_id(BANNER_ID).is_none());
        // Idempotent: a second dismissal finds nothing.
        assert!(!page.doc.mutate(dismiss_banner));
    }

    #[test]
    fn lazy_section_only_exists_after_reveal() {
        let mut page = scenario_page(ScenarioKind::LazyContent);
        assert!(page.doc.by_id(LAZY_ID).is_none());
        assert!(page.doc.by_id(LAZY_TARGET_ID).is_none());
        let h_before = page.doc.page_height;
        let revealed = page.doc.mutate(reveal_lazy);
        assert!(revealed);
        let lazy = page.doc.by_id(LAZY_ID).unwrap();
        let cta = page.doc.by_id(LAZY_TARGET_ID).unwrap();
        let r = page.doc.element(cta).rect;
        assert!(r.height > 0.0, "lazy target has no box after reveal");
        assert_eq!(page.doc.hit_test(r.center()), Some(cta));
        assert!(page.doc.element(lazy).rect.height > 0.0);
        assert!(page.doc.page_height >= h_before);
        // Second reveal is a no-op.
        assert!(!page.doc.mutate(reveal_lazy));
    }

    #[test]
    fn spa_rerender_invalidates_cached_geometry() {
        let mut page = scenario_page(ScenarioKind::SpaMutation);
        let stale = page.doc.by_id(CONFIRM_ID).unwrap();
        let stale_center = page.doc.element(stale).rect.center();
        let fresh = page.doc.mutate(spa_rerender).unwrap();
        assert_ne!(stale, fresh);
        // The old handle is detached; the cached point no longer hits a
        // confirmation button.
        assert!(!page.doc.in_tree(stale));
        assert_ne!(page.doc.hit_test(stale_center), Some(stale));
        // A re-query finds the fresh node at its new location.
        assert_eq!(page.doc.by_id(CONFIRM_ID), Some(fresh));
        let fresh_center = page.doc.element(fresh).rect.center();
        assert_eq!(page.doc.hit_test(fresh_center), Some(fresh));
    }

    #[test]
    fn scenario_application_is_deterministic() {
        for kind in ScenarioKind::ALL {
            let a = scenario_page(kind);
            let b = scenario_page(kind);
            assert_eq!(a.doc, b.doc, "{kind:?} application must be pure");
        }
    }

    #[test]
    fn failure_outcomes_are_distinct_rows() {
        let outcomes: Vec<_> = ScenarioKind::ALL
            .iter()
            .map(|k| k.failure_outcome())
            .collect();
        for (i, a) in outcomes.iter().enumerate() {
            for b in &outcomes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn reveal_threshold_tracks_page_height() {
        assert_eq!(lazy_reveal_threshold(2_000.0, 720.0), 480.0);
        assert_eq!(lazy_reveal_threshold(500.0, 720.0), 0.0);
    }
}
