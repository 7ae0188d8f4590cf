//! Human reference corpus for the deviation (level-2) detectors.
//!
//! A level-2 detector "compares the observed interaction to a model of
//! human behaviour" (§5). Its model here is an empirical corpus generated
//! by running the human agent through the same three Appendix E tasks the
//! paper recorded: a repeated click task, typing a ~100-character text, and
//! wheel-scrolling a long page.

use hlisa_browser::dom::{standard_test_page, Document, ElementBuilder};
use hlisa_browser::{Browser, BrowserConfig, Rect};
use hlisa_human::{HumanAgent, HumanParams};
use hlisa_stats::rngutil::derive_seed;

use crate::interaction::TraceFeatures;

/// Empirical human reference distributions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HumanReference {
    /// Key dwell times (ms).
    pub key_dwell_ms: Vec<f64>,
    /// Key flight times (ms; may be negative for rollover).
    pub key_flight_ms: Vec<f64>,
    /// Mouse-button dwell times (ms).
    pub click_dwell_ms: Vec<f64>,
    /// Normalised radial click offsets from element centres.
    pub click_offset_frac: Vec<f64>,
    /// Movement straightness ratios (chord/path).
    pub straightness: Vec<f64>,
    /// Movement speed coefficient of variation per segment.
    pub speed_cv: Vec<f64>,
    /// Gaps between consecutive scroll events (ms).
    pub scroll_gap_ms: Vec<f64>,
}

/// The text used for the typing task (~100 characters, mixed case and
/// punctuation, mirroring Appendix E's "given text of 100 characters").
pub const TYPING_TASK_TEXT: &str =
    "The quick brown Fox jumps over the lazy Dog. Pack my box, with five dozen Liquor jugs!";

/// Builds the moving-click-target page of Appendix E (an element that
/// "relocates every time after it is clicked"). Positions are supplied by
/// the caller per round.
pub fn click_task_page() -> Document {
    let mut doc = Document::new("https://tasks.test/click", 1280.0, 2_000.0);
    ElementBuilder::new("body", Rect::new(0.0, 0.0, 1280.0, 2_000.0)).insert(&mut doc);
    ElementBuilder::new("button", Rect::new(580.0, 340.0, 120.0, 40.0))
        .id("target")
        .insert(&mut doc);
    doc
}

/// Deterministic pseudo-random target positions for the click task.
pub fn click_target_position(seed: u64, round: usize) -> (f64, f64) {
    let h = derive_seed(seed, "click-target", round as u64);
    let x = 40.0 + (h % 1_000) as f64 / 1_000.0 * 1_100.0;
    let y = 60.0 + ((h >> 16) % 1_000) as f64 / 1_000.0 * 560.0;
    (x, y)
}

impl HumanReference {
    /// Generates a reference corpus from `sessions` independent simulated
    /// human sessions, each by a *different individual* — a level-2
    /// detector models the population, not one person.
    pub fn generate(seed: u64, sessions: usize) -> Self {
        let mut out = Self::default();
        for s in 0..sessions {
            let session_seed = derive_seed(seed, "human-ref", s as u64);
            let subject = HumanParams::individual(derive_seed(seed, "subject", s as u64));
            let features = run_human_session_with(subject, session_seed);
            out.absorb(&features);
        }
        out
    }

    /// Appends one session's feature samples to the corpus.
    pub fn absorb(&mut self, f: &TraceFeatures) {
        self.key_dwell_ms.extend_from_slice(&f.key_dwells_ms);
        self.key_flight_ms.extend_from_slice(&f.key_flights_ms);
        self.click_dwell_ms.extend_from_slice(&f.click_dwells_ms);
        self.click_offset_frac
            .extend_from_slice(&f.click_offsets_frac);
        self.straightness.extend_from_slice(&f.straightness);
        self.speed_cv.extend_from_slice(&f.speed_cvs);
        self.scroll_gap_ms.extend_from_slice(&f.scroll_gaps_ms);
    }
}

/// Runs one full baseline-human session through the three tasks.
pub fn run_human_session(seed: u64) -> TraceFeatures {
    run_human_session_with(HumanParams::paper_baseline(), seed)
}

/// Runs one full human session with the given individual's parameters.
pub fn run_human_session_with(params: HumanParams, seed: u64) -> TraceFeatures {
    let mut human = HumanAgent::new(params, seed);

    // Task 1: click the relocating target 12 times.
    let mut browser = Browser::open(BrowserConfig::regular(), click_task_page());
    let target = browser
        .document()
        .by_id("target")
        // the page literal built above defines the id. lint: allow(no-panic)
        .expect("standard test page defines #target");
    for round in 0..12 {
        let (x, y) = click_target_position(seed, round);
        browser.document_mut().element_mut(target).rect = Rect::new(x, y, 120.0, 40.0);
        human.click_element(&mut browser, target);
        human.settle(&mut browser, 150.0, 500.0);
    }
    let mut features = TraceFeatures::extract(&browser.recorder, browser.document());

    // Task 2: type the text into the standard page's input.
    let mut browser = Browser::open(
        BrowserConfig::regular(),
        standard_test_page("https://tasks.test/type", 2_000.0),
    );
    let input = browser
        .document()
        .by_id("text_area")
        // the page literal built above defines the id. lint: allow(no-panic)
        .expect("standard test page defines #text_area");
    human.click_element(&mut browser, input);
    human.type_text(&mut browser, TYPING_TASK_TEXT);
    features.merge(&TraceFeatures::extract(
        &browser.recorder,
        browser.document(),
    ));

    // Task 3: scroll a 30,000 px page top to bottom.
    let mut browser = Browser::open(
        BrowserConfig::regular(),
        standard_test_page("https://tasks.test/scroll", 30_000.0),
    );
    human.scroll_to_bottom(&mut browser);
    features.merge(&TraceFeatures::extract(
        &browser.recorder,
        browser.document(),
    ));

    features
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_stats::Summary;

    #[test]
    fn corpus_is_populated() {
        let r = HumanReference::generate(42, 2);
        assert!(
            r.key_dwell_ms.len() > 100,
            "{} dwells",
            r.key_dwell_ms.len()
        );
        assert!(r.click_dwell_ms.len() >= 20);
        assert!(r.click_offset_frac.len() >= 20);
        assert!(r.straightness.len() >= 10);
        assert!(r.scroll_gap_ms.len() > 200);
    }

    #[test]
    fn human_reference_is_humanly_bounded() {
        let r = HumanReference::generate(7, 1);
        let dwell = Summary::of(&r.key_dwell_ms);
        assert!(dwell.min >= 20.0, "min dwell {}", dwell.min);
        let cd = Summary::of(&r.click_dwell_ms);
        assert!(cd.min >= 20.0);
        // Clicks are never dead-centre.
        assert!(r.click_offset_frac.iter().all(|o| *o > 0.0));
        // Paths curve.
        assert!(r.straightness.iter().all(|s| *s < 1.0));
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(
            HumanReference::generate(9, 1),
            HumanReference::generate(9, 1)
        );
        assert_ne!(
            HumanReference::generate(9, 1),
            HumanReference::generate(10, 1)
        );
    }

    #[test]
    fn target_positions_stay_on_page() {
        for round in 0..50 {
            let (x, y) = click_target_position(3, round);
            assert!((40.0..1_160.0).contains(&x));
            assert!((60.0..640.0).contains(&y));
        }
    }
}
