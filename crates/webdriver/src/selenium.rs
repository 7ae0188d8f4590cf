//! Selenium's `ActionChains`, with its measurable behavioural signature.
//!
//! §4.1 characterises the stock Selenium interaction API:
//!
//! * cursor moves at uniform speed over a straight line,
//! * clicks land *exactly* in the centre of the element,
//! * button dwell time is negligible (press and release in the same
//!   millisecond),
//! * typing runs at 13,333 characters per minute, flawlessly, without
//!   pressing modifier keys for capitals,
//! * there is no scrolling API — the default method scrolls arbitrary
//!   distances in one event with no wheel events.
//!
//! This module reproduces that behaviour so that the same detectors that
//! judge HLISA can judge Selenium (Figures 1–2, the arms-race tournament).

use crate::actions::Action;
use crate::error::WebDriverError;
use crate::session::{ElementHandle, Session};
use hlisa_browser::events::MouseButton;

/// Selenium's typing rate (§4.1): 13,333 characters per minute.
pub const SELENIUM_CHARS_PER_MINUTE: f64 = 13_333.0;

/// Milliseconds per character at the Selenium typing rate (= 4.5 ms).
pub const SELENIUM_KEY_INTERVAL_MS: f64 = 60_000.0 / SELENIUM_CHARS_PER_MINUTE;

/// Queued Selenium-level action.
#[derive(Debug, Clone, PartialEq)]
enum ChainStep {
    MoveToElement(ElementHandle),
    MoveByOffset(f64, f64),
    Click(Option<ElementHandle>),
    ClickAndHold(Option<ElementHandle>),
    Release,
    DoubleClick(Option<ElementHandle>),
    ContextClick(Option<ElementHandle>),
    SendKeys(String),
    SendKeysToElement(ElementHandle, String),
    Pause(f64),
    DragAndDrop(ElementHandle, ElementHandle),
    MoveToElementWithOffset(ElementHandle, f64, f64),
    KeyDown(String),
    KeyUp(String),
}

/// The classic Selenium `ActionChains` builder.
#[derive(Debug, Default)]
pub struct SeleniumActionChains {
    steps: Vec<ChainStep>,
}

impl SeleniumActionChains {
    /// An empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a move to the element's centre.
    pub fn move_to_element(mut self, el: ElementHandle) -> Self {
        self.steps.push(ChainStep::MoveToElement(el));
        self
    }

    /// Queues a relative move.
    pub fn move_by_offset(mut self, dx: f64, dy: f64) -> Self {
        self.steps.push(ChainStep::MoveByOffset(dx, dy));
        self
    }

    /// Queues a click (optionally moving to an element first).
    pub fn click(mut self, el: Option<ElementHandle>) -> Self {
        self.steps.push(ChainStep::Click(el));
        self
    }

    /// Queues press-without-release.
    pub fn click_and_hold(mut self, el: Option<ElementHandle>) -> Self {
        self.steps.push(ChainStep::ClickAndHold(el));
        self
    }

    /// Queues a button release.
    pub fn release(mut self) -> Self {
        self.steps.push(ChainStep::Release);
        self
    }

    /// Queues a double click.
    pub fn double_click(mut self, el: Option<ElementHandle>) -> Self {
        self.steps.push(ChainStep::DoubleClick(el));
        self
    }

    /// Queues a right-button click.
    pub fn context_click(mut self, el: Option<ElementHandle>) -> Self {
        self.steps.push(ChainStep::ContextClick(el));
        self
    }

    /// Queues typing into the focused element.
    pub fn send_keys(mut self, keys: &str) -> Self {
        self.steps.push(ChainStep::SendKeys(keys.to_string()));
        self
    }

    /// Queues click-then-type on an element.
    pub fn send_keys_to_element(mut self, el: ElementHandle, keys: &str) -> Self {
        self.steps
            .push(ChainStep::SendKeysToElement(el, keys.to_string()));
        self
    }

    /// Queues a pause (seconds, matching the Python API).
    pub fn pause(mut self, seconds: f64) -> Self {
        self.steps.push(ChainStep::Pause(seconds * 1000.0));
        self
    }

    /// Queues a drag-and-drop.
    pub fn drag_and_drop(mut self, source: ElementHandle, target: ElementHandle) -> Self {
        self.steps.push(ChainStep::DragAndDrop(source, target));
        self
    }

    /// Queues a move relative to the element's top-left corner.
    pub fn move_to_element_with_offset(mut self, el: ElementHandle, x: f64, y: f64) -> Self {
        self.steps
            .push(ChainStep::MoveToElementWithOffset(el, x, y));
        self
    }

    /// Queues a bare modifier/key press (held until `key_up`).
    pub fn key_down(mut self, key: &str) -> Self {
        self.steps.push(ChainStep::KeyDown(key.to_string()));
        self
    }

    /// Queues a key release.
    pub fn key_up(mut self, key: &str) -> Self {
        self.steps.push(ChainStep::KeyUp(key.to_string()));
        self
    }

    /// Clears the queue.
    pub fn reset_actions(mut self) -> Self {
        self.steps.clear();
        self
    }

    /// Number of queued steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Executes the chain.
    pub fn perform(mut self, session: &mut Session) -> Result<(), WebDriverError> {
        self.perform_mut(session)
    }

    /// Executes the chain without consuming it: the queue empties, on an
    /// error too, but keeps its capacity, so a driver that keeps one
    /// chain queues and performs again without allocating.
    /// [`perform`](Self::perform) delegates here.
    pub fn perform_mut(&mut self, session: &mut Session) -> Result<(), WebDriverError> {
        let result = self.run_steps(session);
        self.steps.clear();
        result
    }

    /// Runs the queued steps in order, stopping at the first error.
    fn run_steps(&self, session: &mut Session) -> Result<(), WebDriverError> {
        for step in &self.steps {
            match step {
                ChainStep::MoveToElement(el) => move_to_element(session, *el)?,
                ChainStep::MoveByOffset(dx, dy) => {
                    let p = session.browser.mouse_position();
                    let actions = [Action::PointerMove {
                        x: p.x + dx,
                        y: p.y + dy,
                        duration_ms: 0.0, // floor applies
                    }];
                    session.perform_actions(&actions);
                }
                ChainStep::Click(el) => {
                    if let Some(el) = el {
                        move_to_element(session, *el)?;
                    }
                    click_actions(session, MouseButton::Left, 1);
                }
                ChainStep::ClickAndHold(el) => {
                    if let Some(el) = el {
                        move_to_element(session, *el)?;
                    }
                    session.perform_actions(&[Action::PointerDown(MouseButton::Left)]);
                }
                ChainStep::Release => {
                    session.perform_actions(&[Action::PointerUp(MouseButton::Left)]);
                }
                ChainStep::DoubleClick(el) => {
                    if let Some(el) = el {
                        move_to_element(session, *el)?;
                    }
                    click_actions(session, MouseButton::Left, 2);
                }
                ChainStep::ContextClick(el) => {
                    if let Some(el) = el {
                        move_to_element(session, *el)?;
                    }
                    click_actions(session, MouseButton::Right, 1);
                }
                ChainStep::SendKeys(keys) => send_keys_actions(session, keys),
                ChainStep::SendKeysToElement(el, keys) => {
                    move_to_element(session, *el)?;
                    click_actions(session, MouseButton::Left, 1);
                    send_keys_actions(session, keys);
                }
                ChainStep::Pause(ms) => {
                    session.perform_actions(&[Action::Pause(*ms)]);
                }
                ChainStep::MoveToElementWithOffset(el, dx, dy) => {
                    session.ensure_interactable(*el)?;
                    let r = session.element_rect(*el);
                    session.perform_actions(&[Action::PointerMove {
                        x: r.x + dx,
                        y: r.y + dy,
                        duration_ms: 0.0,
                    }]);
                }
                ChainStep::KeyDown(k) => {
                    session.perform_actions(&[Action::KeyDown(k.clone())]);
                }
                ChainStep::KeyUp(k) => {
                    session.perform_actions(&[Action::KeyUp(k.clone())]);
                }
                ChainStep::DragAndDrop(src, dst) => {
                    move_to_element(session, *src)?;
                    session.perform_actions(&[Action::PointerDown(MouseButton::Left)]);
                    move_to_element(session, *dst)?;
                    session.perform_actions(&[Action::PointerUp(MouseButton::Left)]);
                }
            }
        }
        Ok(())
    }
}

/// Selenium's move: scroll into view if needed, then one straight
/// uniform-speed move to the *exact centre*.
fn move_to_element(session: &mut Session, el: ElementHandle) -> Result<(), WebDriverError> {
    session.ensure_interactable(el)?;
    let c = session.element_center(el);
    session.perform_actions(&[Action::PointerMove {
        x: c.x,
        y: c.y,
        duration_ms: 0.0, // Selenium requests "as fast as allowed"
    }]);
    Ok(())
}

/// Zero-dwell clicks: down and up in the same simulated instant; repeat
/// clicks are separated by one WebDriver tick (10 ms — far inside any
/// double-click window).
fn click_actions(session: &mut Session, button: MouseButton, count: usize) {
    for i in 0..count {
        if i > 0 {
            session.perform_actions(&[Action::Pause(10.0)]);
        }
        session.perform_actions(&[Action::PointerDown(button), Action::PointerUp(button)]);
    }
}

/// Selenium typing: one character per 4.5 ms, zero dwell, no modifiers —
/// capitals are sent directly as their `key` value.
fn send_keys_actions(session: &mut Session, keys: &str) {
    let mut actions = Vec::with_capacity(keys.chars().count() * 3);
    for ch in keys.chars() {
        actions.push(Action::KeyDown(ch.to_string()));
        actions.push(Action::KeyUp(ch.to_string()));
        actions.push(Action::Pause(SELENIUM_KEY_INTERVAL_MS));
    }
    session.perform_actions(&actions);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::By;
    use hlisa_browser::dom::standard_test_page;
    use hlisa_browser::events::EventKind;
    use hlisa_browser::{Browser, BrowserConfig};

    fn session() -> Session {
        Session::new(Browser::open(
            BrowserConfig::webdriver(),
            standard_test_page("https://example.test/", 30_000.0),
        ))
    }

    #[test]
    fn click_lands_exactly_on_center() {
        let mut s = session();
        let el = s.find_element(By::Id("submit".into())).unwrap();
        let center = s.element_center(el);
        SeleniumActionChains::new()
            .click(Some(el))
            .perform(&mut s)
            .unwrap();
        let clicks = s.browser.recorder.clicks();
        assert_eq!(clicks.len(), 1);
        assert_eq!(clicks[0].x, center.x);
        assert_eq!(clicks[0].y, center.y);
    }

    #[test]
    fn click_dwell_is_negligible() {
        let mut s = session();
        let el = s.find_element(By::Id("submit".into())).unwrap();
        SeleniumActionChains::new()
            .click(Some(el))
            .perform(&mut s)
            .unwrap();
        let clicks = s.browser.recorder.clicks();
        assert!(clicks[0].dwell_ms <= 1.0, "dwell {}", clicks[0].dwell_ms);
    }

    #[test]
    fn typing_rate_matches_13333_cpm() {
        let mut s = session();
        let el = s.find_element(By::Id("text_area".into())).unwrap();
        let text = "The quick brown fox jumps over the lazy dog";
        SeleniumActionChains::new()
            .send_keys_to_element(el, text)
            .perform(&mut s)
            .unwrap();
        assert_eq!(s.browser.document().element(el.node()).text, text);
        let strokes = s.browser.recorder.keystrokes();
        assert_eq!(strokes.len(), text.chars().count());
        // Every dwell is ≤ 1 observable ms.
        assert!(strokes.iter().all(|k| k.dwell_ms <= 1.0));
        // Overall rate ≈ 13,333 cpm (4.5 ms/char).
        let span = strokes.last().unwrap().down_t - strokes[0].down_t;
        let per_char = span / (strokes.len() - 1) as f64;
        assert!((per_char - 4.5).abs() < 1.0, "per_char={per_char}");
    }

    #[test]
    fn capitals_typed_without_shift() {
        let mut s = session();
        let el = s.find_element(By::Id("text_area".into())).unwrap();
        SeleniumActionChains::new()
            .send_keys_to_element(el, "Ab")
            .perform(&mut s)
            .unwrap();
        let shift_downs = s
            .browser
            .recorder
            .events()
            .iter()
            .filter(|e| {
                e.kind == EventKind::KeyDown
                    && matches!(&e.payload,
                        hlisa_browser::EventPayload::Key { key, .. } if key == "Shift")
            })
            .count();
        assert_eq!(shift_downs, 0);
        assert_eq!(s.browser.document().element(el.node()).text, "Ab");
    }

    #[test]
    fn double_click_fires_dblclick() {
        let mut s = session();
        let el = s.find_element(By::Id("submit".into())).unwrap();
        SeleniumActionChains::new()
            .double_click(Some(el))
            .perform(&mut s)
            .unwrap();
        assert_eq!(s.browser.recorder.of_kind(EventKind::DblClick).len(), 1);
    }

    #[test]
    fn context_click_uses_right_button() {
        let mut s = session();
        let el = s.find_element(By::Id("submit".into())).unwrap();
        SeleniumActionChains::new()
            .context_click(Some(el))
            .perform(&mut s)
            .unwrap();
        assert_eq!(s.browser.recorder.of_kind(EventKind::ContextMenu).len(), 1);
    }

    #[test]
    fn drag_and_drop_sequences_press_move_release() {
        let mut s = session();
        let src = s.find_element(By::Id("submit".into())).unwrap();
        let dst = s.find_element(By::Id("jump".into())).unwrap();
        SeleniumActionChains::new()
            .drag_and_drop(src, dst)
            .perform(&mut s)
            .unwrap();
        let evs = s.browser.recorder.events();
        let down = evs
            .iter()
            .position(|e| e.kind == EventKind::MouseDown)
            .unwrap();
        let up = evs
            .iter()
            .position(|e| e.kind == EventKind::MouseUp)
            .unwrap();
        assert!(down < up);
        // Pointer ends at the target centre.
        let c = s.element_center(dst);
        assert_eq!(s.browser.mouse_position(), c);
    }

    #[test]
    fn offset_move_and_modifier_keys() {
        let mut s = session();
        let el = s.find_element(By::Id("submit".into())).unwrap();
        let r = s.element_rect(el);
        SeleniumActionChains::new()
            .move_to_element_with_offset(el, 3.0, 4.0)
            .key_down("Shift")
            .key_up("Shift")
            .perform(&mut s)
            .unwrap();
        let p = s.browser.mouse_position();
        assert_eq!((p.x, p.y), (r.x + 3.0, r.y + 4.0));
        assert!(s.browser.pressed_keys().is_empty());
        let shift_downs = s
            .browser
            .recorder
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::KeyDown)
            .count();
        assert_eq!(shift_downs, 1);
    }

    #[test]
    fn chain_builder_reset() {
        let chain = SeleniumActionChains::new()
            .send_keys("x")
            .pause(1.0)
            .reset_actions();
        assert!(chain.is_empty());
        assert_eq!(chain.len(), 0);
    }

    #[test]
    fn clicking_hidden_element_errors() {
        let mut s = session();
        let honey = s.find_element(By::Id("honey".into())).unwrap();
        let err = SeleniumActionChains::new()
            .click(Some(honey))
            .perform(&mut s)
            .unwrap_err();
        assert!(matches!(err, WebDriverError::ElementNotInteractable(_)));
    }

    #[test]
    fn a_kept_chain_empties_after_each_perform() {
        let mut s = session();
        let submit = s.find_element(By::Id("submit".into())).unwrap();
        let honey = s.find_element(By::Id("honey".into())).unwrap();
        let mut chain = SeleniumActionChains::new().click(Some(submit));
        chain.perform_mut(&mut s).unwrap();
        assert!(chain.is_empty());
        // A failed step must not leave its rest queued for the next use.
        chain = chain.click(Some(honey)).click(Some(submit));
        assert!(chain.perform_mut(&mut s).is_err());
        assert!(chain.is_empty());
        assert_eq!(s.browser.recorder.clicks().len(), 1);
    }

    #[test]
    fn offscreen_click_scrolls_scriptwise_without_wheel() {
        let mut s = session();
        let el = s.find_element(By::Id("section-end".into())).unwrap();
        SeleniumActionChains::new()
            .click(Some(el))
            .perform(&mut s)
            .unwrap();
        assert_eq!(s.browser.recorder.wheel_count(), 0);
        assert_eq!(s.browser.recorder.clicks().len(), 1);
    }
}
