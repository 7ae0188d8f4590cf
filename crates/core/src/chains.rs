//! `HLISA_ActionChains` — the Table 3 API.
//!
//! "HLISA's API provides the same calls and signatures as in the original
//! Selenium API; with the exception of a few additions. This allows
//! developers to integrate HLISA by modifying two lines of code" (§4.1,
//! Listing 2). The additions over Selenium are `move_to`,
//! `move_to_element_outside_viewport`, `send_keys_to_element`, `scroll_by`
//! and `scroll_to`.
//!
//! Every queued step is compiled down to fine-grained Selenium primitives
//! ([`hlisa_webdriver::Action`]) at `perform` time — never to higher-level
//! Selenium calls — which is what makes HLISA "resistant to changes in the
//! Selenium source code that do not affect the Selenium API".

use crate::motion::{plan_motion_scratch, trajectory_to_actions_into, MotionStyle};
use crate::scrolling::plan_hlisa_scroll_into;
use crate::typing::{plan_consistent_typing_into, plan_hlisa_typing_into};
use hlisa_browser::events::MouseButton;
use hlisa_browser::Point;
use hlisa_human::click::{sample_click_point, sample_double_click_gap_ms, sample_dwell_ms};
use hlisa_human::cursor::{StrokeScratch, TrajectorySample};
use hlisa_human::typing::PlannedKeyEvent;
use hlisa_human::HumanParams;
use hlisa_sim::SimContext;
use hlisa_webdriver::{Action, ElementHandle, Session, WebDriverError};
use rand::Rng;

/// The duration HLISA patches into Selenium's `create_pointer_move`.
/// Re-exported from the webdriver layer, which owns the canonical value.
pub use hlisa_webdriver::HLISA_MIN_MOVE_MS;

/// One queued HLISA step (rows of Table 3).
#[derive(Debug, Clone, PartialEq)]
enum Step {
    Pause(f64),
    MoveTo(f64, f64),
    MoveByOffset(f64, f64),
    MoveToElement(ElementHandle),
    MoveToElementWithOffset(ElementHandle, f64, f64),
    MoveToElementOutsideViewport(ElementHandle),
    Click(Option<ElementHandle>),
    ClickAndHold(Option<ElementHandle>),
    Release(Option<ElementHandle>),
    DoubleClick(Option<ElementHandle>),
    SendKeys(String),
    SendKeysToElement(ElementHandle, String),
    ScrollBy(f64, f64),
    ScrollTo(f64, f64),
    ContextClick(Option<ElementHandle>),
    DragAndDrop(ElementHandle, ElementHandle),
    DragAndDropByOffset(ElementHandle, f64, f64),
}

/// The HLISA action chain (Table 3's `HLISA_ActionChains`).
#[derive(Debug, Clone)]
pub struct HlisaActionChains {
    steps: Vec<Step>,
    params: HumanParams,
    ctx: SimContext,
    consistent: bool,
    /// Scratch buffers reused across steps so a long chain performs
    /// without per-action `Vec` allocations in the motion/typing/scroll
    /// hot paths.
    sample_buf: Vec<TrajectorySample>,
    action_buf: Vec<Action>,
    key_events: Vec<PlannedKeyEvent>,
    stroke_scratch: StrokeScratch,
}

impl HlisaActionChains {
    /// Creates a chain with the paper's baseline interaction parameters.
    pub fn new(seed: u64) -> Self {
        Self::with_params(HumanParams::paper_baseline(), seed)
    }

    /// Creates a chain with custom interaction parameters (e.g. a fitted
    /// per-user profile — the top rung of the Fig. 3 simulator ladder).
    pub fn with_params(params: HumanParams, seed: u64) -> Self {
        Self::with_context(params, SimContext::new(seed))
    }

    /// Creates a chain drawing from an existing simulation context — its
    /// sub-models use the named `"motion"`, `"click"`, `"scroll"`,
    /// `"typing"` and `"chain"` streams.
    pub fn with_context(params: HumanParams, ctx: SimContext) -> Self {
        Self {
            steps: Vec::new(),
            params,
            ctx,
            consistent: false,
            sample_buf: Vec::new(),
            action_buf: Vec::new(),
            key_events: Vec::new(),
            stroke_scratch: StrokeScratch::new(),
        }
    }

    /// Enables tempo-drift consistency in the timing draws — the "use
    /// consistent behaviour" escalation of Fig. 3 (a future-work refinement
    /// beyond the paper's i.i.d. proof of concept).
    pub fn with_consistency(mut self, on: bool) -> Self {
        self.consistent = on;
        self
    }

    /// Pauses the execution of the action chain (seconds, as in Table 3).
    pub fn pause(mut self, seconds: f64) -> Self {
        self.steps.push(Step::Pause(seconds * 1000.0));
        self
    }

    /// Moves the cursor from the current position to a given position.
    pub fn move_to(mut self, x: f64, y: f64) -> Self {
        self.steps.push(Step::MoveTo(x, y));
        self
    }

    /// Moves the cursor relative to the current position.
    pub fn move_by_offset(mut self, dx: f64, dy: f64) -> Self {
        self.steps.push(Step::MoveByOffset(dx, dy));
        self
    }

    /// Moves the cursor to a position within an element's boundaries.
    pub fn move_to_element(mut self, el: ElementHandle) -> Self {
        self.steps.push(Step::MoveToElement(el));
        self
    }

    /// Moves the cursor relative to an element's top-left corner.
    pub fn move_to_element_with_offset(mut self, el: ElementHandle, x: f64, y: f64) -> Self {
        self.steps.push(Step::MoveToElementWithOffset(el, x, y));
        self
    }

    /// Scrolls the element into the viewport (with human wheel scrolling),
    /// then moves to it.
    pub fn move_to_element_outside_viewport(mut self, el: ElementHandle) -> Self {
        self.steps.push(Step::MoveToElementOutsideViewport(el));
        self
    }

    /// Clicks; if an element is provided, first performs `move_to_element`.
    pub fn click(mut self, el: Option<ElementHandle>) -> Self {
        self.steps.push(Step::Click(el));
        self
    }

    /// Same as click without the release action.
    pub fn click_and_hold(mut self, el: Option<ElementHandle>) -> Self {
        self.steps.push(Step::ClickAndHold(el));
        self
    }

    /// Same as click without the press action.
    pub fn release(mut self, el: Option<ElementHandle>) -> Self {
        self.steps.push(Step::Release(el));
        self
    }

    /// Same as click with an additional click shortly after the first.
    pub fn double_click(mut self, el: Option<ElementHandle>) -> Self {
        self.steps.push(Step::DoubleClick(el));
        self
    }

    /// Executes a human typing rhythm for the given keys.
    pub fn send_keys(mut self, keys: &str) -> Self {
        self.steps.push(Step::SendKeys(keys.to_string()));
        self
    }

    /// Selects the element, then executes `send_keys`.
    pub fn send_keys_to_element(mut self, el: ElementHandle, keys: &str) -> Self {
        self.steps
            .push(Step::SendKeysToElement(el, keys.to_string()));
        self
    }

    /// Scrolls the viewport until a distance is covered (vertical axis;
    /// the simulated viewport has no horizontal overflow, so `x` must be
    /// 0 — matching how the Python HLISA drives a full-width page).
    pub fn scroll_by(mut self, x: f64, y: f64) -> Self {
        self.steps.push(Step::ScrollBy(x, y));
        self
    }

    /// Scrolls until the specified position is at the top of the viewport.
    pub fn scroll_to(mut self, x: f64, y: f64) -> Self {
        self.steps.push(Step::ScrollTo(x, y));
        self
    }

    /// Same as click using the right mouse button.
    pub fn context_click(mut self, el: Option<ElementHandle>) -> Self {
        self.steps.push(Step::ContextClick(el));
        self
    }

    /// Press over `source`, human-move to `target`, release.
    pub fn drag_and_drop(mut self, source: ElementHandle, target: ElementHandle) -> Self {
        self.steps.push(Step::DragAndDrop(source, target));
        self
    }

    /// Press on `el`, move by the offset, release.
    pub fn drag_and_drop_by_offset(mut self, el: ElementHandle, dx: f64, dy: f64) -> Self {
        self.steps.push(Step::DragAndDropByOffset(el, dx, dy));
        self
    }

    /// Removes all actions from the current chain.
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

    /// Executes the chain against a session.
    pub fn perform(mut self, session: &mut Session) -> Result<(), WebDriverError> {
        self.perform_mut(session)
    }

    /// Executes the chain without consuming it: the queue drains but the
    /// chain — its context, scratch buffers, and their capacities —
    /// survives, so a driver can queue and perform repeatedly with zero
    /// steady-state allocations. [`perform`](Self::perform) delegates here.
    pub fn perform_mut(&mut self, session: &mut Session) -> Result<(), WebDriverError> {
        // HLISA's create_pointer_move override (the canonical 50 ms floor
        // lives in hlisa-webdriver). Events are timed by the session's
        // browser alone; the chain's context only draws.
        session.apply_hlisa_profile();
        let steps = std::mem::take(&mut self.steps);
        for step in steps {
            self.run_step(session, step)?;
        }
        Ok(())
    }

    /// Current scratch capacities `[samples, actions, key events, tremor
    /// spill, basis spill]`. Capacities that stop growing across performs
    /// prove the chain's hot paths are allocation-free in steady state.
    pub fn scratch_capacities(&self) -> [usize; 5] {
        let (tremor, basis) = self.stroke_scratch.spill_capacities();
        [
            self.sample_buf.capacity(),
            self.action_buf.capacity(),
            self.key_events.capacity(),
            tremor,
            basis,
        ]
    }

    // ------------------------------------------------------------------

    fn run_step(&mut self, session: &mut Session, step: Step) -> Result<(), WebDriverError> {
        match step {
            Step::Pause(ms) => {
                session.perform_actions(&[Action::Pause(ms)]);
            }
            Step::MoveTo(x, y) => self.human_move(session, Point::new(x, y), 24.0),
            Step::MoveByOffset(dx, dy) => {
                let p = session.browser.mouse_position();
                self.human_move(session, Point::new(p.x + dx, p.y + dy), 24.0);
            }
            Step::MoveToElement(el) => {
                self.move_to_element_impl(session, el)?;
            }
            Step::MoveToElementWithOffset(el, dx, dy) => {
                if !session.is_displayed(el) {
                    return Err(WebDriverError::ElementNotInteractable(
                        "hidden element".to_string(),
                    ));
                }
                let r = session.element_rect(el);
                self.human_move(session, r.offset(dx, dy), r.width.min(r.height));
            }
            Step::MoveToElementOutsideViewport(el) => {
                self.scroll_element_into_view(session, el)?;
                self.move_to_element_impl(session, el)?;
            }
            Step::Click(el) => {
                if let Some(el) = el {
                    self.move_to_element_impl(session, el)?;
                }
                self.fixate(session);
                self.press_release(session, MouseButton::Left);
            }
            Step::ClickAndHold(el) => {
                if let Some(el) = el {
                    self.move_to_element_impl(session, el)?;
                }
                self.fixate(session);
                session.perform_actions(&[Action::PointerDown(MouseButton::Left)]);
            }
            Step::Release(el) => {
                if let Some(el) = el {
                    self.move_to_element_impl(session, el)?;
                }
                session.perform_actions(&[Action::PointerUp(MouseButton::Left)]);
            }
            Step::DoubleClick(el) => {
                if let Some(el) = el {
                    self.move_to_element_impl(session, el)?;
                }
                self.fixate(session);
                self.press_release(session, MouseButton::Left);
                let gap = sample_double_click_gap_ms(&self.params, &mut self.ctx);
                session.perform_actions(&[Action::Pause(gap)]);
                self.press_release(session, MouseButton::Left);
            }
            Step::SendKeys(keys) => {
                self.plan_keys(&keys);
                session.perform_actions(&self.action_buf);
            }
            Step::SendKeysToElement(el, keys) => {
                self.move_to_element_impl(session, el)?;
                self.fixate(session);
                self.press_release(session, MouseButton::Left);
                let focus_pause = self.ctx.stream("chain").gen_range(120.0..400.0);
                session.perform_actions(&[Action::Pause(focus_pause)]);
                self.plan_keys(&keys);
                session.perform_actions(&self.action_buf);
            }
            Step::ScrollBy(x, y) => {
                if x != 0.0 {
                    return Err(WebDriverError::InvalidArgument(
                        "horizontal scrolling is not modelled".to_string(),
                    ));
                }
                plan_hlisa_scroll_into(
                    &self.params,
                    self.ctx.stream("scroll"),
                    y,
                    &mut self.action_buf,
                );
                session.perform_actions(&self.action_buf);
            }
            Step::ScrollTo(x, y) => {
                if x != 0.0 {
                    return Err(WebDriverError::InvalidArgument(
                        "horizontal scrolling is not modelled".to_string(),
                    ));
                }
                let delta = y - session.browser.viewport.scroll_y();
                plan_hlisa_scroll_into(
                    &self.params,
                    self.ctx.stream("scroll"),
                    delta,
                    &mut self.action_buf,
                );
                session.perform_actions(&self.action_buf);
            }
            Step::ContextClick(el) => {
                if let Some(el) = el {
                    self.move_to_element_impl(session, el)?;
                }
                self.fixate(session);
                self.press_release(session, MouseButton::Right);
            }
            Step::DragAndDrop(source, target) => {
                self.move_to_element_impl(session, source)?;
                self.fixate(session);
                session.perform_actions(&[Action::PointerDown(MouseButton::Left)]);
                let hold = self.ctx.stream("chain").gen_range(80.0..200.0);
                session.perform_actions(&[Action::Pause(hold)]);
                self.move_to_element_impl(session, target)?;
                session.perform_actions(&[Action::PointerUp(MouseButton::Left)]);
            }
            Step::DragAndDropByOffset(el, dx, dy) => {
                self.move_to_element_impl(session, el)?;
                self.fixate(session);
                session.perform_actions(&[Action::PointerDown(MouseButton::Left)]);
                let hold = self.ctx.stream("chain").gen_range(80.0..200.0);
                session.perform_actions(&[Action::Pause(hold)]);
                let p = session.browser.mouse_position();
                self.human_move(session, Point::new(p.x + dx, p.y + dy), 24.0);
                session.perform_actions(&[Action::PointerUp(MouseButton::Left)]);
            }
        }
        Ok(())
    }

    /// Compiles the typing plan for `keys` into `self.action_buf`.
    fn plan_keys(&mut self, keys: &str) {
        if self.consistent {
            plan_consistent_typing_into(
                &self.params,
                self.ctx.stream("typing"),
                keys,
                &mut self.key_events,
                &mut self.action_buf,
            );
        } else {
            plan_hlisa_typing_into(
                &self.params,
                self.ctx.stream("typing"),
                keys,
                &mut self.key_events,
                &mut self.action_buf,
            );
        }
    }

    /// Human move to an absolute point: plan an HLISA trajectory, chop into
    /// ≥50 ms primitive moves, execute — through the reusable scratch
    /// buffers, so steady-state movement allocates nothing.
    fn human_move(&mut self, session: &mut Session, to: Point, target_w: f64) {
        let from = session.browser.mouse_position();
        plan_motion_scratch(
            MotionStyle::hlisa(),
            &self.params,
            self.ctx.stream("motion"),
            from,
            to,
            target_w,
            &mut self.stroke_scratch,
            &mut self.sample_buf,
        );
        trajectory_to_actions_into(&self.sample_buf, HLISA_MIN_MOVE_MS, &mut self.action_buf);
        session.perform_actions(&self.action_buf);
    }

    fn move_to_element_impl(
        &mut self,
        session: &mut Session,
        el: ElementHandle,
    ) -> Result<(), WebDriverError> {
        if !session.is_displayed(el) {
            return Err(WebDriverError::ElementNotInteractable(
                "hidden element".to_string(),
            ));
        }
        let rect = session.element_rect(el);
        if !session.browser.viewport.is_y_visible(rect.center().y) {
            self.scroll_element_into_view(session, el)?;
        }
        let rect = session.element_rect(el);
        let target = sample_click_point(&self.params, &mut self.ctx, rect);
        self.human_move(session, target, rect.width.min(rect.height));
        Ok(())
    }

    fn scroll_element_into_view(
        &mut self,
        session: &mut Session,
        el: ElementHandle,
    ) -> Result<(), WebDriverError> {
        let rect = session.element_rect(el);
        let viewport = &session.browser.viewport;
        let desired = (rect.center().y - viewport.height / 2.0).clamp(0.0, viewport.max_scroll_y());
        let delta = desired - viewport.scroll_y();
        plan_hlisa_scroll_into(
            &self.params,
            self.ctx.stream("scroll"),
            delta,
            &mut self.action_buf,
        );
        session.perform_actions(&self.action_buf);
        let settle = self.ctx.stream("chain").gen_range(150.0..500.0);
        session.perform_actions(&[Action::Pause(settle)]);
        Ok(())
    }

    /// A short visual-confirmation pause before pressing, as humans do.
    fn fixate(&mut self, session: &mut Session) {
        let pause = self.ctx.stream("chain").gen_range(40.0..160.0);
        session.perform_actions(&[Action::Pause(pause)]);
    }

    fn press_release(&mut self, session: &mut Session, button: MouseButton) {
        let dwell = sample_dwell_ms(&self.params, &mut self.ctx);
        session.perform_actions(&[
            Action::PointerDown(button),
            Action::Pause(dwell),
            Action::PointerUp(button),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_browser::dom::standard_test_page;
    use hlisa_browser::{Browser, BrowserConfig, EventKind};
    use hlisa_webdriver::By;

    fn session() -> Session {
        Session::new(Browser::open(
            BrowserConfig::webdriver(),
            standard_test_page("https://example.test/", 30_000.0),
        ))
    }

    #[test]
    fn listing2_flow_works() {
        // The paper's Listing 2: move to element, send keys, perform.
        let mut driver = session();
        let element = driver.find_element(By::Id("text_area".into())).unwrap();
        let ac = HlisaActionChains::new(7)
            .move_to_element(element)
            .send_keys_to_element(element, "Text..");
        ac.perform(&mut driver).unwrap();
        assert_eq!(driver.element_text(element), "Text..");
    }

    /// One chain performed on two sessions leaves each on its own time:
    /// the chain only draws, so it never joins the two browsers.
    #[test]
    fn one_chain_on_two_sessions_keeps_each_sessions_time() {
        let (mut a, mut b) = (session(), session());
        // A has idled for 10 s before the chain starts; B is fresh.
        let a_start = 10_000.0;
        a.browser.advance(a_start);
        let mut chain = HlisaActionChains::new(4).move_to(600.0, 300.0).click(None);
        chain.perform_mut(&mut a).unwrap();
        let a_first = a.browser.recorder.events()[0].timestamp_ms;
        assert!(a_first >= a_start, "A's first event at {a_first} ms");

        chain = chain.move_to(600.0, 300.0).click(None);
        chain.perform_mut(&mut b).unwrap();
        let b_first = b.browser.recorder.events()[0].timestamp_ms;
        let b_now = b.browser.now_ms();
        assert!(
            b_first <= b_now && b_now < a_start,
            "B's events ({b_first}..{b_now} ms) joined A's time ({} ms)",
            a.browser.now_ms()
        );
        a.browser.advance(500.0);
        assert_eq!(b.browser.now_ms(), b_now, "advancing A moved B");
    }

    #[test]
    fn click_is_on_element_off_centre_with_dwell() {
        let mut driver = session();
        let el = driver.find_element(By::Id("submit".into())).unwrap();
        let rect = driver.element_rect(el);
        HlisaActionChains::new(1)
            .click(Some(el))
            .perform(&mut driver)
            .unwrap();
        let clicks = driver.browser.recorder.clicks();
        assert_eq!(clicks.len(), 1);
        let c = clicks[0];
        assert!(rect.contains(Point::new(c.x, c.y)));
        assert!(c.dwell_ms >= 20.0, "dwell {}", c.dwell_ms);
        let center = rect.center();
        assert!(Point::new(c.x, c.y).distance_to(center) > 0.1);
    }

    #[test]
    fn movement_is_made_of_50ms_primitives() {
        let mut driver = session();
        HlisaActionChains::new(2)
            .move_to(900.0, 400.0)
            .perform(&mut driver)
            .unwrap();
        // The pointer profile was overridden to 50 ms.
        assert_eq!(driver.pointer_profile().min_duration_ms, HLISA_MIN_MOVE_MS);
        let trace = driver.browser.recorder.cursor_trace();
        assert!(trace.len() >= 5);
        // The OS-level position is exact; the last *dispatched* move may
        // have been frame-coalesced.
        let p = driver.browser.mouse_position();
        assert_eq!((p.x, p.y), (900.0, 400.0));
    }

    #[test]
    fn typing_presses_shift_for_capitals() {
        let mut driver = session();
        let el = driver.find_element(By::Id("text_area".into())).unwrap();
        HlisaActionChains::new(3)
            .send_keys_to_element(el, "Ab C")
            .perform(&mut driver)
            .unwrap();
        assert_eq!(driver.element_text(el), "Ab C");
        let shifts = driver
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
        assert_eq!(shifts, 2);
    }

    #[test]
    fn scroll_by_uses_wheel_ticks_with_breaks() {
        let mut driver = session();
        HlisaActionChains::new(4)
            .scroll_by(0.0, 2_000.0)
            .perform(&mut driver)
            .unwrap();
        let ticks = driver.browser.recorder.wheel_count();
        assert_eq!(ticks, 35); // 2000 / 57 ≈ 35.09 → 35 ticks
        for d in driver.browser.recorder.scroll_deltas() {
            assert!((d - 57.0).abs() < 1e-9);
        }
    }

    #[test]
    fn scroll_to_reaches_position() {
        let mut driver = session();
        HlisaActionChains::new(5)
            .scroll_to(0.0, 1_140.0)
            .perform(&mut driver)
            .unwrap();
        assert!((driver.browser.viewport.scroll_y() - 1_140.0).abs() < 57.0);
    }

    #[test]
    fn horizontal_scroll_is_rejected() {
        let mut driver = session();
        let err = HlisaActionChains::new(6)
            .scroll_by(100.0, 0.0)
            .perform(&mut driver)
            .unwrap_err();
        assert!(matches!(err, WebDriverError::InvalidArgument(_)));
    }

    #[test]
    fn double_click_fires_dblclick_with_human_gap() {
        let mut driver = session();
        let el = driver.find_element(By::Id("submit".into())).unwrap();
        HlisaActionChains::new(8)
            .double_click(Some(el))
            .perform(&mut driver)
            .unwrap();
        assert_eq!(
            driver.browser.recorder.of_kind(EventKind::DblClick).len(),
            1
        );
        let clicks = driver.browser.recorder.clicks();
        assert_eq!(clicks.len(), 2);
        let gap = clicks[1].down_t - clicks[0].up_t;
        assert!(gap >= 50.0, "gap {gap} too robotic");
    }

    #[test]
    fn context_click_uses_right_button() {
        let mut driver = session();
        let el = driver.find_element(By::Id("submit".into())).unwrap();
        HlisaActionChains::new(9)
            .context_click(Some(el))
            .perform(&mut driver)
            .unwrap();
        assert_eq!(
            driver
                .browser
                .recorder
                .of_kind(EventKind::ContextMenu)
                .len(),
            1
        );
    }

    #[test]
    fn click_and_hold_then_release() {
        let mut driver = session();
        let el = driver.find_element(By::Id("submit".into())).unwrap();
        HlisaActionChains::new(10)
            .click_and_hold(Some(el))
            .pause(0.2)
            .release(None)
            .perform(&mut driver)
            .unwrap();
        let clicks = driver.browser.recorder.clicks();
        assert_eq!(clicks.len(), 1);
        assert!(clicks[0].dwell_ms >= 200.0);
    }

    #[test]
    fn outside_viewport_move_scrolls_with_wheel() {
        let mut driver = session();
        let el = driver.find_element(By::Id("section-end".into())).unwrap();
        HlisaActionChains::new(11)
            .move_to_element_outside_viewport(el)
            .click(None)
            .perform(&mut driver)
            .unwrap();
        assert!(driver.browser.recorder.wheel_count() > 100);
        assert_eq!(driver.browser.recorder.clicks().len(), 1);
    }

    #[test]
    fn drag_and_drop_by_offset_moves_while_held() {
        let mut driver = session();
        let el = driver.find_element(By::Id("submit".into())).unwrap();
        HlisaActionChains::new(12)
            .drag_and_drop_by_offset(el, 150.0, 60.0)
            .perform(&mut driver)
            .unwrap();
        let evs = driver.browser.recorder.events();
        let down = evs
            .iter()
            .position(|e| e.kind == EventKind::MouseDown)
            .unwrap();
        let up = evs
            .iter()
            .position(|e| e.kind == EventKind::MouseUp)
            .unwrap();
        let moves_between = evs[down..up]
            .iter()
            .filter(|e| e.kind == EventKind::MouseMove)
            .count();
        assert!(moves_between >= 3, "drag produced {moves_between} moves");
    }

    #[test]
    fn hidden_element_interaction_errors() {
        let mut driver = session();
        let honey = driver.find_element(By::Id("honey".into())).unwrap();
        let err = HlisaActionChains::new(13)
            .click(Some(honey))
            .perform(&mut driver)
            .unwrap_err();
        assert!(matches!(err, WebDriverError::ElementNotInteractable(_)));
    }

    #[test]
    fn reset_actions_clears_queue() {
        let chain = HlisaActionChains::new(14)
            .move_to(1.0, 1.0)
            .click(None)
            .reset_actions();
        assert!(chain.is_empty());
        assert_eq!(chain.len(), 0);
    }

    #[test]
    fn pause_advances_time_only() {
        let mut driver = session();
        let before = driver.browser.now_ms();
        HlisaActionChains::new(15)
            .pause(1.5)
            .perform(&mut driver)
            .unwrap();
        assert_eq!(driver.browser.now_ms() - before, 1_500.0);
        assert!(driver.browser.recorder.is_empty());
    }
}
