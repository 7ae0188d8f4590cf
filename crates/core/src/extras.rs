//! Experiment-level behaviours (Appendix F).
//!
//! The paper deliberately keeps several humanising behaviours *out* of the
//! HLISA API, because "whether and to what extent such behaviour should be
//! simulated depends on the specific experiment being conducted":
//!
//! * "Mouse movement starting at (0,0), which can be solved by moving the
//!   mouse prior to loading a page" — [`ExperimentBehaviors::position_cursor_before_load`].
//! * "Adding random/spontaneous mouse movements" —
//!   [`ExperimentBehaviors::spontaneous_movement`].
//! * "Misclicking" — [`ExperimentBehaviors::click_element_with_misclicks`].
//! * "Introducing typing errors … erasing and cancelling input" —
//!   [`ExperimentBehaviors::type_with_typos`] (adjacent-key slips corrected
//!   with Backspace).
//!
//! They are provided here as composable helpers over the HLISA chain so an
//! experiment can opt in per task. No experiment in this repository opts
//! in, so the module is compiled for its own tests only.
#![cfg(test)]

use crate::chains::HlisaActionChains;
use crate::motion::{plan_motion, trajectory_to_actions, MotionStyle};
use hlisa_browser::events::MouseButton;
use hlisa_browser::Point;
use hlisa_human::click::sample_dwell_ms;
use hlisa_human::keyboard::{adjacent_key, us_qwerty};
use hlisa_human::HumanParams;
use hlisa_sim::SimContext;
use hlisa_webdriver::{Action, ElementHandle, Session, WebDriverError};
use rand::Rng;

/// Experiment-level humanising behaviours, stacked on top of the API.
#[derive(Debug, Clone)]
pub struct ExperimentBehaviors {
    params: HumanParams,
    ctx: SimContext,
    chain_counter: u64,
}

impl ExperimentBehaviors {
    /// Creates the behaviour layer.
    pub fn new(seed: u64) -> Self {
        Self::with_context(SimContext::new(seed))
    }

    /// Creates the behaviour layer over an existing simulation context.
    pub fn with_context(ctx: SimContext) -> Self {
        Self {
            params: HumanParams::paper_baseline(),
            ctx,
            chain_counter: 0,
        }
    }

    fn chain(&mut self) -> HlisaActionChains {
        self.chain_counter += 1;
        HlisaActionChains::with_context(
            self.params.clone(),
            self.ctx.fork("behavior-chain", self.chain_counter),
        )
    }

    /// Moves the cursor to a plausible resting position before (or right
    /// after) page load, so the first recorded movement does not start at
    /// the OS origin (0, 0).
    pub fn position_cursor_before_load(
        &mut self,
        session: &mut Session,
    ) -> Result<(), WebDriverError> {
        let (x, y) = {
            let rng = self.ctx.stream("behavior");
            (rng.gen_range(200.0..1_000.0), rng.gen_range(120.0..600.0))
        };
        self.chain().move_to(x, y).perform(session)
    }

    /// A short, aimless drift of the cursor followed by a pause — the
    /// idle fidgeting real visitors produce while reading.
    pub fn spontaneous_movement(&mut self, session: &mut Session) -> Result<(), WebDriverError> {
        let p = session.browser.mouse_position();
        let (dx, dy, pause) = {
            let rng = self.ctx.stream("behavior");
            (
                rng.gen_range(-120.0..120.0),
                rng.gen_range(-80.0..80.0),
                rng.gen_range(0.3..1.8),
            )
        };
        self.chain()
            .move_by_offset(dx, dy)
            .pause(pause)
            .perform(session)?;
        let _ = p;
        Ok(())
    }

    /// Clicks an element, but with probability `misclick_prob` first lands
    /// a click just *outside* it, notices, and corrects — the "misclicking"
    /// behaviour Appendix F assigns to the experiment layer.
    ///
    /// Returns how many misclicks happened (0 or 1).
    pub fn click_element_with_misclicks(
        &mut self,
        session: &mut Session,
        el: ElementHandle,
        misclick_prob: f64,
    ) -> Result<usize, WebDriverError> {
        let mut misclicks = 0;
        if self
            .ctx
            .stream("behavior")
            .gen_bool(misclick_prob.clamp(0.0, 1.0))
        {
            session.ensure_interactable(el)?;
            let r = session.element_rect(el);
            // Land 4–18 px past a random edge.
            let (overshoot, edge) = {
                let rng = self.ctx.stream("behavior");
                (rng.gen_range(4.0..18.0), rng.gen_range(0..4u8))
            };
            let miss = match edge {
                0 => Point::new(r.x - overshoot, r.center().y),
                1 => Point::new(r.x + r.width + overshoot, r.center().y),
                2 => Point::new(r.center().x, r.y - overshoot),
                _ => Point::new(r.center().x, r.y + r.height + overshoot),
            };
            let from = session.browser.mouse_position();
            let samples = plan_motion(
                MotionStyle::hlisa(),
                &self.params,
                &mut self.ctx,
                from,
                miss,
                r.width.min(r.height),
            );
            let mut actions = trajectory_to_actions(&samples, 50.0);
            let dwell = sample_dwell_ms(&self.params, &mut self.ctx);
            actions.push(Action::PointerDown(MouseButton::Left));
            actions.push(Action::Pause(dwell));
            actions.push(Action::PointerUp(MouseButton::Left));
            // The double-take before correcting.
            let double_take = self.ctx.stream("behavior").gen_range(180.0..500.0);
            actions.push(Action::Pause(double_take));
            session.perform_actions(&actions);
            misclicks = 1;
        }
        self.chain().click(Some(el)).perform(session)?;
        Ok(misclicks)
    }

    /// Types `text` with occasional adjacent-key slips, each corrected
    /// with a pause and a Backspace before retyping the intended
    /// character.
    pub fn type_with_typos(
        &mut self,
        session: &mut Session,
        el: ElementHandle,
        text: &str,
        typo_prob: f64,
    ) -> Result<usize, WebDriverError> {
        self.chain().click(Some(el)).perform(session)?;
        let focus_pause = self.ctx.stream("behavior").gen_range(150.0..400.0);
        session.perform_actions(&[Action::Pause(focus_pause)]);
        let mut typos = 0;
        for ch in text.chars() {
            let Some(spec) = us_qwerty(ch) else {
                continue;
            };
            let slip = ch.is_ascii_alphabetic()
                && self
                    .ctx
                    .stream("behavior")
                    .gen_bool(typo_prob.clamp(0.0, 1.0));
            if slip {
                let slot = self.ctx.stream("behavior").gen_range(0..4usize);
                if let Some(wrong) = adjacent_key(ch, slot) {
                    self.type_one(session, &wrong.to_string());
                    // Noticing lag, then erase.
                    let lag = self.ctx.stream("behavior").gen_range(250.0..800.0);
                    session.perform_actions(&[Action::Pause(lag)]);
                    self.type_one(session, "Backspace");
                    typos += 1;
                }
            }
            self.type_one(session, &spec.key);
        }
        Ok(typos)
    }

    /// One human-timed key stroke through the primitives.
    fn type_one(&mut self, session: &mut Session, key: &str) {
        let needs_shift = {
            let mut chars = key.chars();
            matches!(
                (chars.next(), chars.next()),
                (Some(c), None) if us_qwerty(c).is_some_and(|s| s.needs_shift)
            )
        };
        let params = &self.params;
        let rng = self.ctx.stream("behavior");
        let mut actions = Vec::new();
        if needs_shift {
            actions.push(Action::KeyDown("Shift".to_string()));
            actions.push(Action::Pause(rng.gen_range(35.0..90.0)));
        }
        let dwell = params.key_dwell.sample(rng);
        actions.push(Action::KeyDown(key.to_string()));
        actions.push(Action::Pause(dwell));
        actions.push(Action::KeyUp(key.to_string()));
        if needs_shift {
            actions.push(Action::Pause(rng.gen_range(10.0..50.0)));
            actions.push(Action::KeyUp("Shift".to_string()));
        }
        actions.push(Action::Pause(params.key_flight.sample(rng).abs().max(5.0)));
        session.perform_actions(&actions);
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
            standard_test_page("https://extras.test/", 5_000.0),
        ))
    }

    #[test]
    fn cursor_leaves_the_origin_before_work() {
        let mut s = session();
        let mut x = ExperimentBehaviors::new(1);
        assert_eq!(s.browser.mouse_position(), Point::new(0.0, 0.0));
        x.position_cursor_before_load(&mut s).unwrap();
        let p = s.browser.mouse_position();
        assert!(
            p.x > 100.0 && p.y > 100.0,
            "cursor still near origin: {p:?}"
        );
    }

    #[test]
    fn spontaneous_movement_adds_trace_without_clicks() {
        let mut s = session();
        let mut x = ExperimentBehaviors::new(2);
        x.position_cursor_before_load(&mut s).unwrap();
        let before = s.browser.recorder.cursor_trace().len();
        x.spontaneous_movement(&mut s).unwrap();
        assert!(s.browser.recorder.cursor_trace().len() > before);
        assert!(s.browser.recorder.clicks().is_empty());
    }

    #[test]
    fn misclick_produces_two_clicks_one_off_element() {
        let mut s = session();
        let mut x = ExperimentBehaviors::new(3);
        let el = s.find_element(By::Id("submit".into())).unwrap();
        let n = x.click_element_with_misclicks(&mut s, el, 1.0).unwrap();
        assert_eq!(n, 1);
        let clicks = s.browser.recorder.clicks();
        assert_eq!(clicks.len(), 2);
        let rect = s.element_rect(el);
        let on_el = clicks
            .iter()
            .filter(|c| rect.contains(Point::new(c.x, c.y)))
            .count();
        assert_eq!(on_el, 1, "exactly one of the two clicks lands on target");
    }

    #[test]
    fn no_misclick_when_probability_zero() {
        let mut s = session();
        let mut x = ExperimentBehaviors::new(4);
        let el = s.find_element(By::Id("submit".into())).unwrap();
        let n = x.click_element_with_misclicks(&mut s, el, 0.0).unwrap();
        assert_eq!(n, 0);
        assert_eq!(s.browser.recorder.clicks().len(), 1);
    }

    #[test]
    fn typos_are_corrected_so_text_ends_right() {
        let mut s = session();
        let mut x = ExperimentBehaviors::new(5);
        let el = s.find_element(By::Id("text_area".into())).unwrap();
        let typos = x
            .type_with_typos(&mut s, el, "hello brown fox", 0.5)
            .unwrap();
        assert!(typos > 0, "with p=0.5 over 13 letters a typo must occur");
        assert_eq!(s.element_text(el), "hello brown fox");
        // The trace shows the slips: backspace keydowns.
        let backspaces = s
            .browser
            .recorder
            .events()
            .iter()
            .filter(|e| {
                e.kind == EventKind::KeyDown
                    && matches!(&e.payload,
                        hlisa_browser::EventPayload::Key { key, .. } if key == "Backspace")
            })
            .count();
        assert_eq!(backspaces, typos);
    }

    #[test]
    fn typo_free_typing_matches_plain_hlisa_output() {
        let mut s = session();
        let mut x = ExperimentBehaviors::new(6);
        let el = s.find_element(By::Id("text_area".into())).unwrap();
        x.type_with_typos(&mut s, el, "Plain text.", 0.0).unwrap();
        assert_eq!(s.element_text(el), "Plain text.");
    }
}
