//! A human agent driving a simulated browser.
//!
//! Injects raw OS input generated by the cursor/click/typing/scroll models,
//! producing the event traces that play the role of the paper's human
//! recordings (Appendix E) — the "B: human" trajectory of Fig. 1, the
//! top-right click cloud of Fig. 2, and the reference samples the level-2
//! detectors compare against.

use crate::click::{sample_click_point, sample_double_click_gap_ms, sample_dwell_ms};
use crate::cursor::{self, StrokeScratch, TrajectorySample};
use crate::params::HumanParams;
use crate::scroll::{plan_scroll_into, PlannedTick};
use crate::typing::{plan_typing_into, PlannedKeyEvent};
use hlisa_browser::dom::NodeId;
use hlisa_browser::events::MouseButton;
use hlisa_browser::viewport::WHEEL_TICK_PX;
use hlisa_browser::{Browser, Point, RawInput, TimedInput};
use hlisa_sim::SimContext;
use rand::Rng;

/// A simulated human user.
///
/// All randomness flows through a [`SimContext`]: the sub-models draw from
/// their own named streams (`"cursor"`, `"click"`, `"scroll"`,
/// `"typing"`) and the agent's own pacing draws come from `"agent"`, so
/// two agents built from equal contexts replay identically regardless of
/// which activities they interleave.
#[derive(Debug, Clone)]
pub struct HumanAgent {
    params: HumanParams,
    ctx: SimContext,
    /// Scratch buffer for the most recent trajectory; reused across
    /// movements so steady-state driving allocates nothing per action.
    move_buf: Vec<TrajectorySample>,
    /// Scratch buffer for typing plans, reused the same way.
    key_buf: Vec<PlannedKeyEvent>,
    /// Scratch buffer for wheel-scroll plans, reused the same way.
    tick_buf: Vec<PlannedTick>,
    /// Stroke-kernel scratch (inline tremor buffer + heap spill), reused
    /// across movements so trajectory synthesis is allocation-free once
    /// warm.
    stroke_scratch: StrokeScratch,
}

impl HumanAgent {
    /// Creates a human with the given model parameters and seed.
    pub fn new(params: HumanParams, seed: u64) -> Self {
        Self::with_context(params, SimContext::new(seed))
    }

    /// Creates a human drawing from an existing simulation context.
    pub fn with_context(params: HumanParams, ctx: SimContext) -> Self {
        Self {
            params,
            ctx,
            move_buf: Vec::new(),
            key_buf: Vec::new(),
            tick_buf: Vec::new(),
            stroke_scratch: StrokeScratch::new(),
        }
    }

    /// Points the agent at a new simulation context while keeping every
    /// scratch buffer (and its capacity). Driving many visits through one
    /// rebound agent behaves identically to building a fresh agent per
    /// visit, minus the per-visit allocations.
    pub fn rebind(&mut self, ctx: SimContext) {
        self.ctx = ctx;
        self.move_buf.clear();
        self.key_buf.clear();
        self.tick_buf.clear();
    }

    /// Current scratch capacities `[move samples, key events, wheel ticks,
    /// tremor spill, basis spill]`. `Vec` capacity is monotonic, so a
    /// reused agent whose capacities stop changing is provably
    /// allocation-free in its interaction hot paths — regression tests
    /// assert this.
    pub fn scratch_capacities(&self) -> [usize; 5] {
        let (tremor, basis) = self.stroke_scratch.spill_capacities();
        [
            self.move_buf.capacity(),
            self.key_buf.capacity(),
            self.tick_buf.capacity(),
            tremor,
            basis,
        ]
    }

    /// A human with the paper's baseline parameters.
    pub fn baseline(seed: u64) -> Self {
        Self::new(HumanParams::paper_baseline(), seed)
    }

    /// The model parameters.
    pub fn params(&self) -> &HumanParams {
        &self.params
    }

    /// The agent's simulation context.
    // lint: allow(unread-pub-item) test reference: scroll_golden.rs reads the scroll stream through it
    pub fn context(&self) -> &SimContext {
        &self.ctx
    }

    /// Idles for a human "reading/settling" moment.
    pub fn settle(&mut self, browser: &mut Browser, min_ms: f64, max_ms: f64) {
        let pause = self
            .ctx
            .stream("agent")
            .gen_range(min_ms..max_ms.max(min_ms + 1.0));
        browser.advance(pause);
    }

    /// Moves the cursor to a point: synthesizes the trajectory through the
    /// fixed-capacity stroke kernel into the reused scratch buffer (no
    /// per-movement allocation in steady state), then injects every raw
    /// sample as one timed batch. Returns the samples (absolute page
    /// coordinates), valid until the next movement overwrites the scratch
    /// buffer.
    pub fn move_cursor_to(
        &mut self,
        browser: &mut Browser,
        to: Point,
        target_w: f64,
    ) -> &[TrajectorySample] {
        let from = browser.mouse_position();
        self.move_buf.clear();
        cursor::synthesize_into(
            &self.params,
            self.ctx.stream("cursor"),
            from,
            to,
            target_w,
            &mut self.stroke_scratch,
            &mut self.move_buf,
        );
        let mut prev_t = 0.0;
        browser.input_timed(self.move_buf.iter().map(|s| {
            let delay = (s.t_ms - prev_t).max(0.0);
            prev_t = s.t_ms;
            TimedInput::after(delay, RawInput::MouseMove { x: s.x, y: s.y })
        }));
        &self.move_buf
    }

    /// Waits `delay_ms`, then presses and releases `button` with human
    /// dwell — one timed batch. The dwell is drawn before the press is
    /// injected; injection draws nothing, so the draw order is the same
    /// as drawing between press and release.
    fn press_and_release_after(
        &mut self,
        browser: &mut Browser,
        delay_ms: f64,
        button: MouseButton,
    ) {
        let dwell = sample_dwell_ms(&self.params, &mut self.ctx);
        browser.input_timed([
            TimedInput::after(delay_ms, RawInput::MouseDown { button }),
            TimedInput::after(dwell, RawInput::MouseUp { button }),
        ]);
    }

    /// Clicks an element: wheel-scrolls it into view if needed, moves the
    /// cursor along a human path to a sampled (non-centre) point, clicks.
    /// Returns the click point.
    pub fn click_element(&mut self, browser: &mut Browser, id: NodeId) -> Point {
        let rect = browser.document().element(id).rect;
        if !browser.viewport.is_y_visible(rect.center().y) {
            let delta =
                rect.center().y - browser.viewport.scroll_y() - browser.viewport.height / 2.0;
            self.scroll_by(browser, delta);
        }
        let rect = browser.document().element(id).rect;
        let target = sample_click_point(&self.params, &mut self.ctx, rect);
        self.move_cursor_to(browser, target, rect.width.min(rect.height));
        // A brief verification fixation before pressing.
        let fixation = self.ctx.stream("agent").gen_range(40.0..160.0);
        self.press_and_release_after(browser, fixation, MouseButton::Left);
        target
    }

    /// Double-clicks an element with a sampled inter-click gap.
    // lint: allow(unread-pub-item) test reference: interaction_golden.rs pins its trace
    pub fn double_click_element(&mut self, browser: &mut Browser, id: NodeId) -> Point {
        let p = self.click_element(browser, id);
        let gap = sample_double_click_gap_ms(&self.params, &mut self.ctx);
        self.press_and_release_after(browser, gap, MouseButton::Left);
        p
    }

    /// Types text into whatever currently has focus, with the full human
    /// rhythm (dwell, flight, Shift, contextual pauses, interleaving).
    pub fn type_text(&mut self, browser: &mut Browser, text: &str) {
        plan_typing_into(
            &self.params,
            self.ctx.stream("typing"),
            text,
            &mut self.key_buf,
        );
        let mut prev_t = 0.0;
        browser.input_timed(self.key_buf.drain(..).map(|ev| {
            let delay = (ev.at_ms - prev_t).max(0.0);
            prev_t = ev.at_ms;
            let raw = if ev.down {
                RawInput::KeyDown { key: ev.key }
            } else {
                RawInput::KeyUp { key: ev.key }
            };
            TimedInput::after(delay, raw)
        }));
    }

    /// Wheel-scrolls by approximately `distance_px` (positive = down) with
    /// human cadence: plans the ticks into the reused scratch buffer, then
    /// injects them as one timed batch. Injection draws nothing, so the
    /// plan makes the same draws as planning tick by tick.
    pub fn scroll_by(&mut self, browser: &mut Browser, distance_px: f64) {
        plan_scroll_into(
            &self.params,
            self.ctx.stream("scroll"),
            distance_px,
            WHEEL_TICK_PX,
            &mut self.tick_buf,
        );
        let mut prev_t = 0.0;
        browser.input_timed(self.tick_buf.iter().map(|tick| {
            let delay = (tick.at_ms - prev_t).max(0.0);
            prev_t = tick.at_ms;
            TimedInput::after(
                delay,
                RawInput::WheelTick {
                    direction: tick.direction,
                },
            )
        }));
    }

    /// Scrolls to the bottom of the page at a comfortable pace
    /// (Appendix E's scrolling task).
    pub fn scroll_to_bottom(&mut self, browser: &mut Browser) {
        let remaining = browser.viewport.max_scroll_y() - browser.viewport.scroll_y();
        self.scroll_by(browser, remaining);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_browser::dom::standard_test_page;
    use hlisa_browser::events::EventKind;
    use hlisa_browser::BrowserConfig;

    fn browser() -> Browser {
        Browser::open(
            BrowserConfig::regular(),
            standard_test_page("https://example.test/", 30_000.0),
        )
    }

    #[test]
    fn click_lands_on_element_but_off_centre() {
        let mut b = browser();
        let mut h = HumanAgent::baseline(1);
        let id = b.document().by_id("submit").unwrap();
        let rect = b.document().element(id).rect;
        let p = h.click_element(&mut b, id);
        assert!(rect.contains(p));
        let clicks = b.recorder.clicks();
        assert_eq!(clicks.len(), 1);
        assert!(clicks[0].dwell_ms >= 20.0, "human dwell");
        // Off-centre almost surely.
        let c = rect.center();
        assert!(p.distance_to(c) > 0.1);
    }

    #[test]
    fn cursor_movement_produces_mousemove_trail() {
        let mut b = browser();
        let mut h = HumanAgent::baseline(2);
        h.move_cursor_to(&mut b, Point::new(900.0, 300.0), 40.0);
        let trace = b.recorder.cursor_trace();
        assert!(trace.len() >= 10, "only {} moves", trace.len());
        // The OS cursor ends exactly at the destination (the last *event*
        // may be frame-coalesced).
        assert_eq!(b.mouse_position(), Point::new(900.0, 300.0));
    }

    #[test]
    fn typing_matches_text_content() {
        let mut b = browser();
        let mut h = HumanAgent::baseline(3);
        let input = b.document().by_id("text_area").unwrap();
        h.click_element(&mut b, input);
        h.type_text(&mut b, "Hello, World");
        assert_eq!(b.document().element(input).text, "Hello, World");
        // Shift was actually pressed for the capitals.
        let shifts = b
            .recorder
            .events()
            .iter()
            .filter(|e| {
                e.kind == EventKind::KeyDown
                    && matches!(&e.payload,
                        hlisa_browser::EventPayload::Key { key, .. } if key == "Shift")
            })
            .count();
        assert!(shifts >= 2, "expected shift for H and W, got {shifts}");
    }

    #[test]
    fn human_key_dwell_is_nonzero() {
        let mut b = browser();
        let mut h = HumanAgent::baseline(4);
        let input = b.document().by_id("text_area").unwrap();
        h.click_element(&mut b, input);
        h.type_text(&mut b, "abcdef");
        let strokes = b.recorder.keystrokes();
        assert_eq!(strokes.len(), 6);
        assert!(strokes.iter().all(|k| k.dwell_ms >= 20.0));
    }

    #[test]
    fn scroll_to_bottom_uses_wheel_ticks() {
        let mut b = browser();
        let mut h = HumanAgent::baseline(5);
        h.scroll_to_bottom(&mut b);
        assert!(
            (b.viewport.scroll_y() - b.viewport.max_scroll_y()).abs() < WHEEL_TICK_PX,
            "y = {}",
            b.viewport.scroll_y()
        );
        assert!(b.recorder.wheel_count() > 400);
        // Cadence includes finger breaks.
        let long_gaps = b
            .recorder
            .scroll_gaps()
            .iter()
            .filter(|g| **g >= 300.0)
            .count();
        assert!(long_gaps > 5);
    }

    #[test]
    fn offscreen_click_scrolls_with_wheel_not_script() {
        let mut b = browser();
        let mut h = HumanAgent::baseline(6);
        let far = b.document().by_id("section-end").unwrap();
        h.click_element(&mut b, far);
        assert!(b.recorder.wheel_count() > 0, "humans scroll with the wheel");
        assert_eq!(b.recorder.clicks().len(), 1);
    }

    #[test]
    fn double_click_registers() {
        let mut b = browser();
        let mut h = HumanAgent::baseline(7);
        let id = b.document().by_id("submit").unwrap();
        h.double_click_element(&mut b, id);
        assert_eq!(b.recorder.of_kind(EventKind::DblClick).len(), 1);
    }

    #[test]
    fn two_humans_with_same_seed_replay_identically() {
        let run = |seed: u64| {
            let mut b = browser();
            let mut h = HumanAgent::baseline(seed);
            h.move_cursor_to(&mut b, Point::new(500.0, 400.0), 30.0);
            b.recorder.cursor_trace()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
