//! Fine-grained W3C action primitives.
//!
//! These correspond to the Selenium internals HLISA builds on:
//! `move_to_offset(x, y)`, `key_down()`, `key_up()`, pointer button
//! actions, and pauses (§4.1 "Implementation and deployment"). A pointer
//! move has a duration and is executed as a straight-line, uniform-speed
//! interpolation — curvature only ever comes from *composing many short
//! moves*, which is precisely how HLISA expresses human-like trajectories.

use hlisa_browser::events::MouseButton;
use hlisa_browser::{Browser, Point, RawInput, TimedInput};

/// HLISA's patched minimum pointer-move duration (ms): "For Selenium
/// versions <4, we change this duration to 50 msec" (§4.1). This constant
/// is the single source of truth — the patched [`PointerMoveProfile`] and
/// the HLISA chain's `create_pointer_move` override both derive from it.
pub const HLISA_MIN_MOVE_MS: f64 = 50.0;

/// How pointer moves are synthesised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointerMoveProfile {
    /// Minimum duration of any single pointer move. Selenium (<4) enforces
    /// a lower bound "that is too high for simulating human interaction";
    /// HLISA overrides the internal `create_pointer_move()` to 50 ms.
    pub min_duration_ms: f64,
    /// Interval between interpolated raw pointer samples during a move.
    pub sample_interval_ms: f64,
}

impl PointerMoveProfile {
    /// Stock Selenium: 250 ms minimum move duration.
    pub fn selenium_default() -> Self {
        Self {
            min_duration_ms: 250.0,
            sample_interval_ms: 10.0,
        }
    }

    /// HLISA's patched profile: [`HLISA_MIN_MOVE_MS`] minimum move
    /// duration.
    pub fn hlisa_patched() -> Self {
        Self {
            min_duration_ms: HLISA_MIN_MOVE_MS,
            sample_interval_ms: 10.0,
        }
    }
}

/// One primitive action.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Move the pointer to absolute page coordinates over `duration_ms`
    /// (clamped up to the profile's minimum).
    PointerMove {
        /// Target x.
        x: f64,
        /// Target y.
        y: f64,
        /// Requested duration.
        duration_ms: f64,
    },
    /// Press a pointer button.
    PointerDown(MouseButton),
    /// Release a pointer button.
    PointerUp(MouseButton),
    /// Press a key.
    KeyDown(String),
    /// Release a key.
    KeyUp(String),
    /// Do nothing for a duration.
    Pause(f64),
    /// One wheel tick (HLISA's scroll extension reaches the browser
    /// through this; stock Selenium never emits it).
    WheelTick(i32),
}

/// Executes a list of primitive actions against a browser, advancing its
/// simulated time. Returns the total simulated time consumed.
///
/// Each action is one [`Browser::input_timed`] batch: a pointer move
/// starts wherever the previous action left the cursor, so its samples
/// are laid out only once that action has run.
pub fn perform(browser: &mut Browser, profile: PointerMoveProfile, actions: &[Action]) -> f64 {
    let start = browser.now_ms();
    for action in actions {
        match action {
            Action::PointerMove { x, y, duration_ms } => {
                let duration = duration_ms.max(profile.min_duration_ms);
                let from = browser.mouse_position();
                let to = Point::new(*x, *y);
                let steps = (duration / profile.sample_interval_ms).ceil().max(1.0) as usize;
                let step_ms = duration / steps as f64;
                browser.input_timed((1..=steps).map(|i| {
                    // Uniform-speed straight line: position is linear in t.
                    let p = from.lerp(to, i as f64 / steps as f64);
                    TimedInput::after(step_ms, RawInput::MouseMove { x: p.x, y: p.y })
                }));
            }
            Action::PointerDown(b) => browser.input(RawInput::MouseDown { button: *b }),
            Action::PointerUp(b) => browser.input(RawInput::MouseUp { button: *b }),
            Action::KeyDown(k) => browser.input(RawInput::KeyDown { key: k.clone() }),
            Action::KeyUp(k) => browser.input(RawInput::KeyUp { key: k.clone() }),
            Action::Pause(ms) => browser.input_timed([TimedInput::pause(*ms)]),
            Action::WheelTick(dir) => browser.input(RawInput::WheelTick { direction: *dir }),
        }
    }
    browser.now_ms() - start
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_browser::dom::standard_test_page;
    use hlisa_browser::{Browser, BrowserConfig};

    fn browser() -> Browser {
        Browser::open(
            BrowserConfig::webdriver(),
            standard_test_page("https://example.test/", 30_000.0),
        )
    }

    #[test]
    fn pointer_move_is_straight_and_uniform() {
        let mut b = browser();
        perform(
            &mut b,
            PointerMoveProfile::selenium_default(),
            &[Action::PointerMove {
                x: 500.0,
                y: 250.0,
                duration_ms: 250.0,
            }],
        );
        let trace = b.recorder.cursor_trace();
        assert!(trace.len() >= 5, "trace too sparse: {}", trace.len());
        // Collinearity with the straight line y = x/2 from (0, 0).
        for s in &trace {
            assert!((s.y - s.x / 2.0).abs() < 1e-6, "not straight at {s:?}");
        }
        // Uniform speed: equal distance per equal time.
        let speeds: Vec<f64> = trace
            .windows(2)
            .map(|w| {
                let d = ((w[1].x - w[0].x).powi(2) + (w[1].y - w[0].y).powi(2)).sqrt();
                d / (w[1].t - w[0].t).max(1.0)
            })
            .collect();
        let mean = speeds.iter().sum::<f64>() / speeds.len() as f64;
        for s in &speeds {
            assert!(
                (s - mean).abs() / mean < 0.25,
                "speed wobble: {s} vs {mean}"
            );
        }
    }

    #[test]
    fn min_duration_is_enforced() {
        let mut b = browser();
        let consumed = perform(
            &mut b,
            PointerMoveProfile::selenium_default(),
            &[Action::PointerMove {
                x: 10.0,
                y: 0.0,
                duration_ms: 1.0, // requested far below the floor
            }],
        );
        assert!(consumed >= 250.0, "consumed {consumed}");
    }

    #[test]
    fn hlisa_profile_lowers_the_floor() {
        let mut b = browser();
        let consumed = perform(
            &mut b,
            PointerMoveProfile::hlisa_patched(),
            &[Action::PointerMove {
                x: 10.0,
                y: 0.0,
                duration_ms: 1.0,
            }],
        );
        assert!((50.0..200.0).contains(&consumed), "consumed {consumed}");
    }

    #[test]
    fn key_actions_reach_the_page() {
        let mut b = browser();
        // Focus the input first.
        let input = b.document().by_id("text_area").unwrap();
        let c = b.element_center(input);
        perform(
            &mut b,
            PointerMoveProfile::selenium_default(),
            &[
                Action::PointerMove {
                    x: c.x,
                    y: c.y,
                    duration_ms: 250.0,
                },
                Action::PointerDown(MouseButton::Left),
                Action::PointerUp(MouseButton::Left),
                Action::KeyDown("a".into()),
                Action::KeyUp("a".into()),
                Action::Pause(20.0),
                Action::KeyDown("b".into()),
                Action::KeyUp("b".into()),
            ],
        );
        assert_eq!(b.document().element(input).text, "ab");
    }

    #[test]
    fn pause_consumes_exact_time() {
        let mut b = browser();
        let consumed = perform(
            &mut b,
            PointerMoveProfile::selenium_default(),
            &[Action::Pause(123.0)],
        );
        assert_eq!(consumed, 123.0);
    }

    #[test]
    fn wheel_tick_action_scrolls() {
        let mut b = browser();
        perform(
            &mut b,
            PointerMoveProfile::hlisa_patched(),
            &[
                Action::WheelTick(1),
                Action::Pause(100.0),
                Action::WheelTick(1),
            ],
        );
        assert_eq!(b.viewport.scroll_y(), 114.0);
    }
}
