//! Differential tests for the timed-input path.
//!
//! [`Browser::input_timed`] takes a whole batch of timed input in one
//! call. The reference below is the loop every driver ran before that
//! entry point existed: advance the browser's time by each item's delay,
//! then inject the item. Over random sequences of moves (with delays below the
//! `mousemove` coalescing interval, zero delays and long gaps), presses
//! and releases of both buttons, wheel ticks, key presses, script scrolls
//! (smooth scrolling on and off) and pauses, both must leave bit-equal
//! traces, metrics, cursor positions and times.
//!
//! A second test pins [`Browser::reopen`]: a browser left in every kind
//! of dirty state and re-opened behaves exactly like a freshly opened one.

use hlisa_browser::dom::standard_test_page;
use hlisa_browser::events::MouseButton;
use hlisa_browser::{Browser, BrowserConfig, RawInput, ScrollOrigin, TimedInput};
use proptest::prelude::*;
use std::sync::Arc;

/// A browser on the standard page whose time has idled to `start_ms`.
fn browser_at(start_ms: f64, smooth: bool) -> Browser {
    let mut b = Browser::open(
        BrowserConfig::regular(),
        standard_test_page("https://timed.test/", 6_000.0),
    );
    b.advance(start_ms);
    b.viewport.smooth_scrolling = smooth;
    b
}

/// The per-item reference: advance the browser's time, then inject.
fn reference_loop(browser: &mut Browser, items: &[TimedInput]) {
    for item in items {
        browser.advance(item.delay_ms);
        if let Some(raw) = &item.raw {
            browser.input(raw.clone());
        }
    }
}

/// Everything a page or a caller can see after a drive, with every
/// float rendered through `{:?}` (shortest round-trip form, so equal
/// strings mean equal bits).
fn observable(browser: &Browser) -> Vec<String> {
    vec![
        format!("{:?}", browser.recorder.events()),
        format!("{:?}", browser.recorder.cursor_trace()),
        format!("{:?}", browser.recorder.click_offsets()),
        format!("{:?}", browser.metrics()),
        format!("{:?}", browser.mouse_position()),
        format!("{:#x}", browser.now_ms().to_bits()),
        format!("{:?}", browser.viewport.scroll_y()),
        format!("{:?}", browser.focused()),
        format!("{:?}", browser.pressed_buttons()),
        format!("{:?}", browser.pressed_keys()),
        format!("{:?}", browser.document()),
    ]
}

/// One timed item from raw draws `(delay class, delay fraction, op, a, b,
/// pick)`. Delays are zero, below the 16 ms `mousemove` interval (moves
/// coalesce), ordinary, or long gaps (double-click window, idling). Moves
/// go anywhere (off-page included: the pointer clamps) or onto the
/// submit button and the focusable text area, so clicks, double clicks
/// and focus changes happen.
fn item((class, frac, op, a, b, pick): (u8, f64, u8, f64, f64, u8)) -> TimedInput {
    let delay_ms = match class {
        0 => 0.0,
        1 => frac * 16.0,
        2 => 16.0 + frac * 234.0,
        _ => 250.0 + frac * 4_750.0,
    };
    let button = if pick % 2 == 0 {
        MouseButton::Left
    } else {
        MouseButton::Right
    };
    let key = ["a", "B", "Shift", "Backspace"][usize::from(pick % 4)].to_string();
    let raw = match op {
        0..=3 => Some(RawInput::MouseMove {
            x: -50.0 + a * 1_450.0,
            y: -50.0 + b * 1_550.0,
        }),
        4 | 5 => Some(RawInput::MouseMove {
            x: 100.0 + a * 120.0,
            y: 480.0 + b * 40.0,
        }),
        6 => Some(RawInput::MouseMove {
            x: 400.0 + a * 300.0,
            y: 300.0 + b * 30.0,
        }),
        7 | 8 => Some(RawInput::MouseDown { button }),
        9 | 10 => Some(RawInput::MouseUp { button }),
        11 => Some(RawInput::WheelTick {
            direction: if pick % 2 == 0 { 1 } else { -1 },
        }),
        12 => Some(RawInput::KeyDown { key }),
        13 => Some(RawInput::KeyUp { key }),
        14 => Some(RawInput::ScrollFrom {
            origin: ScrollOrigin::Script,
            amount: a * 5_000.0,
        }),
        _ => None,
    };
    TimedInput { delay_ms, raw }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Batches of any size, cut anywhere, equal the per-item loop bit
    /// for bit.
    #[test]
    fn input_timed_matches_the_per_item_loop(
        raws in proptest::collection::vec(
            (0u8..4, 0.0f64..1.0, 0u8..17, 0.0f64..1.0, 0.0f64..1.0, 0u8..=255),
            0..60,
        ),
        batch in 1usize..24,
        (zero_start, start) in (0u8..2, 0.0f64..1_000_000.0),
        smooth in 0u8..2,
    ) {
        let items: Vec<TimedInput> = raws.into_iter().map(item).collect();
        let start_ms = if zero_start == 0 { 0.0 } else { start };
        let smooth = smooth == 1;
        let mut reference = browser_at(start_ms, smooth);
        reference_loop(&mut reference, &items);

        let mut batched = browser_at(start_ms, smooth);
        for chunk in items.chunks(batch) {
            batched.input_timed(chunk.iter().cloned());
        }

        prop_assert_eq!(observable(&batched), observable(&reference));
        prop_assert_eq!(batched.now_ms().to_bits(), reference.now_ms().to_bits());
    }
}

#[test]
#[should_panic(expected = "monotonically")]
fn a_negative_delay_is_rejected() {
    let mut b = browser_at(0.0, false);
    b.input_timed([TimedInput::pause(5.0), TimedInput::pause(-1.0)]);
}

/// Every observable a re-opened browser could leak from its last page.
fn reopen_state(b: &Browser) -> Vec<String> {
    vec![
        format!("{:?}", b.document()),
        format!("{:?}", b.metrics()),
        format!("{:?}", b.recorder),
        format!("{:?}", b.mouse_position()),
        format!("{:?}", b.focused()),
        format!("{}", b.is_visible()),
        format!("{:?}", b.pressed_buttons()),
        format!("{:?}", b.pressed_keys()),
        format!("{:?}", b.viewport),
        format!("{:#x}", b.now_ms().to_bits()),
        format!("{:?}", b.config()),
    ]
}

/// A drive that touches every piece of per-page state: focus, typing,
/// clicks (a double click needs the previous click remembered), wheel
/// and script scrolls, a coalesced move left pending.
fn drive(b: &mut Browser) {
    let text_area = b.document().by_id("text_area").expect("standard page");
    let c = b.element_center(text_area);
    b.input_timed([
        TimedInput::after(5.0, RawInput::MouseMove { x: c.x, y: c.y }),
        TimedInput::after(
            40.0,
            RawInput::MouseDown {
                button: MouseButton::Left,
            },
        ),
        TimedInput::after(
            70.0,
            RawInput::MouseUp {
                button: MouseButton::Left,
            },
        ),
        TimedInput::after(90.0, RawInput::KeyDown { key: "h".into() }),
        TimedInput::after(60.0, RawInput::KeyUp { key: "h".into() }),
        TimedInput::after(30.0, RawInput::WheelTick { direction: 1 }),
        TimedInput::after(
            30.0,
            RawInput::ScrollFrom {
                origin: ScrollOrigin::Script,
                amount: 2_500.0,
            },
        ),
        TimedInput::after(3.0, RawInput::MouseMove { x: 50.0, y: 60.0 }),
        TimedInput::after(2.0, RawInput::MouseMove { x: 52.0, y: 61.0 }),
    ]);
}

#[test]
fn a_reopened_browser_equals_a_fresh_one() {
    let config = BrowserConfig::webdriver();
    let pristine = config.pristine_world();
    let page = || standard_test_page("https://reopen.test/", 8_000.0);

    // Leave a browser as dirty as a drive can: buttons and keys held,
    // focus set, minimised, scrolled, smooth
    // scrolling on, the world written, a trace recorded.
    let mut dirty = Browser::open_with_world(
        config.clone(),
        standard_test_page("https://dirty.test/", 20_000.0),
        Arc::clone(&pristine),
    );
    dirty.advance(4_321.5);
    dirty.viewport.smooth_scrolling = true;
    drive(&mut dirty);
    dirty.input_timed([
        TimedInput::after(
            10.0,
            RawInput::MouseDown {
                button: MouseButton::Right,
            },
        ),
        TimedInput::after(
            10.0,
            RawInput::KeyDown {
                key: "Shift".into(),
            },
        ),
        TimedInput::after(10.0, RawInput::Minimize),
    ]);
    let nav = dirty.world_mut().resolve_navigator();
    dirty.world_mut().realm.set_own(
        nav,
        "tampered",
        hlisa_jsom::PropertyDescriptor::plain(hlisa_jsom::Value::Bool(true)),
    );
    assert!(dirty.focused().is_some() && !dirty.is_visible());
    assert!(!dirty.pressed_buttons().is_empty() && !dirty.pressed_keys().is_empty());

    dirty.reopen(page());
    let mut fresh = Browser::open_with_world(config, page(), Arc::clone(&pristine));
    assert_eq!(dirty.now_ms(), 0.0, "a re-open starts the page's time at 0");
    assert_eq!(reopen_state(&dirty), reopen_state(&fresh));
    assert!(std::ptr::eq(dirty.world(), Arc::as_ptr(&pristine)));

    // The same drive leaves both in the same state.
    drive(&mut dirty);
    drive(&mut fresh);
    assert_eq!(reopen_state(&dirty), reopen_state(&fresh));
}
