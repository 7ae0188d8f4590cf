//! Fixed-seed golden test over a full interaction session.
//!
//! The hashes below were captured from the pre-fast-path implementation
//! (linear `hit_test`, `Vec`-materialised trajectories, full-scan recorder
//! queries). The fast path must leave every observable byte unchanged:
//! the event stream (kinds, timestamps, targets, payloads), the derived
//! analytics, and the metrics counters. Any drift in RNG draw order,
//! hit-test semantics, or aggregate bookkeeping changes a hash and fails
//! this test.

use hlisa_browser::dom::standard_test_page;
use hlisa_browser::{Browser, BrowserConfig};
use hlisa_human::HumanAgent;

/// FNV-1a over the canonical debug rendering. Debug formatting of `f64`
/// is the shortest round-trip representation, so two values hash equal
/// iff they are bit-identical.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Drives a deterministic session covering every interaction family:
/// click, double click, typing (with Shift), wheel scrolling.
fn run_session() -> Browser {
    let mut b = Browser::open(
        BrowserConfig::regular(),
        standard_test_page("https://golden.test/", 30_000.0),
    );
    let mut h = HumanAgent::baseline(0xB17_5EED);
    h.bind_browser(&b);
    let submit = b.document().by_id("submit").expect("submit exists");
    let input = b.document().by_id("text_area").expect("input exists");
    h.click_element(&mut b, submit);
    h.settle(&mut b, 200.0, 600.0);
    h.click_element(&mut b, input);
    h.type_text(&mut b, "Hello, HLISA World");
    h.settle(&mut b, 150.0, 400.0);
    h.scroll_by(&mut b, 1_200.0);
    h.double_click_element(&mut b, submit);
    b
}

const EVENT_STREAM_HASH: u64 = 2_826_518_219_808_861_589;
const ANALYTICS_HASH: u64 = 6_459_694_867_669_931_918;
const METRICS_HASH: u64 = 11_591_917_484_188_956_702;

#[test]
fn event_stream_is_bit_identical_to_the_pre_fast_path_capture() {
    let b = run_session();
    let mut canon = String::new();
    for e in b.recorder.events() {
        canon.push_str(&format!("{e:?}\n"));
    }
    assert_eq!(
        fnv1a(&canon),
        EVENT_STREAM_HASH,
        "event stream drifted (events = {})",
        b.recorder.len()
    );
}

#[test]
fn derived_analytics_are_bit_identical_to_the_pre_fast_path_capture() {
    let b = run_session();
    let canon = format!(
        "trace {:?}\nclicks {:?}\noffsets {:?}\nkeys {:?}\nflights {:?}\nscroll_d {:?}\nscroll_g {:?}\nwheels {:?}\n",
        b.recorder.cursor_trace(),
        b.recorder.clicks(),
        b.recorder.click_offsets(),
        b.recorder.keystrokes(),
        b.recorder.key_flight_times(),
        b.recorder.scroll_deltas(),
        b.recorder.scroll_gaps(),
        b.recorder.wheel_count(),
    );
    assert_eq!(fnv1a(&canon), ANALYTICS_HASH, "analytics drifted");
}

#[test]
fn metrics_counters_are_bit_identical_to_the_pre_fast_path_capture() {
    let b = run_session();
    let canon = format!("{:?}", b.metrics().sorted().entries());
    assert_eq!(fnv1a(&canon), METRICS_HASH, "metrics drifted: {canon}");
}
