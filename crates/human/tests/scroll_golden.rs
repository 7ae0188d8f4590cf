//! Fixed-seed golden test over `HumanAgent` wheel scrolling.
//!
//! Each case drives a deterministic scroll session and hashes what it
//! leaves behind: the recorded event stream, the recorder's scroll
//! deltas and gaps, and the next `u64` of the agent's `"scroll"` stream
//! (so a change in how many draws a scroll makes fails here even when
//! the events still agree). The hashes were captured before scroll
//! synthesis moved from a lazy tick iterator to the eager planner; any
//! drift in tick count, tick timing, draw order or post-scroll RNG state
//! changes a hash.

use hlisa_browser::dom::standard_test_page;
use hlisa_browser::{Browser, BrowserConfig};
use hlisa_human::HumanAgent;
use hlisa_sim::SimContext;
use rand::Rng;

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

fn browser() -> Browser {
    Browser::open(
        BrowserConfig::regular(),
        standard_test_page("https://scroll.test/", 30_000.0),
    )
}

fn agent(seed: u64) -> HumanAgent {
    HumanAgent::baseline(seed)
}

/// Hash of everything a scroll session leaves observable.
fn session_hash(b: &Browser, h: &HumanAgent) -> u64 {
    let mut canon = String::new();
    for e in b.recorder.events() {
        canon.push_str(&format!("{e:?}\n"));
    }
    let next_scroll = h.context().clone().stream("scroll").gen::<u64>();
    canon.push_str(&format!(
        "scroll_d {:?}\nscroll_g {:?}\nnext_scroll {next_scroll}\n",
        b.recorder.scroll_deltas(),
        b.recorder.scroll_gaps(),
    ));
    fnv1a(&canon)
}

#[test]
fn zero_distance_scroll_is_pinned() {
    let mut b = browser();
    let mut h = agent(0x5C_0001);
    h.scroll_by(&mut b, 0.0);
    assert_eq!(b.recorder.wheel_count(), 0);
    assert_eq!(session_hash(&b, &h), 9_398_405_867_370_512_064);
}

#[test]
fn upward_scroll_after_a_downward_one_is_pinned() {
    let mut b = browser();
    let mut h = agent(0x5C_0002);
    h.scroll_by(&mut b, 2_000.0);
    h.scroll_by(&mut b, -600.0);
    assert_eq!(session_hash(&b, &h), 4_482_496_001_362_421_505);
}

#[test]
fn scroll_to_bottom_of_the_standard_page_is_pinned() {
    let mut b = browser();
    let mut h = agent(0x5C_0003);
    h.scroll_to_bottom(&mut b);
    assert!(b.recorder.wheel_count() > 400);
    assert_eq!(session_hash(&b, &h), 2_795_946_776_847_669_445);
}

#[test]
fn two_scrolls_across_rebind_are_pinned() {
    let mut b = browser();
    let mut h = agent(0x5C_0004);
    h.scroll_by(&mut b, 1_500.0);
    h.rebind(SimContext::new(0x5C_0005));
    h.scroll_by(&mut b, 900.0);
    assert_eq!(session_hash(&b, &h), 4_950_054_863_702_459_395);
}
