//! Replay detection — "perfect replayability" as a bot signal.
//!
//! §4.2's first simulator escalation is to stay within human limits
//! "including noise instead of perfect replayability": a scripted bot that
//! performs the same task twice produces *identical* interaction traces,
//! which no human ever does. This detector fingerprints each session's
//! trace (quantised, so measurement jitter doesn't hide an exact replay)
//! and flags clients whose sessions collide.

use hlisa_browser::recorder::EventRecorder;
use hlisa_stats::rngutil::splitmix64;

/// A compact fingerprint of one session's interaction trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceFingerprint(u64);

/// Fingerprints a recorded session: event kinds, quantised timestamps and
/// coordinates, hashed order-sensitively.
pub fn fingerprint_trace(recorder: &EventRecorder) -> TraceFingerprint {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h = splitmix64(h ^ v);
    };
    for e in recorder.events() {
        mix(e.kind.name().len() as u64 ^ (e.kind.name().as_bytes()[0] as u64) << 8);
        // Quantise to 5 ms / 2 px: coarse enough to survive clock rounding,
        // fine enough that genuinely different sessions differ.
        mix((e.timestamp_ms / 5.0).round() as u64);
        if let hlisa_browser::EventPayload::Mouse { x, y, .. } = &e.payload {
            mix(((x / 2.0).round() as i64) as u64);
            mix(((y / 2.0).round() as i64) as u64);
        }
        if let hlisa_browser::EventPayload::Key { key, .. } = &e.payload {
            for b in key.as_bytes() {
                mix(u64::from(*b));
            }
        }
    }
    TraceFingerprint(h)
}

/// Tracks sessions per client and reports replays.
#[derive(Debug, Clone, Default)]
pub struct ReplayDetector {
    seen: Vec<TraceFingerprint>,
}

impl ReplayDetector {
    /// An empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one session. Returns `true` when the exact trace was seen
    /// before — the replay signal.
    pub fn observe(&mut self, recorder: &EventRecorder) -> bool {
        let fp = fingerprint_trace(recorder);
        if self.seen.contains(&fp) {
            return true;
        }
        self.seen.push(fp);
        false
    }

    /// Number of distinct traces observed.
    #[cfg(test)]
    pub fn distinct_sessions(&self) -> usize {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_browser::dom::standard_test_page;
    use hlisa_browser::{Browser, BrowserConfig, RawInput};
    use hlisa_human::HumanAgent;

    /// A deterministic scripted task: fixed moves and clicks, like a bot
    /// replaying a recorded macro.
    fn scripted_session() -> EventRecorder {
        let mut b = Browser::open(
            BrowserConfig::webdriver(),
            standard_test_page("https://replay.test/", 3_000.0),
        );
        for i in 0..20 {
            b.input_after(
                20.0,
                RawInput::MouseMove {
                    x: 100.0 + f64::from(i) * 10.0,
                    y: 200.0,
                },
            );
        }
        b.input_after(
            10.0,
            RawInput::MouseDown {
                button: hlisa_browser::events::MouseButton::Left,
            },
        );
        b.input_after(
            50.0,
            RawInput::MouseUp {
                button: hlisa_browser::events::MouseButton::Left,
            },
        );
        b.recorder.clone()
    }

    fn human_session(seed: u64) -> EventRecorder {
        let mut b = Browser::open(
            BrowserConfig::regular(),
            standard_test_page("https://replay.test/", 3_000.0),
        );
        let mut h = HumanAgent::baseline(seed);
        let el = b.document().by_id("submit").unwrap();
        h.click_element(&mut b, el);
        b.recorder.clone()
    }

    #[test]
    fn scripted_replays_are_flagged() {
        let mut det = ReplayDetector::new();
        assert!(!det.observe(&scripted_session()), "first run is fresh");
        assert!(det.observe(&scripted_session()), "replay must be flagged");
        assert_eq!(det.distinct_sessions(), 1);
    }

    #[test]
    fn human_sessions_never_collide() {
        let mut det = ReplayDetector::new();
        for seed in 0..12 {
            assert!(
                !det.observe(&human_session(seed)),
                "human session {seed} flagged as replay"
            );
        }
        assert_eq!(det.distinct_sessions(), 12);
    }

    #[test]
    fn hlisa_sessions_never_collide() {
        use hlisa_stats::rngutil::derive_seed;
        // HLISA's whole point at this rung: noise instead of replayability.
        // Distinct seeds give distinct traces even for the same task.
        let mut det = ReplayDetector::new();
        for seed in 0..8 {
            let f = human_session(derive_seed(99, "hlisa-ish", seed));
            assert!(!det.observe(&f));
        }
    }

    #[test]
    fn fingerprint_is_deterministic() {
        assert_eq!(
            fingerprint_trace(&scripted_session()),
            fingerprint_trace(&scripted_session())
        );
        assert_ne!(
            fingerprint_trace(&human_session(1)),
            fingerprint_trace(&human_session(2))
        );
    }
}
