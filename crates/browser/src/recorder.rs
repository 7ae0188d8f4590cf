//! Event recorder — the stand-in for a page's JavaScript event listeners.
//!
//! Appendix E: "We built a website that uses JavaScript to record events."
//! The recorder captures every dispatched event in order, and the trace
//! views the paper's analysis needs (cursor trajectories, click timings,
//! key dwell/flight times, scroll cadences) are derived from that log
//! afterwards, each by one scan, the way the paper's analysis reads the
//! page's event log once a session has ended.

use crate::events::{DomEvent, EventKind, EventPayload, MouseButton};
use hlisa_sim::CounterSet;

/// A recorded interaction trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventRecorder {
    events: Vec<DomEvent>,
    click_offsets: Vec<f64>,
}

/// A single sampled cursor position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CursorSample {
    /// Event timestamp (ms).
    pub t: f64,
    /// Page x.
    pub x: f64,
    /// Page y.
    pub y: f64,
}

/// One observed click: press/release pair on the same target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClickObservation {
    /// `mousedown` timestamp.
    pub down_t: f64,
    /// `mouseup` timestamp.
    pub up_t: f64,
    /// Press position x.
    pub x: f64,
    /// Press position y.
    pub y: f64,
    /// Button dwell time (ms).
    pub dwell_ms: f64,
    /// Button.
    pub button: MouseButton,
}

/// One observed key stroke: down/up pair for the same key.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyObservation {
    /// `keydown` timestamp.
    pub down_t: f64,
    /// `keyup` timestamp.
    pub up_t: f64,
    /// The key.
    pub key: String,
    /// Dwell time (ms).
    pub dwell_ms: f64,
}

impl EventRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event.
    pub fn record(&mut self, ev: DomEvent) {
        self.events.push(ev);
    }

    /// All events in dispatch order.
    pub fn events(&self) -> &[DomEvent] {
        &self.events
    }

    /// Records a normalised radial click offset, computed at dispatch time
    /// against the clicked element's box — what a page script derives from
    /// `getBoundingClientRect()` inside its click listener.
    pub fn record_click_offset(&mut self, offset_frac: f64) {
        self.click_offsets.push(offset_frac);
    }

    /// Normalised radial click offsets, in click order.
    pub fn click_offsets(&self) -> &[f64] {
        &self.click_offsets
    }

    /// Clears the trace.
    pub fn clear(&mut self) {
        self.events.clear();
        self.click_offsets.clear();
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one kind.
    pub fn of_kind(&self, kind: EventKind) -> Vec<&DomEvent> {
        self.events.iter().filter(|e| e.kind == kind).collect()
    }

    /// The cursor trajectory: every `mousemove` as (t, x, y).
    pub fn cursor_trace(&self) -> Vec<CursorSample> {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::MouseMove)
            .filter_map(|e| match &e.payload {
                EventPayload::Mouse { x, y, .. } => Some(CursorSample {
                    t: e.timestamp_ms,
                    x: *x,
                    y: *y,
                }),
                _ => None,
            })
            .collect()
    }

    /// Click observations: mousedown/mouseup pairs per button, in order.
    pub fn clicks(&self) -> Vec<ClickObservation> {
        let mut out = Vec::new();
        let mut pending: Vec<(MouseButton, f64, f64, f64)> = Vec::new();
        for e in &self.events {
            match (&e.kind, &e.payload) {
                (EventKind::MouseDown, EventPayload::Mouse { x, y, button }) => {
                    pending.push((*button, e.timestamp_ms, *x, *y));
                }
                (EventKind::MouseUp, EventPayload::Mouse { button, .. }) => {
                    if let Some(pos) = pending.iter().position(|(b, ..)| b == button) {
                        let (b, down_t, x, y) = pending.remove(pos);
                        out.push(ClickObservation {
                            down_t,
                            up_t: e.timestamp_ms,
                            x,
                            y,
                            dwell_ms: e.timestamp_ms - down_t,
                            button: b,
                        });
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Key observations: keydown/keyup pairs per key, supporting the
    /// interleaved presses fast human typing produces (§4.1: "sometimes a
    /// key is only released when a different key has already been pressed").
    pub fn keystrokes(&self) -> Vec<KeyObservation> {
        let mut out = Vec::new();
        let mut pending: Vec<(String, f64)> = Vec::new();
        for e in &self.events {
            match (&e.kind, &e.payload) {
                (EventKind::KeyDown, EventPayload::Key { key, .. }) => {
                    pending.push((key.clone(), e.timestamp_ms));
                }
                (EventKind::KeyUp, EventPayload::Key { key, .. }) => {
                    if let Some(pos) = pending.iter().position(|(k, _)| k == key) {
                        let (k, down_t) = pending.remove(pos);
                        out.push(KeyObservation {
                            down_t,
                            up_t: e.timestamp_ms,
                            key: k,
                            dwell_ms: e.timestamp_ms - down_t,
                        });
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Flight times between consecutive keystrokes: keyup(i) → keydown(i+1),
    /// in ms (may be negative for interleaved presses).
    // lint: allow(unread-pub-item) test reference: interaction_golden.rs hashes it
    pub fn key_flight_times(&self) -> Vec<f64> {
        self.keystrokes()
            .windows(2)
            .map(|w| w[1].down_t - w[0].up_t)
            .collect()
    }

    /// Scroll deltas between consecutive scroll events (px).
    pub fn scroll_deltas(&self) -> Vec<f64> {
        let ys: Vec<f64> = self
            .events
            .iter()
            .filter_map(|e| match (&e.kind, &e.payload) {
                (EventKind::Scroll, EventPayload::Scroll { scroll_y }) => Some(*scroll_y),
                _ => None,
            })
            .collect();
        ys.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Inter-event gaps between consecutive scroll events (ms).
    pub fn scroll_gaps(&self) -> Vec<f64> {
        let ts: Vec<f64> = self
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Scroll)
            .map(|e| e.timestamp_ms)
            .collect();
        ts.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Count of wheel events.
    pub fn wheel_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Wheel)
            .count()
    }

    /// The trace as per-event-kind metrics: `events.total`, then one
    /// `events.<kind>` count per kind, in first-seen order. One pass
    /// tallies every kind.
    pub fn counters(&self) -> CounterSet {
        let mut counts = [0u64; EventKind::NAMES.len()];
        let mut order = Vec::new();
        for e in &self.events {
            let count = &mut counts[e.kind as usize];
            if *count == 0 {
                order.push(e.kind);
            }
            *count += 1;
        }
        let mut counters = CounterSet::new();
        counters.add("events.total", self.events.len() as u64);
        for kind in order {
            counters.add(&format!("events.{}", kind.name()), counts[kind as usize]);
        }
        counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{DomEvent, EventPayload};

    fn mouse_ev(kind: EventKind, t: f64, x: f64, y: f64, button: MouseButton) -> DomEvent {
        DomEvent {
            kind,
            timestamp_ms: t,
            target: None,
            payload: EventPayload::Mouse { x, y, button },
        }
    }

    fn key_ev(kind: EventKind, t: f64, key: &str) -> DomEvent {
        DomEvent {
            kind,
            timestamp_ms: t,
            target: None,
            payload: EventPayload::Key {
                key: key.into(),
                shift: false,
            },
        }
    }

    #[test]
    fn cursor_trace_extracts_moves() {
        let mut r = EventRecorder::new();
        r.record(mouse_ev(
            EventKind::MouseMove,
            1.0,
            10.0,
            20.0,
            MouseButton::Left,
        ));
        r.record(mouse_ev(
            EventKind::MouseDown,
            2.0,
            10.0,
            20.0,
            MouseButton::Left,
        ));
        r.record(mouse_ev(
            EventKind::MouseMove,
            3.0,
            11.0,
            21.0,
            MouseButton::Left,
        ));
        let trace = r.cursor_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[1].x, 11.0);
    }

    #[test]
    fn clicks_pair_down_and_up() {
        let mut r = EventRecorder::new();
        r.record(mouse_ev(
            EventKind::MouseDown,
            10.0,
            5.0,
            5.0,
            MouseButton::Left,
        ));
        r.record(mouse_ev(
            EventKind::MouseUp,
            95.0,
            5.0,
            5.0,
            MouseButton::Left,
        ));
        let clicks = r.clicks();
        assert_eq!(clicks.len(), 1);
        assert_eq!(clicks[0].dwell_ms, 85.0);
        assert_eq!(clicks[0].button, MouseButton::Left);
    }

    #[test]
    fn keystrokes_support_interleaving() {
        let mut r = EventRecorder::new();
        // a down, b down, a up, b up — rollover typing.
        r.record(key_ev(EventKind::KeyDown, 0.0, "a"));
        r.record(key_ev(EventKind::KeyDown, 40.0, "b"));
        r.record(key_ev(EventKind::KeyUp, 60.0, "a"));
        r.record(key_ev(EventKind::KeyUp, 110.0, "b"));
        let ks = r.keystrokes();
        assert_eq!(ks.len(), 2);
        assert_eq!(ks[0].key, "a");
        assert_eq!(ks[0].dwell_ms, 60.0);
        assert_eq!(ks[1].key, "b");
        assert_eq!(ks[1].dwell_ms, 70.0);
        // Negative flight time marks the interleave.
        let flights = r.key_flight_times();
        assert_eq!(flights, vec![-20.0]);
    }

    #[test]
    fn scroll_views() {
        let mut r = EventRecorder::new();
        for (t, y) in [(0.0, 57.0), (100.0, 114.0), (230.0, 171.0)] {
            r.record(DomEvent {
                kind: EventKind::Scroll,
                timestamp_ms: t,
                target: None,
                payload: EventPayload::Scroll { scroll_y: y },
            });
        }
        assert_eq!(r.scroll_deltas(), vec![57.0, 57.0]);
        assert_eq!(r.scroll_gaps(), vec![100.0, 130.0]);
    }

    #[test]
    fn clear_resets() {
        let mut r = EventRecorder::new();
        r.record(key_ev(EventKind::KeyDown, 0.0, "a"));
        assert!(!r.is_empty());
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert!(r.cursor_trace().is_empty());
        assert!(r.keystrokes().is_empty());
        assert_eq!(r.wheel_count(), 0);
        assert!(r.counters().get("events.keydown").is_none());
    }
}
