//! Event recorder — the stand-in for a page's JavaScript event listeners.
//!
//! Appendix E: "We built a website that uses JavaScript to record events."
//! The recorder captures every dispatched event in order and offers the
//! trace views the paper's analysis needs (cursor trajectories, click
//! timings, key dwell/flight times, scroll cadences).
//!
//! The trace views are maintained *incrementally*: every aggregate is
//! updated at [`EventRecorder::record`] time, so detector-side queries
//! are O(1) slice borrows instead of O(n) rescans of the event log. The
//! original full-scan derivations are retained as `*_rescan` reference
//! implementations; a test asserts the two always agree.

use crate::events::{DomEvent, EventKind, EventPayload, MouseButton};
use hlisa_sim::{CounterSet, Observer};

/// A recorded interaction trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventRecorder {
    events: Vec<DomEvent>,
    click_offsets: Vec<f64>,
    // ---- incremental aggregates, maintained by `record` ----
    cursor: Vec<CursorSample>,
    clicks: Vec<ClickObservation>,
    /// Open presses awaiting their release: (button, down_t, x, y).
    pending_clicks: Vec<(MouseButton, f64, f64, f64)>,
    keystrokes: Vec<KeyObservation>,
    /// Open keydowns awaiting their keyup. Stores the *event index* of
    /// the keydown instead of a cloned key `String`; the key is borrowed
    /// from the event log for matching and cloned only once, when the
    /// pair completes.
    pending_keys: Vec<(usize, f64)>,
    key_flights: Vec<f64>,
    scroll_deltas: Vec<f64>,
    scroll_gaps: Vec<f64>,
    /// Timestamp and position of the last `scroll` event.
    last_scroll: Option<(f64, f64)>,
    wheel_count: usize,
    /// Per-kind event counts in first-seen order (≤ 57 kinds, so a
    /// linear scan beats hashing and keeps counter order deterministic).
    kind_counts: Vec<(EventKind, u64)>,
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

    /// Records one event, folding it into every incremental aggregate.
    pub fn record(&mut self, ev: DomEvent) {
        self.update_aggregates(&ev);
        self.events.push(ev);
    }

    /// Folds one event into the running aggregates. Called *before* the
    /// event is appended, so `self.events.len()` is the index the event
    /// will occupy.
    fn update_aggregates(&mut self, ev: &DomEvent) {
        match self.kind_counts.iter_mut().find(|(k, _)| *k == ev.kind) {
            Some((_, c)) => *c += 1,
            None => self.kind_counts.push((ev.kind, 1)),
        }
        match (&ev.kind, &ev.payload) {
            (EventKind::MouseMove, EventPayload::Mouse { x, y, .. }) => {
                self.cursor.push(CursorSample {
                    t: ev.timestamp_ms,
                    x: *x,
                    y: *y,
                });
            }
            (EventKind::MouseDown, EventPayload::Mouse { x, y, button }) => {
                self.pending_clicks.push((*button, ev.timestamp_ms, *x, *y));
            }
            (EventKind::MouseUp, EventPayload::Mouse { button, .. }) => {
                if let Some(pos) = self.pending_clicks.iter().position(|(b, ..)| b == button) {
                    let (b, down_t, x, y) = self.pending_clicks.remove(pos);
                    self.clicks.push(ClickObservation {
                        down_t,
                        up_t: ev.timestamp_ms,
                        x,
                        y,
                        dwell_ms: ev.timestamp_ms - down_t,
                        button: b,
                    });
                }
            }
            (EventKind::KeyDown, EventPayload::Key { .. }) => {
                self.pending_keys.push((self.events.len(), ev.timestamp_ms));
            }
            (EventKind::KeyUp, EventPayload::Key { key, .. }) => {
                let events = &self.events;
                let matching = self.pending_keys.iter().position(|(idx, _)| {
                    matches!(&events[*idx].payload,
                        EventPayload::Key { key: k, .. } if k == key)
                });
                if let Some(pos) = matching {
                    let (idx, down_t) = self.pending_keys.remove(pos);
                    if let EventPayload::Key { key, .. } = &self.events[idx].payload {
                        if let Some(last) = self.keystrokes.last() {
                            self.key_flights.push(down_t - last.up_t);
                        }
                        self.keystrokes.push(KeyObservation {
                            down_t,
                            up_t: ev.timestamp_ms,
                            key: key.clone(),
                            dwell_ms: ev.timestamp_ms - down_t,
                        });
                    }
                }
            }
            (EventKind::Scroll, EventPayload::Scroll { scroll_y }) => {
                if let Some((last_t, last_y)) = self.last_scroll {
                    self.scroll_deltas.push(*scroll_y - last_y);
                    self.scroll_gaps.push(ev.timestamp_ms - last_t);
                }
                self.last_scroll = Some((ev.timestamp_ms, *scroll_y));
            }
            (EventKind::Wheel, _) => {
                self.wheel_count += 1;
            }
            _ => {}
        }
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

    /// Clears the trace and every aggregate.
    pub fn clear(&mut self) {
        self.events.clear();
        self.click_offsets.clear();
        self.cursor.clear();
        self.clicks.clear();
        self.pending_clicks.clear();
        self.keystrokes.clear();
        self.pending_keys.clear();
        self.key_flights.clear();
        self.scroll_deltas.clear();
        self.scroll_gaps.clear();
        self.last_scroll = None;
        self.wheel_count = 0;
        self.kind_counts.clear();
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

    /// The cursor trajectory: every `mousemove` as (t, x, y). O(1) — the
    /// trace is maintained incrementally at record time.
    pub fn cursor_trace(&self) -> &[CursorSample] {
        &self.cursor
    }

    /// Click observations: mousedown/mouseup pairs per button, in order.
    /// O(1) — maintained incrementally at record time.
    pub fn clicks(&self) -> &[ClickObservation] {
        &self.clicks
    }

    /// Key observations: keydown/keyup pairs per key, supporting the
    /// interleaved presses fast human typing produces (§4.1: "sometimes a
    /// key is only released when a different key has already been pressed").
    /// O(1) — maintained incrementally at record time.
    pub fn keystrokes(&self) -> &[KeyObservation] {
        &self.keystrokes
    }

    /// Flight times between consecutive keystrokes: keyup(i) → keydown(i+1),
    /// in ms (may be negative for interleaved presses). O(1) — maintained
    /// incrementally at record time.
    pub fn key_flight_times(&self) -> &[f64] {
        &self.key_flights
    }

    /// Scroll deltas between consecutive scroll events (px). O(1) —
    /// maintained incrementally at record time.
    pub fn scroll_deltas(&self) -> &[f64] {
        &self.scroll_deltas
    }

    /// Inter-event gaps between consecutive scroll events (ms). O(1) —
    /// maintained incrementally at record time.
    pub fn scroll_gaps(&self) -> &[f64] {
        &self.scroll_gaps
    }

    /// Count of wheel events. O(1) — maintained incrementally.
    pub fn wheel_count(&self) -> usize {
        self.wheel_count
    }

    // ---- full-scan reference implementations --------------------------
    //
    // The original O(n) derivations over the raw event log, retained as
    // the semantic definition of each aggregate. The incremental views
    // above must always equal these (asserted by a test); keeping both
    // also lets offline consumers recompute views from a deserialized
    // event log alone.

    /// Full-scan reference for [`cursor_trace`](Self::cursor_trace).
    pub fn cursor_trace_rescan(&self) -> Vec<CursorSample> {
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

    /// Full-scan reference for [`clicks`](Self::clicks).
    pub fn clicks_rescan(&self) -> Vec<ClickObservation> {
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

    /// Full-scan reference for [`keystrokes`](Self::keystrokes).
    pub fn keystrokes_rescan(&self) -> Vec<KeyObservation> {
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

    /// Full-scan reference for [`key_flight_times`](Self::key_flight_times).
    pub fn key_flight_times_rescan(&self) -> Vec<f64> {
        let strokes = self.keystrokes_rescan();
        strokes
            .windows(2)
            .map(|w| w[1].down_t - w[0].up_t)
            .collect()
    }

    /// Full-scan reference for [`scroll_deltas`](Self::scroll_deltas).
    pub fn scroll_deltas_rescan(&self) -> Vec<f64> {
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

    /// Full-scan reference for [`scroll_gaps`](Self::scroll_gaps).
    pub fn scroll_gaps_rescan(&self) -> Vec<f64> {
        let ts: Vec<f64> = self
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Scroll)
            .map(|e| e.timestamp_ms)
            .collect();
        ts.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Full-scan reference for [`wheel_count`](Self::wheel_count).
    pub fn wheel_count_rescan(&self) -> usize {
        self.of_kind(EventKind::Wheel).len()
    }
}

/// The recorder is the canonical [`Observer`]: its counters expose the
/// trace as per-event-kind metrics. The browser's own recorder takes each
/// event by move through [`EventRecorder::record`]; a recorder attached as
/// an ordinary observer records a copy of each event it is shown.
impl Observer<DomEvent> for EventRecorder {
    fn on_event(&mut self, _t_ms: f64, event: &DomEvent) {
        self.record(event.clone());
    }

    fn counters(&self) -> CounterSet {
        // One insertion per *kind* (first-seen order, matching what
        // per-event insertion would produce) instead of one string
        // format + linear probe per event.
        let mut counters = CounterSet::new();
        counters.add("events.total", self.events.len() as u64);
        for (kind, count) in &self.kind_counts {
            counters.add(&format!("events.{}", kind.name()), *count);
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

    /// The incremental aggregates equal the full-scan references after a
    /// busy mixed trace — including unmatched presses, rollover typing,
    /// and a mid-stream burst of every event family.
    #[test]
    fn incremental_views_equal_rescan() {
        let mut r = EventRecorder::new();
        // Mixed trace: moves, an interleaved typing burst, a right-button
        // press with no release, clicks, wheel + scroll cadence.
        r.record(mouse_ev(
            EventKind::MouseMove,
            1.0,
            10.0,
            20.0,
            MouseButton::Left,
        ));
        r.record(key_ev(EventKind::KeyDown, 2.0, "a"));
        r.record(key_ev(EventKind::KeyDown, 3.0, "b"));
        r.record(mouse_ev(
            EventKind::MouseDown,
            4.0,
            11.0,
            21.0,
            MouseButton::Right,
        ));
        r.record(key_ev(EventKind::KeyUp, 5.0, "a"));
        r.record(mouse_ev(
            EventKind::MouseDown,
            6.0,
            12.0,
            22.0,
            MouseButton::Left,
        ));
        r.record(key_ev(EventKind::KeyUp, 7.0, "b"));
        r.record(mouse_ev(
            EventKind::MouseUp,
            8.0,
            12.0,
            22.0,
            MouseButton::Left,
        ));
        for (i, y) in [(0u32, 57.0), (1, 114.0), (2, 171.0)] {
            r.record(DomEvent {
                kind: EventKind::Wheel,
                timestamp_ms: 9.0 + f64::from(i),
                target: None,
                payload: EventPayload::Mouse {
                    x: 12.0,
                    y: 22.0,
                    button: MouseButton::Left,
                },
            });
            r.record(DomEvent {
                kind: EventKind::Scroll,
                timestamp_ms: 9.5 + f64::from(i),
                target: None,
                payload: EventPayload::Scroll { scroll_y: y },
            });
        }
        r.record(key_ev(EventKind::KeyDown, 20.0, "c"));
        r.record(key_ev(EventKind::KeyUp, 25.0, "c"));

        assert_eq!(r.cursor_trace(), r.cursor_trace_rescan());
        assert_eq!(r.clicks(), r.clicks_rescan());
        assert_eq!(r.keystrokes(), r.keystrokes_rescan());
        assert_eq!(r.key_flight_times(), r.key_flight_times_rescan());
        assert_eq!(r.scroll_deltas(), r.scroll_deltas_rescan());
        assert_eq!(r.scroll_gaps(), r.scroll_gaps_rescan());
        assert_eq!(r.wheel_count(), r.wheel_count_rescan());
    }
}
