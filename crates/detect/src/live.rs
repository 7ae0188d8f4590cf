//! Streaming (live) interaction monitoring over the [`Observer`] protocol.
//!
//! The batch detectors in [`crate::interaction`] judge a finished trace
//! pulled from the recorder. A deployed first-party detector does not get
//! that luxury: it runs *inside* the page, sees each event as it fires,
//! and must keep only running state. [`LiveInteractionMonitor`] models
//! that deployment: it subscribes to the browser's event dispatch via
//! [`hlisa_sim::Observer`] and maintains streaming counters of the
//! level-1 artificiality cues (zero-dwell clicks, teleporting cursors,
//! keyboard input without key events). Both timed cues use the batch
//! level 1's own limits from [`crate::thresholds`], so the live and the
//! batch detector judge a click dwell or a cursor speed alike.
//!
//! The monitor is handed to `Browser::attach_observer` by value; a shared
//! [`LiveMonitorHandle`] lets the experiment read the verdict afterwards,
//! and every counter also surfaces through `Browser::metrics()`.
//!
//! Unlike the batch `EventRecorder` analytics (which gained incremental
//! aggregates in the interaction fast-path work — see DESIGN.md), this
//! monitor was incremental by construction: it stores O(1) running state
//! per cue, never the trace, so it needs no rescan/incremental split and
//! its per-event cost is already the floor.

use crate::thresholds::{MAX_HUMAN_SPEED_PX_PER_MS, MIN_HUMAN_CLICK_DWELL_MS};
use hlisa_browser::events::{DomEvent, EventKind, EventPayload};
use hlisa_sim::{CounterSet, Observer};
use std::sync::{Arc, Mutex};

/// Running state shared between the attached monitor and its handle.
#[derive(Debug, Clone, Default)]
struct LiveState {
    moves: u64,
    clicks: u64,
    keydowns: u64,
    wheel_ticks: u64,
    zero_dwell_clicks: u64,
    teleport_moves: u64,
    last_pointer: Option<(f64, f64, f64)>,
    pointer_down_at: Option<f64>,
}

/// Streaming first-party interaction monitor. Attach to a browser with
/// `Browser::attach_observer(Box::new(monitor))`.
#[derive(Debug)]
pub struct LiveInteractionMonitor {
    state: Arc<Mutex<LiveState>>,
}

/// Read-side handle onto an attached [`LiveInteractionMonitor`].
#[derive(Debug, Clone)]
pub struct LiveMonitorHandle {
    state: Arc<Mutex<LiveState>>,
}

impl LiveInteractionMonitor {
    /// Creates a monitor and the handle used to read it after attachment.
    pub fn new() -> (Self, LiveMonitorHandle) {
        let state = Arc::new(Mutex::new(LiveState::default()));
        (
            Self {
                state: Arc::clone(&state),
            },
            LiveMonitorHandle { state },
        )
    }
}

impl Observer<DomEvent> for LiveInteractionMonitor {
    fn on_event(&mut self, t_ms: f64, event: &DomEvent) {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        match event.kind {
            EventKind::MouseMove => {
                s.moves += 1;
                if let EventPayload::Mouse { x, y, .. } = event.payload {
                    // A move faster than human motor limits since the last
                    // sample teleports the cursor; one in the same
                    // millisecond is infinitely fast.
                    if let Some((px, py, pt)) = s.last_pointer {
                        let d = ((x - px).powi(2) + (y - py).powi(2)).sqrt();
                        let dt = t_ms - pt;
                        if d > 0.0 && (dt <= 0.0 || d / dt > MAX_HUMAN_SPEED_PX_PER_MS) {
                            s.teleport_moves += 1;
                        }
                    }
                    s.last_pointer = Some((x, y, t_ms));
                }
            }
            EventKind::MouseDown => {
                s.pointer_down_at = Some(t_ms);
            }
            EventKind::MouseUp => {
                if let Some(down) = s.pointer_down_at.take() {
                    if t_ms - down < MIN_HUMAN_CLICK_DWELL_MS {
                        s.zero_dwell_clicks += 1;
                    }
                }
            }
            EventKind::Click => {
                s.clicks += 1;
            }
            EventKind::KeyDown => {
                s.keydowns += 1;
            }
            EventKind::Wheel => {
                s.wheel_ticks += 1;
            }
            _ => {}
        }
    }

    fn counters(&self) -> CounterSet {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .counters()
    }
}

impl LiveState {
    fn counters(&self) -> CounterSet {
        let mut c = CounterSet::new();
        c.add("live.moves", self.moves);
        c.add("live.clicks", self.clicks);
        c.add("live.keydowns", self.keydowns);
        c.add("live.wheel_ticks", self.wheel_ticks);
        c.add("live.zero_dwell_clicks", self.zero_dwell_clicks);
        c.add("live.teleport_moves", self.teleport_moves);
        c
    }

    fn is_bot(&self) -> bool {
        self.zero_dwell_clicks > 0
            || self.teleport_moves > 0
            || (self.clicks > 0 && self.moves == 0)
    }
}

impl LiveMonitorHandle {
    /// Streaming verdict so far: true when any artificiality cue fired.
    pub fn is_bot(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_bot()
    }

    /// Snapshot of the monitor's counters.
    pub fn counters(&self) -> CounterSet {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_browser::events::MouseButton;

    fn mouse(kind: EventKind, t: f64, x: f64, y: f64) -> DomEvent {
        DomEvent {
            kind,
            timestamp_ms: t,
            target: None,
            payload: EventPayload::Mouse {
                x,
                y,
                button: MouseButton::Left,
            },
        }
    }

    #[test]
    fn human_like_stream_stays_clean() {
        let (mut m, h) = LiveInteractionMonitor::new();
        for i in 0..20 {
            let t = f64::from(i) * 16.0;
            m.on_event(
                t,
                &mouse(EventKind::MouseMove, t, f64::from(i) * 12.0, 100.0),
            );
        }
        m.on_event(330.0, &mouse(EventKind::MouseDown, 330.0, 228.0, 100.0));
        m.on_event(395.0, &mouse(EventKind::MouseUp, 395.0, 228.0, 100.0));
        m.on_event(395.0, &mouse(EventKind::Click, 395.0, 228.0, 100.0));
        assert!(!h.is_bot());
        let c = h.counters();
        assert_eq!(c.get("live.moves"), Some(20));
        assert_eq!(c.get("live.clicks"), Some(1));
        assert_eq!(c.get("live.zero_dwell_clicks"), Some(0));
    }

    #[test]
    fn teleporting_cursor_is_flagged() {
        let (mut m, h) = LiveInteractionMonitor::new();
        m.on_event(0.0, &mouse(EventKind::MouseMove, 0.0, 0.0, 0.0));
        m.on_event(1.0, &mouse(EventKind::MouseMove, 1.0, 900.0, 500.0));
        assert!(h.is_bot());
        assert_eq!(h.counters().get("live.teleport_moves"), Some(1));
    }

    #[test]
    fn zero_dwell_click_is_flagged() {
        let (mut m, h) = LiveInteractionMonitor::new();
        m.on_event(10.0, &mouse(EventKind::MouseDown, 10.0, 5.0, 5.0));
        m.on_event(10.0, &mouse(EventKind::MouseUp, 10.0, 5.0, 5.0));
        m.on_event(10.0, &mouse(EventKind::Click, 10.0, 5.0, 5.0));
        assert!(h.is_bot());
    }

    /// The live monitor and the batch level 1 read each timed cue alike:
    /// a 4 ms dwell is a machine click, 300 px in 100 ms is a human
    /// flick, 300 px in 1 ms is a teleport.
    #[test]
    fn live_and_batch_level1_agree_on_dwell_and_speed() {
        use crate::interaction::InteractionDetector;
        use hlisa_browser::{Document, EventRecorder};

        // Four slow samples, then the stream's own last move and click.
        let approach = |last: (f64, f64), click: Option<(f64, f64)>| {
            let mut events: Vec<DomEvent> = (0..4)
                .map(|i| {
                    let t = f64::from(i) * 16.0;
                    mouse(EventKind::MouseMove, t, 100.0 + f64::from(i) * 10.0, 200.0)
                })
                .collect();
            events.push(mouse(EventKind::MouseMove, last.0, last.1, 200.0));
            if let Some((down, up)) = click {
                events.push(mouse(EventKind::MouseDown, down, last.1, 200.0));
                events.push(mouse(EventKind::MouseUp, up, last.1, 200.0));
                events.push(mouse(EventKind::Click, up, last.1, 200.0));
            }
            events
        };
        // (stream, the speed cue, the dwell cue)
        let streams = [
            (approach((64.0, 140.0), Some((100.0, 104.0))), false, true),
            (approach((148.0, 430.0), None), false, false),
            (approach((49.0, 430.0), None), true, false),
        ];
        let level1 = InteractionDetector::level1();
        let doc = Document::new("about:blank", 1280.0, 720.0);
        for (i, (events, speed_cue, dwell_cue)) in streams.into_iter().enumerate() {
            let (mut live, handle) = LiveInteractionMonitor::new();
            let mut recorder = EventRecorder::new();
            for e in events {
                live.on_event(e.timestamp_ms, &e);
                recorder.record(e);
            }
            let batch = level1.judge(&recorder, &doc);
            let fired = |name: &str| batch.signals.iter().any(|s| s.name == name);
            let live_counts = handle.counters();
            let live_fired = |name: &str| live_counts.get(name).unwrap_or(0) > 0;
            assert_eq!(
                fired("superhuman-speed"),
                speed_cue,
                "stream {i}: batch speed"
            );
            assert_eq!(
                live_fired("live.teleport_moves"),
                speed_cue,
                "stream {i}: live speed"
            );
            assert_eq!(
                fired("zero-dwell-click"),
                dwell_cue,
                "stream {i}: batch dwell"
            );
            assert_eq!(
                live_fired("live.zero_dwell_clicks"),
                dwell_cue,
                "stream {i}: live dwell"
            );
        }
    }

    #[test]
    fn click_without_any_movement_is_flagged() {
        let (mut m, h) = LiveInteractionMonitor::new();
        m.on_event(50.0, &mouse(EventKind::MouseDown, 50.0, 5.0, 5.0));
        m.on_event(110.0, &mouse(EventKind::MouseUp, 110.0, 5.0, 5.0));
        m.on_event(110.0, &mouse(EventKind::Click, 110.0, 5.0, 5.0));
        assert!(h.is_bot());
        assert_eq!(h.counters().get("live.clicks"), Some(1));
    }
}
