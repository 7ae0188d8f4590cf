//! The action-chain detectability linter.
//!
//! Replays an interaction program *symbolically* — no browser, no clock —
//! and flags every Table 1 tell before `perform` ever runs. Judgements
//! use the same [`hlisa_detect::thresholds`] constants as the runtime
//! detector, so a chain that lints clean is exactly a chain the level-1
//! detector has no threshold left to fire on.
//!
//! Time model: a `Pause` advances the virtual clock by its duration, a
//! `PointerMove` by its *requested* duration (the request is the tell —
//! the driver-side floor that later rescues it is itself Selenium's
//! fingerprint), and everything else is instantaneous. A *gesture* is a
//! maximal run of consecutive `PointerMove`s; a typing *burst* is a run
//! of keydowns with no gap over [`CADENCE_WINDOW_RESET_MS`]; a wheel
//! *run* is a tick sequence never separated by a finger-repositioning
//! break. Each rule fires at most once per program, at the first action
//! that makes it decidable.

#[cfg(test)]
use crate::diag::Report;
use crate::diag::{Diagnostic, Location, Severity};
use hlisa_detect::thresholds::{
    CADENCE_WINDOW_RESET_MS, FINGER_BREAK_FLOOR_MS, MAX_FLICK_RUN_TICKS, MAX_HUMAN_SPEED_PX_PER_MS,
    MAX_HUMAN_TYPING_CPM, METRONOME_CV, MIN_CADENCE_KEYS, MIN_GESTURE_MOVES,
    MIN_HUMAN_CLICK_DWELL_MS, MIN_HUMAN_KEY_DWELL_MS, MIN_SEGMENT_PATH_PX, REPRESS_WINDOW_MS,
    SCRIPT_SCROLL_JUMP_PX, UNIFORM_SPEED_CV, WAYPOINT_COLLINEARITY_EPS,
};
use hlisa_stats::descriptive::coefficient_of_variation;
use hlisa_webdriver::actions::{Action, HLISA_MIN_MOVE_MS};
use hlisa_webdriver::audit::{ActionAuditor, AuditFinding};
use std::collections::{BTreeMap, VecDeque};

/// Stateful symbolic replayer. Feed it actions with
/// [`observe`](ChainLinter::observe). It implements [`ActionAuditor`]
/// so a [`hlisa_webdriver::Session`] can run it live as strict mode.
#[derive(Debug, Default)]
pub struct ChainLinter {
    now_ms: f64,
    action_index: usize,
    cursor: (f64, f64),
    gesture_points: Vec<(f64, f64)>,
    gesture_durations: Vec<f64>,
    gesture_start: usize,
    pointer_down_at: Option<f64>,
    last_pointer_up: Option<f64>,
    moved_since_up: bool,
    shift_down: bool,
    open_keys: BTreeMap<String, VecDeque<f64>>,
    burst_downs: Vec<f64>,
    wheel_run: usize,
    last_wheel: Option<f64>,
    fired: Vec<&'static str>,
    diags: Vec<Diagnostic>,
    drained: usize,
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((b.0 - a.0).powi(2) + (b.1 - a.1).powi(2)).sqrt()
}

impl ChainLinter {
    /// A fresh linter (cursor at the page origin, clock at zero).
    pub fn new() -> Self {
        Self::default()
    }

    fn fire(&mut self, rule: &'static str, location: Location, message: String) {
        if self.fired.contains(&rule) {
            return;
        }
        self.fired.push(rule);
        self.diags.push(Diagnostic {
            rule,
            severity: Severity::Deny,
            location,
            message,
        });
    }

    fn here(&self) -> Location {
        Location::at_action(self.action_index)
    }

    /// Judges and discards the pending gesture (run of consecutive
    /// pointer moves).
    fn end_gesture(&mut self) {
        if let &[first, .., last] = self.gesture_points.as_slice() {
            let path: f64 = self
                .gesture_points
                .windows(2)
                .map(|w| dist(w[0], w[1]))
                .sum();
            let chord = dist(first, last);
            let start = Location::at_action(self.gesture_start);
            // Waypoints are coarse, so the tell is *exact* collinearity:
            // human trajectories carry jitter and curvature that survive
            // any subsampling, while a straight-line loop is collinear to
            // floating-point precision.
            if path >= MIN_SEGMENT_PATH_PX && chord / path > 1.0 - WAYPOINT_COLLINEARITY_EPS {
                self.fire(
                    "straight-line-gesture",
                    start.clone(),
                    format!("gesture path {path:.0} px is perfectly straight"),
                );
            }
            // The final segment is excluded: `trajectory_to_actions`
            // clamps the last (partial) segment up to the duration floor
            // in every planner, which distorts its speed identically for
            // humanlike and naive motion.
            let mut speeds: Vec<f64> = self
                .gesture_points
                .windows(2)
                .zip(&self.gesture_durations)
                .filter(|(_, d)| **d > 0.0)
                .map(|(w, d)| dist(w[0], w[1]) / d)
                .collect();
            speeds.pop();
            if speeds.len() >= MIN_GESTURE_MOVES && path >= MIN_SEGMENT_PATH_PX {
                let cv = coefficient_of_variation(&speeds);
                if cv < UNIFORM_SPEED_CV {
                    self.fire(
                        "uniform-speed-gesture",
                        start,
                        format!(
                            "gesture speed is uniform across {} moves \
                             (CV {cv:.4})",
                            speeds.len()
                        ),
                    );
                }
            }
        }
        self.gesture_points.clear();
        self.gesture_durations.clear();
    }

    /// Judges and discards the pending typing burst.
    fn flush_burst(&mut self) {
        if self.burst_downs.len() >= MIN_CADENCE_KEYS {
            let n = self.burst_downs.len();
            let span = self.burst_downs[n - 1] - self.burst_downs[0];
            let cpm = if span > 0.0 {
                (n - 1) as f64 * 60_000.0 / span
            } else {
                f64::INFINITY
            };
            if cpm > MAX_HUMAN_TYPING_CPM {
                self.fire(
                    "superhuman-typing-cadence",
                    self.here(),
                    format!("{n} keys at {cpm:.0} cpm (limit {MAX_HUMAN_TYPING_CPM:.0})"),
                );
            }
            let intervals: Vec<f64> = self.burst_downs.windows(2).map(|w| w[1] - w[0]).collect();
            let cv = coefficient_of_variation(&intervals);
            if cv < METRONOME_CV {
                self.fire(
                    "metronomic-typing",
                    self.here(),
                    format!("inter-key intervals too regular over {n} keys (CV {cv:.4})"),
                );
            }
        }
        self.burst_downs.clear();
    }

    /// Feeds one action through the symbolic replay.
    pub fn observe(&mut self, action: &Action) {
        match action {
            Action::PointerMove { x, y, duration_ms } => {
                if *duration_ms < HLISA_MIN_MOVE_MS {
                    self.fire(
                        "sub-min-move",
                        self.here(),
                        format!(
                            "pointer move requested at {duration_ms:.1} ms \
                             (floor {HLISA_MIN_MOVE_MS:.0} ms)"
                        ),
                    );
                }
                let d = dist(self.cursor, (*x, *y));
                if d > 0.0 && (*duration_ms <= 0.0 || d / duration_ms > MAX_HUMAN_SPEED_PX_PER_MS) {
                    let speed = if *duration_ms > 0.0 {
                        format!("{:.1} px/ms", d / duration_ms)
                    } else {
                        "infinite speed".to_string()
                    };
                    self.fire(
                        "superhuman-move-speed",
                        self.here(),
                        format!("{d:.0} px move at {speed}"),
                    );
                }
                if self.gesture_points.is_empty() {
                    self.gesture_points.push(self.cursor);
                    self.gesture_start = self.action_index;
                }
                self.gesture_points.push((*x, *y));
                self.gesture_durations.push(*duration_ms);
                self.now_ms += duration_ms.max(0.0);
                self.cursor = (*x, *y);
                self.moved_since_up = true;
                self.wheel_run = 0;
            }
            Action::PointerDown(_) => {
                self.end_gesture();
                let repress = self
                    .last_pointer_up
                    .is_some_and(|up| self.now_ms - up <= REPRESS_WINDOW_MS);
                if !self.moved_since_up && !repress {
                    self.fire(
                        "click-without-approach",
                        self.here(),
                        "button press with no preceding cursor movement".to_string(),
                    );
                }
                self.pointer_down_at = Some(self.now_ms);
                self.wheel_run = 0;
            }
            Action::PointerUp(_) => {
                self.end_gesture();
                if let Some(down) = self.pointer_down_at.take() {
                    let dwell = self.now_ms - down;
                    if dwell < MIN_HUMAN_CLICK_DWELL_MS {
                        self.fire(
                            "zero-dwell-click",
                            self.here(),
                            format!(
                                "button held {dwell:.1} ms \
                                 (human floor {MIN_HUMAN_CLICK_DWELL_MS:.0} ms)"
                            ),
                        );
                    }
                }
                self.last_pointer_up = Some(self.now_ms);
                self.moved_since_up = false;
                self.wheel_run = 0;
            }
            Action::KeyDown(key) => {
                self.end_gesture();
                self.wheel_run = 0;
                if key == "Shift" {
                    self.shift_down = true;
                } else {
                    let is_capital = key.len() == 1
                        && key.chars().next().is_some_and(|c| c.is_ascii_uppercase());
                    if is_capital && !self.shift_down {
                        self.fire(
                            "capitals-without-shift",
                            self.here(),
                            format!("'{key}' typed with no Shift held"),
                        );
                    }
                    if let Some(&last) = self.burst_downs.last() {
                        if self.now_ms - last > CADENCE_WINDOW_RESET_MS {
                            self.flush_burst();
                        }
                    }
                    self.burst_downs.push(self.now_ms);
                    self.open_keys
                        .entry(key.clone())
                        .or_default()
                        .push_back(self.now_ms);
                }
            }
            Action::KeyUp(key) => {
                self.end_gesture();
                self.wheel_run = 0;
                if key == "Shift" {
                    self.shift_down = false;
                } else if let Some(down) = self.open_keys.get_mut(key).and_then(VecDeque::pop_front)
                {
                    let dwell = self.now_ms - down;
                    if dwell < MIN_HUMAN_KEY_DWELL_MS {
                        self.fire(
                            "zero-dwell-key",
                            self.here(),
                            format!(
                                "'{key}' held {dwell:.1} ms \
                                 (human floor {MIN_HUMAN_KEY_DWELL_MS:.0} ms)"
                            ),
                        );
                    }
                }
            }
            Action::Pause(ms) => {
                self.end_gesture();
                // A pause is exactly how a human separates scroll flicks,
                // so it does NOT reset the wheel run — only break-length
                // gaps do, judged at the next tick.
                self.now_ms += ms.max(0.0);
            }
            Action::WheelTick(_) => {
                self.end_gesture();
                let continues = self
                    .last_wheel
                    .is_some_and(|t| self.now_ms - t < FINGER_BREAK_FLOOR_MS);
                self.wheel_run = if continues { self.wheel_run + 1 } else { 1 };
                self.last_wheel = Some(self.now_ms);
                if self.wheel_run >= MAX_FLICK_RUN_TICKS {
                    self.fire(
                        "no-finger-breaks",
                        self.here(),
                        format!(
                            "{} wheel ticks with no gap ≥ {FINGER_BREAK_FLOOR_MS:.0} ms",
                            self.wheel_run
                        ),
                    );
                }
            }
        }
        self.action_index += 1;
    }

    /// Closes open windows (gesture, burst) and returns every finding.
    #[cfg(test)]
    pub fn into_report(mut self) -> Report {
        self.end_gesture();
        self.flush_burst();
        Report::from_diagnostics(self.diags)
    }

    fn drain(&mut self) -> Vec<AuditFinding> {
        let new = self.diags[self.drained..]
            .iter()
            .map(|d| AuditFinding {
                rule: d.rule,
                detail: d.message.clone(),
            })
            .collect();
        self.drained = self.diags.len();
        new
    }
}

/// Lints one complete action program.
#[cfg(test)]
pub fn lint_actions(actions: &[Action]) -> Report {
    let mut linter = ChainLinter::new();
    for a in actions {
        linter.observe(a);
    }
    linter.into_report()
}

impl ActionAuditor for ChainLinter {
    fn audit_actions(&mut self, actions: &[Action]) -> Vec<AuditFinding> {
        for a in actions {
            self.observe(a);
        }
        self.drain()
    }

    fn note_script_scroll(&mut self, delta_px: f64) -> Vec<AuditFinding> {
        if delta_px.abs() > SCRIPT_SCROLL_JUMP_PX {
            self.fire(
                "scroll-teleport",
                Location::default(),
                format!(
                    "script scroll of {:.0} px with no wheel events \
                     (limit {SCRIPT_SCROLL_JUMP_PX:.0} px)",
                    delta_px.abs()
                ),
            );
        }
        self.drain()
    }

    fn note_script_click(&mut self) -> Vec<AuditFinding> {
        self.fire(
            "script-click",
            Location::default(),
            "synthetic element.click() dispatch".to_string(),
        );
        self.drain()
    }

    fn finish(&mut self) -> Vec<AuditFinding> {
        self.end_gesture();
        self.flush_burst();
        self.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_browser::events::MouseButton;

    fn rules_of(actions: &[Action]) -> Vec<&'static str> {
        lint_actions(actions).rule_ids()
    }

    fn mv(x: f64, y: f64, d: f64) -> Action {
        Action::PointerMove {
            x,
            y,
            duration_ms: d,
        }
    }

    /// A believable approach: curved, decelerating, every move ≥ 50 ms.
    fn approach() -> Vec<Action> {
        vec![
            mv(10.0, 5.0, 60.0),
            mv(18.0, 14.0, 70.0),
            mv(23.0, 26.0, 90.0),
            mv(26.0, 40.0, 120.0),
            mv(27.0, 55.0, 160.0),
        ]
    }

    #[test]
    fn a_humanlike_program_lints_clean() {
        let mut a = approach();
        a.extend([
            Action::Pause(80.0),
            Action::PointerDown(MouseButton::Left),
            Action::Pause(70.0),
            Action::PointerUp(MouseButton::Left),
        ]);
        assert!(rules_of(&a).is_empty(), "{:?}", rules_of(&a));
    }

    #[test]
    fn sub_min_move_fires_on_requests_below_the_floor() {
        assert_eq!(rules_of(&[mv(30.0, 0.0, 20.0)]), ["sub-min-move"]);
        // At the floor is fine.
        assert!(rules_of(&[mv(30.0, 0.0, 50.0)]).is_empty());
    }

    #[test]
    fn zero_duration_moves_are_superhuman() {
        let ids = rules_of(&[mv(300.0, 200.0, 0.0)]);
        assert!(ids.contains(&"superhuman-move-speed"), "{ids:?}");
        assert!(ids.contains(&"sub-min-move"), "{ids:?}");
        // A fast-but-finite long move also trips the speed limit.
        let ids = rules_of(&[mv(700.0, 0.0, 60.0)]);
        assert!(ids.contains(&"superhuman-move-speed"), "{ids:?}");
    }

    #[test]
    fn straight_gestures_are_flagged_even_with_varying_speed() {
        let ids = rules_of(&[
            mv(20.0, 0.0, 60.0),
            mv(40.0, 0.0, 90.0),
            mv(60.0, 0.0, 120.0),
            mv(80.0, 0.0, 150.0),
            mv(100.0, 0.0, 180.0),
        ]);
        assert_eq!(ids, ["straight-line-gesture"]);
    }

    #[test]
    fn uniform_speed_fires_even_on_a_curved_path() {
        // Arc with every segment at exactly 0.5 px/ms (the last segment
        // is excluded from the CV as duration-clamped, so five moves
        // leave the four the rule needs).
        let ids = rules_of(&[
            mv(30.0, 10.0, 63.2),
            mv(55.0, 30.0, 64.0),
            mv(70.0, 58.0, 63.6),
            mv(75.0, 90.0, 64.8),
            mv(70.0, 122.0, 64.8),
        ]);
        assert_eq!(ids, ["uniform-speed-gesture"]);
    }

    #[test]
    fn short_wiggles_are_not_judged_for_shape() {
        // Path below MIN_SEGMENT_PATH_PX: too little signal.
        assert!(rules_of(&[
            mv(5.0, 0.0, 60.0),
            mv(10.0, 0.0, 60.0),
            mv(15.0, 0.0, 60.0),
            mv(20.0, 0.0, 60.0),
            mv(25.0, 0.0, 60.0),
        ])
        .is_empty());
    }

    #[test]
    fn clicks_without_approach_fire_but_represses_do_not() {
        let ids = rules_of(&[
            Action::PointerDown(MouseButton::Left),
            Action::Pause(20.0),
            Action::PointerUp(MouseButton::Left),
        ]);
        assert_eq!(ids, ["click-without-approach"]);

        // Double click: second press inside the re-press window is human.
        let mut a = approach();
        a.extend([
            Action::PointerDown(MouseButton::Left),
            Action::Pause(30.0),
            Action::PointerUp(MouseButton::Left),
            Action::Pause(120.0),
            Action::PointerDown(MouseButton::Left),
            Action::Pause(30.0),
            Action::PointerUp(MouseButton::Left),
        ]);
        assert!(rules_of(&a).is_empty(), "{:?}", rules_of(&a));
    }

    #[test]
    fn zero_dwell_click_fires_on_instant_release() {
        let mut a = approach();
        a.extend([
            Action::PointerDown(MouseButton::Left),
            Action::PointerUp(MouseButton::Left),
        ]);
        assert_eq!(rules_of(&a), ["zero-dwell-click"]);
    }

    #[test]
    fn zero_dwell_key_fires_on_instant_release() {
        assert_eq!(
            rules_of(&[Action::KeyDown("a".into()), Action::KeyUp("a".into())]),
            ["zero-dwell-key"]
        );
        // With dwell it is clean.
        assert!(rules_of(&[
            Action::KeyDown("a".into()),
            Action::Pause(40.0),
            Action::KeyUp("a".into()),
        ])
        .is_empty());
    }

    #[test]
    fn capitals_need_shift() {
        let ids = rules_of(&[
            Action::KeyDown("A".into()),
            Action::Pause(40.0),
            Action::KeyUp("A".into()),
        ]);
        assert_eq!(ids, ["capitals-without-shift"]);
        // Shift held: clean.
        assert!(rules_of(&[
            Action::KeyDown("Shift".into()),
            Action::Pause(30.0),
            Action::KeyDown("A".into()),
            Action::Pause(40.0),
            Action::KeyUp("A".into()),
            Action::Pause(20.0),
            Action::KeyUp("Shift".into()),
        ])
        .is_empty());
    }

    #[test]
    fn selenium_cadence_trips_both_typing_rules() {
        // 13,333 cpm: keydown+keyup then a fixed 4.5 ms pause, no dwell.
        let mut a = Vec::new();
        for c in "hello brave new".chars() {
            a.push(Action::KeyDown(c.to_string()));
            a.push(Action::KeyUp(c.to_string()));
            a.push(Action::Pause(4.5));
        }
        let ids = rules_of(&a);
        assert!(ids.contains(&"superhuman-typing-cadence"), "{ids:?}");
        assert!(ids.contains(&"metronomic-typing"), "{ids:?}");
        assert!(ids.contains(&"zero-dwell-key"), "{ids:?}");
    }

    #[test]
    fn fixed_interval_typing_is_metronomic_even_at_human_speed() {
        // Exactly 50 ms between keydowns (1,200 cpm) with real dwell.
        let mut a = Vec::new();
        for c in "abcdefghijkl".chars() {
            a.push(Action::KeyDown(c.to_string()));
            a.push(Action::Pause(20.0));
            a.push(Action::KeyUp(c.to_string()));
            a.push(Action::Pause(30.0));
        }
        assert_eq!(rules_of(&a), ["metronomic-typing"]);
    }

    #[test]
    fn irregular_typing_is_clean() {
        let gaps = [
            80.0, 150.0, 95.0, 210.0, 120.0, 60.0, 170.0, 100.0, 140.0, 90.0, 200.0,
        ];
        let dwells = [
            40.0, 70.0, 55.0, 90.0, 45.0, 60.0, 80.0, 50.0, 65.0, 75.0, 58.0, 48.0,
        ];
        let mut a = Vec::new();
        for (i, c) in "abcdefghijkl".chars().enumerate() {
            a.push(Action::KeyDown(c.to_string()));
            a.push(Action::Pause(dwells[i]));
            a.push(Action::KeyUp(c.to_string()));
            if i < gaps.len() {
                a.push(Action::Pause(gaps[i]));
            }
        }
        assert!(rules_of(&a).is_empty(), "{:?}", rules_of(&a));
    }

    #[test]
    fn endless_wheel_runs_need_finger_breaks() {
        let mut a = Vec::new();
        for _ in 0..35 {
            a.push(Action::WheelTick(1));
            a.push(Action::Pause(100.0));
        }
        assert_eq!(rules_of(&a), ["no-finger-breaks"]);

        // Flicks separated by real breaks are clean, however long.
        let mut a = Vec::new();
        for flick in 0..12 {
            for _ in 0..5 {
                a.push(Action::WheelTick(1));
                a.push(Action::Pause(60.0));
            }
            let _ = flick;
            a.push(Action::Pause(220.0));
        }
        assert!(rules_of(&a).is_empty(), "{:?}", rules_of(&a));
    }

    #[test]
    fn each_rule_fires_once_with_a_location() {
        let r = lint_actions(&[mv(30.0, 0.0, 10.0), mv(60.0, 0.0, 10.0)]);
        let subs: Vec<_> = r
            .diagnostics()
            .iter()
            .filter(|d| d.rule == "sub-min-move")
            .collect();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].location.action_index, Some(0));
    }

    #[test]
    fn the_auditor_face_reports_incrementally() {
        let mut l = ChainLinter::new();
        let first = l.audit_actions(&[mv(30.0, 0.0, 10.0)]);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].rule, "sub-min-move");
        // Same rule again: deduped, nothing new.
        assert!(l.audit_actions(&[mv(60.0, 0.0, 10.0)]).is_empty());

        assert!(l.note_script_scroll(120.0).is_empty());
        let jump = l.note_script_scroll(2_500.0);
        assert_eq!(jump.len(), 1);
        assert_eq!(jump[0].rule, "scroll-teleport");
        let click = l.note_script_click();
        assert_eq!(click[0].rule, "script-click");

        // finish() closes the open gesture (two straight 30 px moves).
        let tail = l.finish();
        assert!(
            tail.iter().any(|f| f.rule == "straight-line-gesture"),
            "{tail:?}"
        );
    }
}
