//! The interaction-detector ladder of Fig. 3.
//!
//! Detector escalation levels, applied cumulatively (a level-k detector
//! also runs every check below k, the way deployed detectors evolve):
//!
//! 1. **Detect artificial behaviour** — behaviour outside human limits:
//!    perfectly straight uniform-speed cursor paths, zero-dwell clicks,
//!    dead-centre click placement, >1,500 cpm typing, capitals without
//!    Shift, single-event long-distance scrolls.
//! 2. **Detect deviations from human behaviour** — two-sample KS tests of
//!    observed timing/placement distributions against a human reference
//!    corpus ([`crate::HumanReference`]).
//! 3. **Track consistency of behaviour** — serial structure that i.i.d.
//!    sampling lacks: the lag-1 autocorrelation of key dwell times.
//! 4. **Recognise a specific user profile** — feature-vector comparison
//!    against an enrolled individual (requires an enrolment period; the
//!    paper notes this level may conflict with the GDPR).

use crate::reference::HumanReference;
use crate::thresholds::{
    DEAD_CENTRE_OFFSET_FRAC, INTRA_FLICK_GAP_MS, MAX_HUMAN_SPEED_PX_PER_MS, MAX_HUMAN_TYPING_CPM,
    MIN_HUMAN_CLICK_DWELL_MS, MIN_HUMAN_KEY_DWELL_MS, MIN_SEGMENT_PATH_PX, SCRIPT_SCROLL_JUMP_PX,
    SEGMENT_SPLIT_PAUSE_MS, STRAIGHTNESS_TELL, UNIFORM_SPEED_CV,
};
use hlisa_browser::dom::Document;
use hlisa_browser::recorder::EventRecorder;
use hlisa_browser::{EventKind, EventPayload};
use hlisa_stats::descriptive::{coefficient_of_variation, mean, pearson, Summary};
use hlisa_stats::ks::ks_two_sample;

/// Detector escalation level (cumulative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DetectorLevel {
    /// Detect artificial behaviour.
    L1Artificial,
    /// Detect deviations from human distributions.
    L2Deviation,
    /// Track behavioural consistency.
    L3Consistency,
    /// Recognise a specific user profile.
    L4Profile,
}

impl DetectorLevel {
    /// All levels in escalation order.
    pub const ALL: [DetectorLevel; 4] = [
        DetectorLevel::L1Artificial,
        DetectorLevel::L2Deviation,
        DetectorLevel::L3Consistency,
        DetectorLevel::L4Profile,
    ];

    /// Fig. 3 label.
    pub fn label(&self) -> &'static str {
        match self {
            DetectorLevel::L1Artificial => "Detect artificial behaviour",
            DetectorLevel::L2Deviation => "Detect deviations from human behaviour",
            DetectorLevel::L3Consistency => "Tracking consistency of behaviour",
            DetectorLevel::L4Profile => "Recognise specific user profile",
        }
    }

    /// Whether the paper flags this level as potentially conflicting with
    /// privacy regulation (the top two levels "focus detection to such an
    /// extent, that individual users could be distinguished").
    pub fn gdpr_sensitive(&self) -> bool {
        matches!(
            self,
            DetectorLevel::L3Consistency | DetectorLevel::L4Profile
        )
    }
}

/// One fired detection signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    /// Level whose check fired.
    pub level: DetectorLevel,
    /// Short name of the check.
    pub name: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

/// Verdict of a detector run.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionVerdict {
    /// True when the session is judged automated.
    pub is_bot: bool,
    /// Signals that fired.
    pub signals: Vec<Signal>,
}

/// An enrolled per-user behavioural profile (level 4).
#[derive(Debug, Clone, PartialEq)]
pub struct UserProfile {
    /// Mean key dwell (ms).
    pub mean_key_dwell_ms: f64,
    /// Std dev of key dwell (ms).
    pub sd_key_dwell_ms: f64,
    /// Mean click dwell (ms).
    pub mean_click_dwell_ms: f64,
    /// Std dev of click dwell (ms).
    pub sd_click_dwell_ms: f64,
    /// Mean normalised click offset.
    pub mean_click_offset_frac: f64,
    /// Std dev of normalised click offset.
    pub sd_click_offset_frac: f64,
    /// Mean intra-flick scroll tick gap (ms; gaps < 250 ms). Hundreds of
    /// ticks accrue per long page, making this the statistically strongest
    /// per-user tempo feature.
    pub mean_scroll_gap_ms: f64,
    /// Std dev of intra-flick scroll tick gaps (ms).
    pub sd_scroll_gap_ms: f64,
    /// Enrolment sample sizes per feature (key dwell, click dwell, click
    /// offset, scroll gap) — the profile means are estimates, and the
    /// match test must carry their uncertainty.
    pub enrolment_n: [usize; 4],
}

/// Keeps only intra-flick gaps (excludes finger-repositioning breaks).
fn intra_flick(gaps: &[f64]) -> Vec<f64> {
    gaps.iter()
        .copied()
        .filter(|g| *g < INTRA_FLICK_GAP_MS)
        .collect()
}

impl UserProfile {
    /// Enrols a profile from a reference corpus of *one individual*.
    pub fn enroll(reference: &HumanReference) -> Self {
        let kd = Summary::of(&reference.key_dwell_ms);
        let cd = Summary::of(&reference.click_dwell_ms);
        let co = Summary::of(&reference.click_offset_frac);
        let sg = Summary::of(&intra_flick(&reference.scroll_gap_ms));
        Self {
            mean_key_dwell_ms: kd.mean,
            sd_key_dwell_ms: kd.std_dev.max(1.0),
            mean_click_dwell_ms: cd.mean,
            sd_click_dwell_ms: cd.std_dev.max(1.0),
            mean_click_offset_frac: co.mean,
            sd_click_offset_frac: co.std_dev.max(1e-3),
            mean_scroll_gap_ms: sg.mean,
            sd_scroll_gap_ms: sg.std_dev.max(1.0),
            enrolment_n: [
                reference.key_dwell_ms.len(),
                reference.click_dwell_ms.len(),
                reference.click_offset_frac.len(),
                intra_flick(&reference.scroll_gap_ms).len(),
            ],
        }
    }
}

/// Behavioural features extracted from one session trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceFeatures {
    /// Key dwell times (ms), in order.
    pub key_dwells_ms: Vec<f64>,
    /// Key flight times (ms).
    pub key_flights_ms: Vec<f64>,
    /// Typing speed (characters per minute, 0 if <2 presses).
    pub typing_cpm: f64,
    /// Count of capital-letter keydowns without Shift held.
    pub capitals_without_shift: usize,
    /// Button dwell times (ms).
    pub click_dwells_ms: Vec<f64>,
    /// Normalised radial click offsets from the clicked element's centre.
    pub click_offsets_frac: Vec<f64>,
    /// Straightness (chord/path) of each movement segment.
    pub straightness: Vec<f64>,
    /// Speed coefficient of variation per segment.
    pub speed_cvs: Vec<f64>,
    /// Peak segment speed (px/ms).
    pub max_speed: f64,
    /// Scroll event inter-arrival gaps (ms).
    pub scroll_gaps_ms: Vec<f64>,
    /// Per-scroll-event position deltas (px).
    pub scroll_deltas_px: Vec<f64>,
    /// Number of wheel events.
    pub wheel_events: usize,
    /// Number of scroll events.
    pub scroll_events: usize,
    /// Click events with no corresponding button press (synthetic
    /// `element.click()` dispatches).
    pub pointerless_clicks: usize,
    /// Click events whose target element is invisible (honey elements,
    /// §4.2).
    pub hidden_element_clicks: usize,
    /// Interaction events that occurred while the page was hidden
    /// (Appendix D: after minimising, "no further interaction should
    /// occur").
    pub interactions_while_hidden: usize,
}

impl TraceFeatures {
    /// Extracts features from a recorded trace over a document.
    pub fn extract(recorder: &EventRecorder, doc: &Document) -> Self {
        let mut f = TraceFeatures::default();

        // Typing. Modifier keys are excluded from the timing series: their
        // dwell spans whole character groups and would swamp the
        // per-character rhythm every level analyses. Strokes are ordered
        // by press time (rollover typing completes out of order).
        let mut strokes = recorder.keystrokes();
        strokes.sort_by(|a, b| {
            a.down_t
                .partial_cmp(&b.down_t)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let char_strokes: Vec<_> = strokes
            .iter()
            .filter(|k| k.key != "Shift" && k.key.chars().count() == 1)
            .collect();
        f.key_dwells_ms = char_strokes.iter().map(|k| k.dwell_ms).collect();
        f.key_flights_ms = char_strokes
            .windows(2)
            .map(|w| w[1].down_t - w[0].up_t)
            .collect();
        let presses: Vec<f64> = char_strokes.iter().map(|k| k.down_t).collect();
        if let [first, .., last] = presses.as_slice() {
            let span = last - first;
            if span > 0.0 {
                f.typing_cpm = (presses.len() - 1) as f64 * 60_000.0 / span;
            }
        }
        f.capitals_without_shift = recorder
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::KeyDown)
            .filter(|e| match &e.payload {
                EventPayload::Key { key, shift } => {
                    let mut chars = key.chars();
                    matches!(
                        (chars.next(), chars.next()),
                        (Some(c), None) if c.is_ascii_uppercase()
                    ) && !shift
                }
                _ => false,
            })
            .count();

        // Clicks. Offsets come from the recorder's dispatch-time
        // annotations (pages compute them inside the click listener, when
        // the element's box is still where the click happened).
        let clicks = recorder.clicks();
        f.click_dwells_ms = clicks.iter().map(|c| c.dwell_ms).collect();
        f.click_offsets_frac = recorder.click_offsets().to_vec();
        let _ = doc;

        // Movement segments: split the cursor trace at long pauses.
        let trace = recorder.cursor_trace();
        let mut segment: Vec<(f64, f64, f64)> = Vec::new();
        let mut segments: Vec<Vec<(f64, f64, f64)>> = Vec::new();
        for s in trace {
            if let Some((pt, ..)) = segment.last() {
                if s.t - pt > SEGMENT_SPLIT_PAUSE_MS {
                    segments.push(std::mem::take(&mut segment));
                }
            }
            segment.push((s.t, s.x, s.y));
        }
        segments.push(segment);
        for seg in segments.iter().filter(|s| s.len() >= 5) {
            let path: f64 = seg
                .windows(2)
                .map(|w| ((w[1].1 - w[0].1).powi(2) + (w[1].2 - w[0].2).powi(2)).sqrt())
                .sum();
            let Some(last) = seg.last() else { continue };
            let chord = ((last.1 - seg[0].1).powi(2) + (last.2 - seg[0].2).powi(2)).sqrt();
            if path < MIN_SEGMENT_PATH_PX {
                continue; // too short to judge
            }
            f.straightness
                .push(if path > 0.0 { chord / path } else { 1.0 });
            let speeds: Vec<f64> = seg
                .windows(2)
                .filter(|w| w[1].0 > w[0].0)
                .map(|w| {
                    ((w[1].1 - w[0].1).powi(2) + (w[1].2 - w[0].2).powi(2)).sqrt()
                        / (w[1].0 - w[0].0)
                })
                .collect();
            if speeds.len() >= 3 {
                f.speed_cvs.push(coefficient_of_variation(&speeds));
                f.max_speed = f.max_speed.max(speeds.iter().copied().fold(0.0, f64::max));
            }
        }

        // Scrolling.
        f.scroll_gaps_ms = recorder.scroll_gaps();
        f.scroll_deltas_px = recorder.scroll_deltas();
        f.wheel_events = recorder.wheel_count();
        f.scroll_events = recorder.of_kind(EventKind::Scroll).len();

        // Synthetic clicks: click events in excess of completed left
        // press/release pairs.
        let click_events = recorder.of_kind(EventKind::Click).len();
        let left_pairs = clicks
            .iter()
            .filter(|c| c.button == hlisa_browser::events::MouseButton::Left)
            .count();
        f.pointerless_clicks = click_events.saturating_sub(left_pairs);

        // Honey elements: clicks whose target is invisible.
        f.hidden_element_clicks = recorder
            .of_kind(EventKind::Click)
            .iter()
            .filter(|e| e.target.map(|id| !doc.element(id).visible).unwrap_or(false))
            .count();

        // Interaction while the page is hidden: replay visibility state.
        let mut hidden = false;
        for e in recorder.events() {
            match (&e.kind, &e.payload) {
                (EventKind::VisibilityChange, EventPayload::Visibility { visible }) => {
                    hidden = !visible;
                }
                (EventKind::Blur | EventKind::Focus, _) => {}
                _ if hidden => f.interactions_while_hidden += 1,
                _ => {}
            }
        }
        f
    }

    /// Merges another session's features into this one.
    pub fn merge(&mut self, other: &TraceFeatures) {
        self.key_dwells_ms.extend_from_slice(&other.key_dwells_ms);
        self.key_flights_ms.extend_from_slice(&other.key_flights_ms);
        if other.typing_cpm > 0.0 {
            self.typing_cpm = if self.typing_cpm > 0.0 {
                (self.typing_cpm + other.typing_cpm) / 2.0
            } else {
                other.typing_cpm
            };
        }
        self.capitals_without_shift += other.capitals_without_shift;
        self.click_dwells_ms
            .extend_from_slice(&other.click_dwells_ms);
        self.click_offsets_frac
            .extend_from_slice(&other.click_offsets_frac);
        self.straightness.extend_from_slice(&other.straightness);
        self.speed_cvs.extend_from_slice(&other.speed_cvs);
        self.max_speed = self.max_speed.max(other.max_speed);
        self.scroll_gaps_ms.extend_from_slice(&other.scroll_gaps_ms);
        self.scroll_deltas_px
            .extend_from_slice(&other.scroll_deltas_px);
        self.wheel_events += other.wheel_events;
        self.scroll_events += other.scroll_events;
        self.pointerless_clicks += other.pointerless_clicks;
        self.hidden_element_clicks += other.hidden_element_clicks;
        self.interactions_while_hidden += other.interactions_while_hidden;
    }
}

/// A detector configured at some escalation level.
#[derive(Debug, Clone)]
pub struct InteractionDetector {
    level: DetectorLevel,
    reference: Option<HumanReference>,
    profile: Option<UserProfile>,
    /// Significance level for the KS tests.
    pub alpha: f64,
}

impl InteractionDetector {
    /// A level-1 detector (no model of human behaviour needed).
    pub fn level1() -> Self {
        Self {
            level: DetectorLevel::L1Artificial,
            reference: None,
            profile: None,
            alpha: 0.01,
        }
    }

    /// A level-2 detector with a human reference corpus.
    pub fn level2(reference: HumanReference) -> Self {
        Self {
            level: DetectorLevel::L2Deviation,
            reference: Some(reference),
            profile: None,
            alpha: 0.01,
        }
    }

    /// A level-3 detector (consistency tracking on top of level 2).
    pub fn level3(reference: HumanReference) -> Self {
        Self {
            level: DetectorLevel::L3Consistency,
            reference: Some(reference),
            profile: None,
            alpha: 0.01,
        }
    }

    /// A level-4 detector with an enrolled user profile.
    pub fn level4(reference: HumanReference, profile: UserProfile) -> Self {
        Self {
            level: DetectorLevel::L4Profile,
            reference: Some(reference),
            profile: Some(profile),
            alpha: 0.01,
        }
    }

    /// The configured level.
    pub fn level(&self) -> DetectorLevel {
        self.level
    }

    /// Judges a recorded session.
    pub fn judge(&self, recorder: &EventRecorder, doc: &Document) -> InteractionVerdict {
        let features = TraceFeatures::extract(recorder, doc);
        self.judge_features(&features)
    }

    /// Judges pre-extracted features.
    pub fn judge_features(&self, f: &TraceFeatures) -> InteractionVerdict {
        let mut signals = Vec::new();
        self.check_l1(f, &mut signals);
        if self.level >= DetectorLevel::L2Deviation {
            self.check_l2(f, &mut signals);
        }
        if self.level >= DetectorLevel::L3Consistency {
            self.check_l3(f, &mut signals);
        }
        if self.level >= DetectorLevel::L4Profile {
            self.check_l4(f, &mut signals);
        }
        InteractionVerdict {
            is_bot: !signals.is_empty(),
            signals,
        }
    }

    // --- Level 1: behaviour outside human limits ------------------------

    fn check_l1(&self, f: &TraceFeatures, signals: &mut Vec<Signal>) {
        let l = DetectorLevel::L1Artificial;
        let straight = f
            .straightness
            .iter()
            .filter(|s| **s > STRAIGHTNESS_TELL)
            .count();
        if straight > 0 && straight * 2 >= f.straightness.len() {
            signals.push(Signal {
                level: l,
                name: "straight-trajectories",
                detail: format!(
                    "{straight}/{} segments perfectly straight",
                    f.straightness.len()
                ),
            });
        }
        let uniform = f
            .speed_cvs
            .iter()
            .filter(|cv| **cv < UNIFORM_SPEED_CV)
            .count();
        if uniform > 0 && uniform * 2 >= f.speed_cvs.len() {
            signals.push(Signal {
                level: l,
                name: "uniform-speed",
                detail: format!("{uniform}/{} segments at constant speed", f.speed_cvs.len()),
            });
        }
        if f.max_speed > MAX_HUMAN_SPEED_PX_PER_MS {
            signals.push(Signal {
                level: l,
                name: "superhuman-speed",
                detail: format!("peak {:.1} px/ms", f.max_speed),
            });
        }
        if f.click_dwells_ms
            .iter()
            .any(|d| *d < MIN_HUMAN_CLICK_DWELL_MS)
        {
            signals.push(Signal {
                level: l,
                name: "zero-dwell-click",
                detail: "button released within the press millisecond".to_string(),
            });
        }
        let centred = f
            .click_offsets_frac
            .iter()
            .filter(|o| **o < DEAD_CENTRE_OFFSET_FRAC)
            .count();
        if centred > 0 && centred * 2 >= f.click_offsets_frac.len().max(1) {
            signals.push(Signal {
                level: l,
                name: "dead-centre-clicks",
                detail: format!("{centred} clicks exactly on element centres"),
            });
        }
        if f.key_dwells_ms.iter().any(|d| *d < MIN_HUMAN_KEY_DWELL_MS) {
            signals.push(Signal {
                level: l,
                name: "zero-dwell-key",
                detail: "key released within the press millisecond".to_string(),
            });
        }
        if f.typing_cpm > MAX_HUMAN_TYPING_CPM {
            signals.push(Signal {
                level: l,
                name: "superhuman-typing",
                detail: format!("{:.0} cpm", f.typing_cpm),
            });
        }
        if f.capitals_without_shift > 0 {
            signals.push(Signal {
                level: l,
                name: "capitals-without-shift",
                detail: format!(
                    "{} capital keydowns with no Shift",
                    f.capitals_without_shift
                ),
            });
        }
        if f.pointerless_clicks > 0 {
            signals.push(Signal {
                level: l,
                name: "click-without-pointer",
                detail: format!("{} click events with no button press", f.pointerless_clicks),
            });
        }
        if f.hidden_element_clicks > 0 {
            signals.push(Signal {
                level: l,
                name: "honey-element-interaction",
                detail: format!("{} clicks on invisible elements", f.hidden_element_clicks),
            });
        }
        if f.interactions_while_hidden > 0 {
            signals.push(Signal {
                level: l,
                name: "interaction-while-hidden",
                detail: format!(
                    "{} events while the page was not visible",
                    f.interactions_while_hidden
                ),
            });
        }
        // Scrolls of hundreds of px in a single event with no wheel events
        // anywhere: Selenium's script scroll. (Weak on its own — anchors do
        // this too — so it requires total wheel silence.)
        if f.wheel_events == 0
            && f.scroll_deltas_px
                .iter()
                .any(|d| d.abs() > SCRIPT_SCROLL_JUMP_PX)
        {
            signals.push(Signal {
                level: l,
                name: "single-event-jump-scroll",
                detail: "long scroll with no wheel activity".to_string(),
            });
        }
    }

    // --- Level 2: deviation from human distributions --------------------

    fn check_l2(&self, f: &TraceFeatures, signals: &mut Vec<Signal>) {
        let l = DetectorLevel::L2Deviation;
        let Some(reference) = &self.reference else {
            return;
        };
        // A deviation must be both statistically significant and large:
        // a level-2 detector models the *population*, and individual tempo
        // variation must not bar human visitors (§4.2: "detectors must not
        // be too strict or risk barring human visitors entry"). Timing
        // channels get a wider tolerance than placement because human
        // tempo drifts within a session.
        let mut ks_check =
            |name: &'static str, obs: &[f64], reference: &[f64], min_n: usize, d_floor: f64| {
                if obs.len() >= min_n && reference.len() >= min_n {
                    if let Some(r) = ks_two_sample(obs, reference) {
                        if r.p_value < self.alpha && r.statistic >= d_floor {
                            signals.push(Signal {
                                level: l,
                                name,
                                detail: format!("KS D={:.3}, p={:.2e}", r.statistic, r.p_value),
                            });
                        }
                    }
                }
            };
        ks_check(
            "key-dwell-distribution",
            &f.key_dwells_ms,
            &reference.key_dwell_ms,
            20,
            0.48,
        );
        ks_check(
            "key-flight-distribution",
            &f.key_flights_ms,
            &reference.key_flight_ms,
            20,
            0.48,
        );
        ks_check(
            "click-dwell-distribution",
            &f.click_dwells_ms,
            &reference.click_dwell_ms,
            20,
            0.48,
        );
        // Small-sample KS p-values are anti-conservative, so placement
        // needs a larger sample than the timing channels.
        ks_check(
            "click-offset-distribution",
            &f.click_offsets_frac,
            &reference.click_offset_frac,
            20,
            0.30,
        );
        ks_check(
            "scroll-gap-distribution",
            &f.scroll_gaps_ms,
            &reference.scroll_gap_ms,
            20,
            0.32,
        );
    }

    // --- Level 3: behavioural consistency --------------------------------

    fn check_l3(&self, f: &TraceFeatures, signals: &mut Vec<Signal>) {
        let l = DetectorLevel::L3Consistency;
        // Human key dwell deviates as a drifting tempo: consecutive dwells
        // are serially correlated. i.i.d. draws (HLISA's normals) are not.
        if f.key_dwells_ms.len() >= 40 {
            let a: Vec<f64> = f.key_dwells_ms[..f.key_dwells_ms.len() - 1].to_vec();
            let b: Vec<f64> = f.key_dwells_ms[1..].to_vec();
            let r = pearson(&a, &b);
            // A model-informed threshold: measured human rhythm drifts
            // with lag-1 autocorrelation ≈ 0.5, so anything below 0.25 is
            // far more likely i.i.d. sampling than a person (the paper:
            // at this level "the exact model of consistency needed to
            // satisfy a detector may not be public knowledge").
            if r < 0.25 {
                signals.push(Signal {
                    level: l,
                    name: "no-tempo-drift",
                    detail: format!("dwell lag-1 autocorr {:.3} (human rhythm drifts)", r),
                });
            }
        }
    }

    // --- Level 4: enrolled user profile -----------------------------------

    fn check_l4(&self, f: &TraceFeatures, signals: &mut Vec<Signal>) {
        let l = DetectorLevel::L4Profile;
        let Some(p) = &self.profile else {
            return;
        };
        let mut z_check =
            |name: &'static str, obs: &[f64], mu: f64, sd: f64, n_enrol: usize, min_n: usize| {
                if obs.len() >= min_n && n_enrol >= min_n {
                    let m = mean(obs);
                    // z of the difference of two estimated means: both the
                    // session sample and the enrolled profile carry error.
                    let se = sd * (1.0 / obs.len() as f64 + 1.0 / n_enrol as f64).sqrt();
                    let z = (m - mu) / se;
                    if z.abs() > 3.5 {
                        signals.push(Signal {
                            level: l,
                            name,
                            detail: format!(
                                "sample mean {:.1} vs enrolled {:.1} (z={:.1})",
                                m, mu, z
                            ),
                        });
                    }
                }
            };
        // Key dwells are serially correlated in humans (tempo drift), so
        // the sample mean's standard error must be inflated by the usual
        // AR(1) factor sqrt((1+r)/(1-r)), estimated from the session.
        let ar_inflation = if f.key_dwells_ms.len() >= 20 {
            let a = &f.key_dwells_ms[..f.key_dwells_ms.len() - 1];
            let b = &f.key_dwells_ms[1..];
            let r = pearson(a, b).clamp(0.0, 0.9);
            ((1.0 + r) / (1.0 - r)).sqrt()
        } else {
            1.0
        };
        z_check(
            "profile-key-dwell",
            &f.key_dwells_ms,
            p.mean_key_dwell_ms,
            p.sd_key_dwell_ms * ar_inflation,
            p.enrolment_n[0],
            20,
        );
        z_check(
            "profile-click-dwell",
            &f.click_dwells_ms,
            p.mean_click_dwell_ms,
            p.sd_click_dwell_ms,
            p.enrolment_n[1],
            8,
        );
        z_check(
            "profile-click-offset",
            &f.click_offsets_frac,
            p.mean_click_offset_frac,
            p.sd_click_offset_frac,
            p.enrolment_n[2],
            8,
        );
        z_check(
            "profile-scroll-gap",
            &intra_flick(&f.scroll_gaps_ms),
            p.mean_scroll_gap_ms,
            p.sd_scroll_gap_ms,
            p.enrolment_n[3],
            50,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{run_human_session, HumanReference};

    #[test]
    fn level_ordering_and_labels() {
        assert!(DetectorLevel::L1Artificial < DetectorLevel::L4Profile);
        assert!(DetectorLevel::L4Profile.gdpr_sensitive());
        assert!(!DetectorLevel::L1Artificial.gdpr_sensitive());
        let labels: std::collections::HashSet<_> =
            DetectorLevel::ALL.iter().map(|l| l.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn human_session_passes_l1_through_l3() {
        let reference = HumanReference::generate(100, 2);
        let features = run_human_session(555);
        for det in [
            InteractionDetector::level1(),
            InteractionDetector::level2(reference.clone()),
            InteractionDetector::level3(reference.clone()),
        ] {
            let v = det.judge_features(&features);
            assert!(
                !v.is_bot,
                "human flagged at {:?}: {:?}",
                det.level(),
                v.signals
            );
        }
    }

    #[test]
    fn same_human_passes_own_profile() {
        let reference = HumanReference::generate(100, 2);
        // Enrol on the same individual model that generates the session.
        let profile = UserProfile::enroll(&reference);
        let det = InteractionDetector::level4(reference, profile);
        let features = run_human_session(777);
        let v = det.judge_features(&features);
        assert!(!v.is_bot, "enrolled human flagged: {:?}", v.signals);
    }

    #[test]
    fn empty_trace_is_not_a_bot() {
        // No interaction = no evidence.
        let det = InteractionDetector::level1();
        let v = det.judge_features(&TraceFeatures::default());
        assert!(!v.is_bot);
    }

    #[test]
    fn script_clicks_and_honey_elements_fire_l1() {
        use hlisa_browser::dom::standard_test_page;
        use hlisa_browser::{Browser, BrowserConfig};
        let mut b = Browser::open(
            BrowserConfig::webdriver(),
            standard_test_page("https://honey.test/", 3_000.0),
        );
        let honey = b.document().by_id("honey").unwrap();
        b.advance(25.0);
        b.synthetic_click(honey);
        let det = InteractionDetector::level1();
        let v = det.judge(&b.recorder, b.document());
        assert!(v.is_bot);
        let names: Vec<&str> = v.signals.iter().map(|s| s.name).collect();
        assert!(names.contains(&"click-without-pointer"), "{names:?}");
        assert!(names.contains(&"honey-element-interaction"), "{names:?}");
    }

    #[test]
    fn interaction_while_hidden_fires_l1() {
        use hlisa_browser::dom::standard_test_page;
        use hlisa_browser::{Browser, BrowserConfig, RawInput};
        let mut b = Browser::open(
            BrowserConfig::webdriver(),
            standard_test_page("https://hidden.test/", 3_000.0),
        );
        b.input_after(20.0, RawInput::Minimize);
        // A bot keeps typing into the minimised window.
        b.input_after(50.0, RawInput::KeyDown { key: "a".into() });
        b.input_after(60.0, RawInput::KeyUp { key: "a".into() });
        let det = InteractionDetector::level1();
        let v = det.judge(&b.recorder, b.document());
        assert!(v
            .signals
            .iter()
            .any(|s| s.name == "interaction-while-hidden"));
    }

    fn mouse(kind: EventKind, t: f64, x: f64, y: f64) -> hlisa_browser::DomEvent {
        hlisa_browser::DomEvent {
            kind,
            timestamp_ms: t,
            target: None,
            payload: EventPayload::Mouse {
                x,
                y,
                button: hlisa_browser::events::MouseButton::Left,
            },
        }
    }

    /// Level 1's signal names on a recorded event stream.
    fn level1_signals(events: Vec<hlisa_browser::DomEvent>) -> Vec<&'static str> {
        let mut recorder = EventRecorder::new();
        for e in events {
            recorder.record(e);
        }
        let doc = Document::new("about:blank", 1280.0, 720.0);
        let verdict = InteractionDetector::level1().judge(&recorder, &doc);
        verdict.signals.iter().map(|s| s.name).collect()
    }

    /// Level 1 reads each timed cue on the recorded stream: a 4 ms dwell
    /// is a machine click, 300 px in 100 ms is a human flick, 300 px in
    /// 1 ms is a teleport.
    #[test]
    fn level1_dwell_and_speed_cues_fire_on_exactly_the_expected_streams() {
        // Four slow samples, then the stream's own last move and click.
        let approach = |last: (f64, f64), click: Option<(f64, f64)>| {
            let mut events: Vec<_> = (0..4)
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
        for (i, (events, speed_cue, dwell_cue)) in streams.into_iter().enumerate() {
            let names = level1_signals(events);
            assert_eq!(
                names.contains(&"superhuman-speed"),
                speed_cue,
                "stream {i}: {names:?}"
            );
            assert_eq!(
                names.contains(&"zero-dwell-click"),
                dwell_cue,
                "stream {i}: {names:?}"
            );
        }
    }

    /// `click-without-pointer` counts click events with no button press
    /// behind them. A pressed and released click with no cursor movement
    /// at all is a completed press, so it does not fire; the same click
    /// event with no press does.
    #[test]
    fn click_without_pointer_counts_unpressed_clicks_not_unmoved_ones() {
        let pressed = vec![
            mouse(EventKind::MouseDown, 50.0, 5.0, 5.0),
            mouse(EventKind::MouseUp, 110.0, 5.0, 5.0),
            mouse(EventKind::Click, 110.0, 5.0, 5.0),
        ];
        let names = level1_signals(pressed);
        assert!(!names.contains(&"click-without-pointer"), "{names:?}");
        let unpressed = vec![mouse(EventKind::Click, 110.0, 5.0, 5.0)];
        let names = level1_signals(unpressed);
        assert!(names.contains(&"click-without-pointer"), "{names:?}");
    }

    #[test]
    fn synthetic_artificial_features_fire_l1() {
        let det = InteractionDetector::level1();
        let f = TraceFeatures {
            straightness: vec![1.0, 1.0],
            speed_cvs: vec![0.0, 0.0],
            click_dwells_ms: vec![0.0],
            click_offsets_frac: vec![0.0],
            key_dwells_ms: vec![0.0; 10],
            typing_cpm: 13_333.0,
            capitals_without_shift: 3,
            max_speed: 50.0,
            scroll_deltas_px: vec![5_000.0],
            ..TraceFeatures::default()
        };
        let v = det.judge_features(&f);
        assert!(v.is_bot);
        assert!(v.signals.len() >= 6, "signals: {:?}", v.signals);
    }
}
