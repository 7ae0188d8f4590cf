//! Cursor motion synthesis over the Selenium primitives.
//!
//! HLISA "modifies a Bézier curve by starting with acceleration and ends
//! with deceleration, over a jittery curve" (§4.1, Fig. 1 D). The
//! trajectory model is shared with the human reference
//! ([`hlisa_human::cursor`]) — the paper explicitly uses "the speed,
//! acceleration and jitter of the mouse movement observed in the
//! experiment as a baseline".
//!
//! A trajectory cannot be handed to WebDriver directly: the only primitive
//! is a straight [`Action::PointerMove`] with a minimum duration. HLISA
//! therefore *chops the trajectory into waypoints* spaced by the overridden
//! 50 ms minimum and emits one primitive move per waypoint. This module
//! also provides the configurable [`MotionStyle`] used by the naive
//! baseline and the Appendix G comparator tools.

use hlisa_browser::Point;
use hlisa_human::cursor::{min_jerk_progress, StrokeScratch, TrajectorySample};
use hlisa_human::HumanParams;
use hlisa_sim::SimContext;
use hlisa_stats::Normal;
use hlisa_webdriver::Action;
use rand::Rng;

/// Path shape of a synthetic movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CurveStyle {
    /// Straight chord (Selenium).
    Straight,
    /// One quadratic Bézier arc (the "naive solution" and most Appendix G
    /// tools).
    QuadBezier,
    /// A B-spline through random interior knots (the StackOverflow "HMM"
    /// snippet of Appendix G).
    BSpline,
}

/// Velocity profile along the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VelocityProfile {
    /// Constant speed (Selenium, naive Bézier).
    Uniform,
    /// Minimum-jerk acceleration/deceleration (humans, HLISA).
    MinJerk,
}

/// How movement duration is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DurationModel {
    /// Fixed total duration (ms) regardless of distance.
    Fixed(f64),
    /// Constant speed in px/ms.
    ConstantSpeed(f64),
    /// Fitts's law from the human parameter set.
    Fitts,
}

/// A complete motion recipe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionStyle {
    /// Path shape.
    pub curve: CurveStyle,
    /// Velocity profile.
    pub velocity: VelocityProfile,
    /// Per-sample tremor std-dev (px); 0 disables jitter.
    pub jitter_px: f64,
    /// Duration model.
    pub duration: DurationModel,
}

impl MotionStyle {
    /// HLISA's style (curved, jittered, accelerating, Fitts-timed).
    pub fn hlisa() -> Self {
        Self {
            curve: CurveStyle::QuadBezier,
            velocity: VelocityProfile::MinJerk,
            jitter_px: 1.2,
            duration: DurationModel::Fitts,
        }
    }

    /// The paper's naive solution: "a straightforward Bézier curve ...
    /// still very artificial" — curved but constant-speed and noise-free.
    pub fn naive_bezier() -> Self {
        Self {
            curve: CurveStyle::QuadBezier,
            velocity: VelocityProfile::Uniform,
            jitter_px: 0.0,
            duration: DurationModel::ConstantSpeed(0.8),
        }
    }
}

/// Plans a trajectory in the given style, drawing from the context's
/// `"motion"` stream. Samples are relative to t = 0.
pub fn plan_motion(
    style: MotionStyle,
    params: &HumanParams,
    ctx: &mut SimContext,
    from: Point,
    to: Point,
    target_w: f64,
) -> Vec<TrajectorySample> {
    plan_motion_with(style, params, ctx.stream("motion"), from, to, target_w)
}

/// Like [`plan_motion`], drawing from an explicit RNG stream.
pub fn plan_motion_with<R: Rng + ?Sized>(
    style: MotionStyle,
    params: &HumanParams,
    rng: &mut R,
    from: Point,
    to: Point,
    target_w: f64,
) -> Vec<TrajectorySample> {
    let mut out = Vec::new();
    let mut scratch = StrokeScratch::new();
    plan_motion_scratch(
        style,
        params,
        rng,
        from,
        to,
        target_w,
        &mut scratch,
        &mut out,
    );
    out
}

/// The motion kernel: plans into a caller-supplied buffer (cleared first)
/// and reuses a caller-retained [`StrokeScratch`] for the HLISA-style
/// trajectory kernel, so a long action chain plans every movement without
/// heap traffic. Draw order is identical to [`plan_motion_with`].
#[allow(clippy::too_many_arguments)]
pub fn plan_motion_scratch<R: Rng + ?Sized>(
    style: MotionStyle,
    params: &HumanParams,
    rng: &mut R,
    from: Point,
    to: Point,
    target_w: f64,
    scratch: &mut StrokeScratch,
    out: &mut Vec<TrajectorySample>,
) {
    out.clear();
    // HLISA's style *is* the measured human motion model (§4.1 uses "the
    // speed, acceleration and jitter of the mouse movement observed in
    // the experiment as a baseline"), so it delegates to the canonical
    // generator — including the two-phase aim-and-correct kinematics.
    // The fixed-capacity kernel is bit-identical to the historic eager
    // generator (pinned by the kernel differential tests).
    if style == MotionStyle::hlisa() {
        hlisa_human::cursor::synthesize_into(params, rng, from, to, target_w, scratch, out);
        return;
    }
    let dist = from.distance_to(to);
    if dist < 1e-9 {
        out.push(TrajectorySample {
            t_ms: 0.0,
            x: to.x,
            y: to.y,
        });
        return;
    }
    let duration = match style.duration {
        DurationModel::Fixed(ms) => ms.max(1.0),
        DurationModel::ConstantSpeed(px_per_ms) => (dist / px_per_ms.max(1e-6)).max(1.0),
        DurationModel::Fitts => {
            params.fitts_duration_ms(dist, target_w) * rng.gen_range(0.88..1.12)
        }
    };

    // Control geometry.
    let (px, py) = {
        let dx = to.x - from.x;
        let dy = to.y - from.y;
        let len = (dx * dx + dy * dy).sqrt().max(1e-12);
        (-dy / len, dx / len)
    };
    let control = match style.curve {
        CurveStyle::Straight => None,
        CurveStyle::QuadBezier => {
            let amp = params.curve_amplitude_frac
                * dist
                * if rng.gen_bool(0.5) { 1.0 } else { -1.0 }
                * rng.gen_range(0.6..1.4);
            let mid = from.lerp(to, 0.5);
            Some(vec![Point::new(mid.x + px * amp, mid.y + py * amp)])
        }
        CurveStyle::BSpline => {
            // Three interior knots with independent perpendicular offsets.
            let mut knots = Vec::new();
            for frac in [0.25, 0.5, 0.75] {
                let amp = params.curve_amplitude_frac * dist * rng.gen_range(-1.2..1.2);
                let p = from.lerp(to, frac);
                knots.push(Point::new(p.x + px * amp, p.y + py * amp));
            }
            Some(knots)
        }
    };

    let interval = params.pointer_sample_interval_ms.max(1.0);
    let n = ((duration / interval).ceil() as usize).max(3);
    let jitter = Normal::new(0.0, style.jitter_px);
    let mut tremor = 0.0f64;
    out.reserve(n + 1);
    for i in 0..=n {
        let tau = i as f64 / n as f64;
        let s = match style.velocity {
            VelocityProfile::Uniform => tau,
            VelocityProfile::MinJerk => min_jerk_progress(tau),
        };
        let p = position_along(from, control.as_deref(), to, s);
        let (mut x, mut y) = (p.x, p.y);
        if style.jitter_px > 0.0 {
            tremor = 0.7 * tremor + 0.3 * jitter.sample(rng);
            let envelope = (std::f64::consts::PI * tau).sin();
            x += px * tremor * envelope;
            y += py * tremor * envelope;
        }
        out.push(TrajectorySample {
            t_ms: tau * duration,
            x,
            y,
        });
    }
    if let Some(last) = out.last_mut() {
        last.x = to.x;
        last.y = to.y;
    }
}

/// Point along the configured path at progress `s` ∈ [0, 1].
fn position_along(from: Point, control: Option<&[Point]>, to: Point, s: f64) -> Point {
    match control {
        None => from.lerp(to, s),
        Some([c]) => {
            let u = 1.0 - s;
            Point::new(
                u * u * from.x + 2.0 * u * s * c.x + s * s * to.x,
                u * u * from.y + 2.0 * u * s * c.y + s * s * to.y,
            )
        }
        Some(knots) => {
            // Piecewise Catmull-Rom-like blend through the knots.
            let pts: Vec<Point> = std::iter::once(from)
                .chain(knots.iter().copied())
                .chain(std::iter::once(to))
                .collect();
            let segs = pts.len() - 1;
            let scaled = s * segs as f64;
            let i = (scaled.floor() as usize).min(segs - 1);
            let local = scaled - i as f64;
            // Smoothstep within the segment keeps the path C1-ish.
            let smooth = local * local * (3.0 - 2.0 * local);
            pts[i].lerp(pts[i + 1], smooth)
        }
    }
}

/// Converts a trajectory into primitive pointer-move actions, one waypoint
/// per `min_segment_ms` of trajectory time — HLISA's chop-into-50 ms-moves
/// deployment strategy.
pub fn trajectory_to_actions(samples: &[TrajectorySample], min_segment_ms: f64) -> Vec<Action> {
    let mut out = Vec::new();
    trajectory_to_actions_into(samples, min_segment_ms, &mut out);
    out
}

/// Like [`trajectory_to_actions`], filling a caller-supplied buffer
/// instead of allocating. The buffer is cleared first.
pub fn trajectory_to_actions_into(
    samples: &[TrajectorySample],
    min_segment_ms: f64,
    out: &mut Vec<Action>,
) {
    assert!(min_segment_ms > 0.0, "segment duration must be positive");
    out.clear();
    let mut last_t = 0.0f64;
    for (i, s) in samples.iter().enumerate() {
        let is_last = i + 1 == samples.len();
        if i == 0 && samples.len() > 1 {
            continue; // starting point is the current cursor position
        }
        if s.t_ms - last_t >= min_segment_ms || is_last {
            out.push(Action::PointerMove {
                x: s.x,
                y: s.y,
                duration_ms: (s.t_ms - last_t).max(min_segment_ms),
            });
            last_t = s.t_ms;
        }
    }
    if out.is_empty() {
        if let Some(s) = samples.last() {
            out.push(Action::PointerMove {
                x: s.x,
                y: s.y,
                duration_ms: min_segment_ms,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_human::cursor::metrics;
    use hlisa_sim::SimContext;

    fn params() -> HumanParams {
        HumanParams::paper_baseline()
    }

    #[test]
    fn hlisa_motion_is_curved_and_accelerating() {
        let mut ctx = SimContext::new(1);
        let t = plan_motion(
            MotionStyle::hlisa(),
            &params(),
            &mut ctx,
            Point::new(100.0, 500.0),
            Point::new(900.0, 300.0),
            40.0,
        );
        assert!(metrics::straightness(&t) < 0.9999);
        let speeds = metrics::speeds(&t);
        let n = speeds.len();
        let edge = (speeds[0] + speeds[n - 1]) / 2.0;
        let mid = speeds[n / 2];
        assert!(mid > edge * 2.0, "no accel/decel: edge {edge}, mid {mid}");
    }

    #[test]
    fn naive_bezier_is_curved_but_uniform() {
        let mut ctx = SimContext::new(2);
        let t = plan_motion(
            MotionStyle::naive_bezier(),
            &params(),
            &mut ctx,
            Point::new(100.0, 500.0),
            Point::new(900.0, 300.0),
            40.0,
        );
        assert!(metrics::straightness(&t) < 0.9999, "must curve");
        let speeds = metrics::speeds(&t);
        // Spatial speed along a uniform-parameter Bézier varies mildly but
        // has no rest-to-rest profile: endpoints are NOT near-zero.
        assert!(speeds[0] > 0.2, "naive starts at speed, got {}", speeds[0]);
        assert!(speeds[speeds.len() - 1] > 0.2);
    }

    #[test]
    fn straight_uniform_is_selenium_like() {
        let mut ctx = SimContext::new(3);
        let style = MotionStyle {
            curve: CurveStyle::Straight,
            velocity: VelocityProfile::Uniform,
            jitter_px: 0.0,
            duration: DurationModel::Fixed(250.0),
        };
        let t = plan_motion(
            style,
            &params(),
            &mut ctx,
            Point::new(0.0, 0.0),
            Point::new(800.0, 400.0),
            40.0,
        );
        assert!(metrics::straightness(&t) > 0.999999);
        let speeds = metrics::speeds(&t);
        let mean: f64 = speeds.iter().sum::<f64>() / speeds.len() as f64;
        for s in &speeds {
            assert!((s - mean).abs() / mean < 0.05);
        }
    }

    #[test]
    fn bspline_differs_from_single_bezier() {
        let mut ctx = SimContext::new(2);
        let style = MotionStyle {
            curve: CurveStyle::BSpline,
            velocity: VelocityProfile::Uniform,
            jitter_px: 0.0,
            duration: DurationModel::ConstantSpeed(0.8),
        };
        let t = plan_motion(
            style,
            &params(),
            &mut ctx,
            Point::new(0.0, 0.0),
            Point::new(800.0, 0.0),
            40.0,
        );
        // Multiple inflections: the perpendicular offset changes sign.
        let offsets: Vec<f64> = t.iter().map(|s| s.y).collect();
        let sign_changes = offsets
            .windows(2)
            .filter(|w| w[0].signum() != w[1].signum() && w[0].abs() > 0.5)
            .count();
        assert!(
            sign_changes >= 1,
            "b-spline should weave, offsets: {offsets:?}"
        );
        assert_eq!(t.last().unwrap().y, 0.0);
    }

    #[test]
    fn trajectory_to_actions_respects_min_segment() {
        let mut ctx = SimContext::new(5);
        let t = plan_motion(
            MotionStyle::hlisa(),
            &params(),
            &mut ctx,
            Point::new(0.0, 0.0),
            Point::new(900.0, 500.0),
            40.0,
        );
        let actions = trajectory_to_actions(&t, 50.0);
        assert!(actions.len() >= 3, "{} segments", actions.len());
        for a in &actions {
            match a {
                Action::PointerMove { duration_ms, .. } => {
                    assert!(*duration_ms >= 50.0 - 1e-9);
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        // Final action lands on the target.
        match actions.last().unwrap() {
            Action::PointerMove { x, y, .. } => {
                assert_eq!((*x, *y), (900.0, 500.0));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn zero_distance_yields_single_action() {
        let samples = vec![TrajectorySample {
            t_ms: 0.0,
            x: 5.0,
            y: 5.0,
        }];
        let actions = trajectory_to_actions(&samples, 50.0);
        assert_eq!(actions.len(), 1);
    }

    #[test]
    #[should_panic(expected = "segment duration")]
    fn rejects_zero_segment() {
        let _ = trajectory_to_actions(&[], 0.0);
    }
}
