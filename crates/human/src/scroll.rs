//! Human wheel scrolling cadence.
//!
//! Appendix E: the subject scrolled a 30,000 px page top to bottom with the
//! mouse wheel at a comfortable pace. The cadence has two time scales:
//! short gaps between ticks within one finger flick, and a longer break
//! when the finger lifts back to the top of the wheel (§4.1: HLISA
//! "incorporates a slightly longer break to account for moving one's
//! finger to continue scrolling").

use crate::params::HumanParams;
use rand::Rng;

/// One planned wheel tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedTick {
    /// Offset from scroll start (ms).
    pub at_ms: f64,
    /// +1 scrolls down, −1 scrolls up.
    pub direction: i32,
}

/// Plans the wheel ticks to cover `distance_px` in the given direction
/// (positive = down), given the browser's tick size. Draws from the
/// context's `"scroll"` stream.
#[cfg(test)]
pub fn plan_scroll(
    params: &HumanParams,
    ctx: &mut hlisa_sim::SimContext,
    distance_px: f64,
    tick_px: f64,
) -> Vec<PlannedTick> {
    plan_scroll_with(params, ctx.stream("scroll"), distance_px, tick_px)
}

/// Plans the wheel ticks to cover `distance_px` in the given direction
/// (positive = down), given the browser's tick size, drawing from `rng`.
pub fn plan_scroll_with<R: Rng + ?Sized>(
    params: &HumanParams,
    rng: &mut R,
    distance_px: f64,
    tick_px: f64,
) -> Vec<PlannedTick> {
    let mut out = Vec::new();
    plan_scroll_into(params, rng, distance_px, tick_px, &mut out);
    out
}

/// Like [`plan_scroll_with`], filling a caller-supplied buffer instead of
/// allocating. The buffer is cleared first; its capacity survives across
/// calls, so a reused buffer makes scroll planning allocation-free in
/// steady state. Draws and tick values are identical to [`plan_scroll_with`]:
/// a gap or finger break is drawn after every tick, the last included.
pub fn plan_scroll_into<R: Rng + ?Sized>(
    params: &HumanParams,
    rng: &mut R,
    distance_px: f64,
    tick_px: f64,
    out: &mut Vec<PlannedTick>,
) {
    assert!(tick_px > 0.0, "tick size must be positive");
    out.clear();
    let direction = if distance_px >= 0.0 { 1 } else { -1 };
    let n_ticks = (distance_px.abs() / tick_px).round() as usize;
    out.reserve(n_ticks);
    let mut t = 0.0f64;
    let mut ticks_in_flick = 0usize;
    let mut flick_len = sample_flick_len_with(params, rng);
    for _ in 0..n_ticks {
        out.push(PlannedTick {
            at_ms: t,
            direction,
        });
        ticks_in_flick += 1;
        if ticks_in_flick >= flick_len {
            // Finger repositioning break.
            t += params.scroll_finger_break.sample(rng);
            ticks_in_flick = 0;
            flick_len = sample_flick_len_with(params, rng);
        } else {
            t += params.scroll_tick_gap.sample(rng);
        }
    }
}

/// Samples how many wheel ticks one finger flick delivers before the
/// finger must be repositioned. Shared by the human planner and HLISA's
/// scrolling so their flick-length distributions cannot drift apart.
pub fn sample_flick_len_with<R: Rng + ?Sized>(params: &HumanParams, rng: &mut R) -> usize {
    let mean = params.scroll_ticks_per_flick_mean;
    let sampled = mean + rng.gen_range(-2.0..2.0);
    sampled.round().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_sim::SimContext;

    fn plan(distance: f64, seed: u64) -> Vec<PlannedTick> {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(seed);
        plan_scroll(&p, &mut ctx, distance, 57.0)
    }

    #[test]
    fn covers_requested_distance_in_ticks() {
        let ticks = plan(5_700.0, 1);
        assert_eq!(ticks.len(), 100);
        assert!(ticks.iter().all(|t| t.direction == 1));
    }

    #[test]
    fn upward_scrolling_flips_direction() {
        let ticks = plan(-570.0, 2);
        assert_eq!(ticks.len(), 10);
        assert!(ticks.iter().all(|t| t.direction == -1));
    }

    #[test]
    fn cadence_has_two_timescales() {
        let ticks = plan(30_000.0, 3);
        let gaps: Vec<f64> = ticks.windows(2).map(|w| w[1].at_ms - w[0].at_ms).collect();
        let short = gaps.iter().filter(|g| **g < 300.0).count();
        let long = gaps.iter().filter(|g| **g >= 300.0).count();
        assert!(short > long, "most gaps are intra-flick");
        assert!(long > 10, "finger breaks must appear on a long scroll");
    }

    #[test]
    fn gaps_are_never_inhumanly_fast() {
        let ticks = plan(10_000.0, 4);
        for w in ticks.windows(2) {
            assert!(w[1].at_ms - w[0].at_ms >= 40.0);
        }
    }

    #[test]
    fn zero_distance_gives_no_ticks() {
        assert!(plan(0.0, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "tick size")]
    fn rejects_bad_tick() {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(6);
        let _ = plan_scroll(&p, &mut ctx, 100.0, 0.0);
    }
}
