//! HLISA's scrolling extension.
//!
//! "HLISA extends the Selenium API with a function to simulate scrolling,
//! which uses the default mouse wheel scroll distance (57 pixels), uses a
//! normal distribution to incorporate short breaks, and incorporates a
//! slightly longer break to account for moving one's finger to continue
//! scrolling the mouse wheel" (§4.1). Draws are i.i.d. normals, matching
//! the proof-of-concept status the paper describes.

use hlisa_browser::viewport::WHEEL_TICK_PX;
use hlisa_human::scroll::sample_flick_len_with;
use hlisa_human::HumanParams;
use hlisa_webdriver::Action;
use rand::Rng;

/// Plans wheel-tick actions covering `distance_px` (positive = down),
/// drawing from `rng` and filling a caller-supplied buffer (cleared
/// first). Draw order differs from the human planner's: no gap or
/// break is drawn after the final tick (the action chain ends at the tick,
/// so there is no trailing pause to time).
pub fn plan_hlisa_scroll_into<R: Rng + ?Sized>(
    params: &HumanParams,
    rng: &mut R,
    distance_px: f64,
    out: &mut Vec<Action>,
) {
    out.clear();
    let direction = if distance_px >= 0.0 { 1 } else { -1 };
    let n_ticks = (distance_px.abs() / WHEEL_TICK_PX).round() as usize;
    out.reserve(n_ticks * 2);
    let mut ticks_since_break = 0usize;
    let mut flick_len = sample_flick_len_with(params, rng);
    for i in 0..n_ticks {
        out.push(Action::WheelTick(direction));
        ticks_since_break += 1;
        if i + 1 == n_ticks {
            break;
        }
        if ticks_since_break >= flick_len {
            out.push(Action::Pause(params.scroll_finger_break.sample(rng)));
            ticks_since_break = 0;
            flick_len = sample_flick_len_with(params, rng);
        } else {
            out.push(Action::Pause(params.scroll_tick_gap.sample(rng)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_sim::SimContext;

    fn plan_hlisa_scroll(
        params: &HumanParams,
        ctx: &mut SimContext,
        distance_px: f64,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        plan_hlisa_scroll_into(params, ctx.stream("scroll"), distance_px, &mut out);
        out
    }

    #[test]
    fn tick_count_covers_distance() {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(1);
        let acts = plan_hlisa_scroll(&p, &mut ctx, 570.0);
        let ticks = acts
            .iter()
            .filter(|a| matches!(a, Action::WheelTick(1)))
            .count();
        assert_eq!(ticks, 10);
    }

    #[test]
    fn long_scrolls_include_finger_breaks() {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(2);
        let acts = plan_hlisa_scroll(&p, &mut ctx, 10_000.0);
        let long_pauses = acts
            .iter()
            .filter(|a| matches!(a, Action::Pause(ms) if *ms >= 150.0))
            .count();
        assert!(long_pauses > 5, "{long_pauses} long pauses");
    }

    #[test]
    fn upward_scroll_uses_negative_ticks() {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(3);
        let acts = plan_hlisa_scroll(&p, &mut ctx, -171.0);
        assert!(acts.iter().any(|a| matches!(a, Action::WheelTick(-1))));
        assert!(!acts.iter().any(|a| matches!(a, Action::WheelTick(1))));
    }

    #[test]
    fn zero_distance_plans_nothing() {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(4);
        assert!(plan_hlisa_scroll(&p, &mut ctx, 10.0).is_empty());
    }
}
