//! Human click placement and button timing.
//!
//! Fig. 2 (top right): human clicks on an element are "much more
//! distributed but hardly ever in the centre". The model samples a 2-D
//! normal around a slightly biased centre, truncated to the element box —
//! matching HLISA's choice of "a normal distribution with parameters drawn
//! from our experiment" while keeping every click physically on the
//! element.

use crate::params::HumanParams;
use hlisa_browser::{Point, Rect};
use hlisa_sim::SimContext;
use hlisa_stats::Normal;

/// Samples a click point inside `rect`, drawing from the context's
/// `"click"` stream.
pub fn sample_click_point(params: &HumanParams, ctx: &mut SimContext, rect: Rect) -> Point {
    let rng = ctx.stream("click");
    let cx = rect.x + rect.width * (0.5 + params.click_bias_x_frac);
    let cy = rect.y + rect.height * 0.5;
    let dx = Normal::new(0.0, params.click_sigma_x_frac * rect.width);
    let dy = Normal::new(0.0, params.click_sigma_y_frac * rect.height);
    // Rejection-sample into the box (margin keeps clicks off the exact
    // border, where humans rarely land either).
    let margin_x = (rect.width * 0.04).min(2.0);
    let margin_y = (rect.height * 0.04).min(2.0);
    for _ in 0..64 {
        let p = Point::new(cx + dx.sample(rng), cy + dy.sample(rng));
        if p.x >= rect.x + margin_x
            && p.x <= rect.x + rect.width - margin_x
            && p.y >= rect.y + margin_y
            && p.y <= rect.y + rect.height - margin_y
        {
            return p;
        }
    }
    Point::new(cx, cy)
}

/// Samples a button dwell time (ms) from the `"click"` stream.
pub fn sample_dwell_ms(params: &HumanParams, ctx: &mut SimContext) -> f64 {
    params.click_dwell.sample(ctx.stream("click"))
}

/// Samples the gap between the two clicks of a double click (ms) from the
/// `"click"` stream.
pub fn sample_double_click_gap_ms(params: &HumanParams, ctx: &mut SimContext) -> f64 {
    params.double_click_gap.sample(ctx.stream("click"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_stats::descriptive::Summary;

    const RECT: Rect = Rect::new(100.0, 200.0, 120.0, 40.0);

    #[test]
    fn clicks_stay_on_the_element() {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(1);
        for _ in 0..2_000 {
            let pt = sample_click_point(&p, &mut ctx, RECT);
            assert!(RECT.contains(pt), "off-element click {pt:?}");
        }
    }

    #[test]
    fn clicks_are_distributed_not_centred() {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(2);
        let center = RECT.center();
        let mut exact_center = 0usize;
        let mut dists = Vec::new();
        for _ in 0..2_000 {
            let pt = sample_click_point(&p, &mut ctx, RECT);
            if pt.distance_to(center) < 0.5 {
                exact_center += 1;
            }
            dists.push(pt.distance_to(center));
        }
        // "hardly ever in the centre"
        assert!(exact_center < 20, "{exact_center} dead-centre clicks");
        let s = Summary::of(&dists);
        assert!(s.mean > 3.0, "too concentrated: mean dist {}", s.mean);
        assert!(s.std_dev > 1.0);
    }

    #[test]
    fn dwell_times_are_plausibly_human() {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(3);
        let xs: Vec<f64> = (0..2_000).map(|_| sample_dwell_ms(&p, &mut ctx)).collect();
        let s = Summary::of(&xs);
        assert!(s.min >= 20.0, "subhuman dwell {}", s.min);
        assert!((60.0..120.0).contains(&s.mean), "mean {}", s.mean);
        assert!(s.std_dev > 5.0, "dwell not noisy enough");
    }

    #[test]
    fn double_click_gap_fits_os_window() {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(4);
        for _ in 0..1_000 {
            let gap = sample_double_click_gap_ms(&p, &mut ctx);
            assert!((60.0..=450.0).contains(&gap), "gap {gap}");
        }
    }

    #[test]
    fn tiny_elements_still_get_clicks() {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(5);
        let tiny = Rect::new(0.0, 0.0, 6.0, 6.0);
        for _ in 0..200 {
            let pt = sample_click_point(&p, &mut ctx, tiny);
            assert!(tiny.contains(pt));
        }
    }
}
