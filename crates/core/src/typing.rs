//! HLISA's typing model.
//!
//! HLISA copies the human typing *distributions* — dwell and flight drawn
//! "from a normal distribution parametrised with values found in our
//! experiment", simulated Shift for capitals, Alves et al. contextual
//! pauses, and the rollover (interleaved) presses fast typing exhibits —
//! but, being a proof of concept, it draws every timing **independently**
//! (Appendix F's caveat). Mechanically that means the schedule is produced
//! by the same planner as the human reference with the tempo-drift
//! autocorrelation set to zero, then compiled to Selenium key primitives.
//!
//! [`plan_consistent_typing_into`] keeps the drift on — the "use consistent
//! behaviour" escalation of the Fig. 3 simulator ladder, one of the
//! refinements the paper's future-work section anticipates.

use hlisa_human::typing::{plan_typing_into, PlannedKeyEvent};
use hlisa_human::HumanParams;
use hlisa_webdriver::Action;
use rand::Rng;

/// Plans HLISA keystroke actions for `text` (i.i.d. timing draws),
/// drawing from `rng` and filling caller-supplied buffers: the intermediate key plan goes into
/// `events` and the compiled actions into `out` (both cleared first), so a
/// driver typing many fields reuses the same two allocations.
pub fn plan_hlisa_typing_into<R: Rng + ?Sized>(
    params: &HumanParams,
    rng: &mut R,
    text: &str,
    events: &mut Vec<PlannedKeyEvent>,
    out: &mut Vec<Action>,
) {
    let mut iid = params.clone();
    iid.dwell_autocorr = 0.0;
    plan_typing_into(&iid, rng, text, events);
    events_to_actions_into(events, out);
}

/// Plans typing with the human tempo drift retained — the consistency
/// escalation that defeats level-3 detectors — drawing from `rng` and
/// filling caller-supplied buffers (see [`plan_hlisa_typing_into`]).
pub fn plan_consistent_typing_into<R: Rng + ?Sized>(
    params: &HumanParams,
    rng: &mut R,
    text: &str,
    events: &mut Vec<PlannedKeyEvent>,
    out: &mut Vec<Action>,
) {
    plan_typing_into(params, rng, text, events);
    events_to_actions_into(events, out);
}

/// Compiles a timestamped key plan into sequential Selenium primitives,
/// filling a caller-supplied buffer (cleared first). Interleaved
/// (rollover) presses survive: the actions are emitted in timestamp order
/// with pauses in between, so a `key_down` of the next key can precede the
/// `key_up` of the previous one.
pub fn events_to_actions_into(events: &[PlannedKeyEvent], out: &mut Vec<Action>) {
    out.clear();
    out.reserve(events.len() * 2);
    let mut t = 0.0f64;
    for ev in events {
        if ev.at_ms > t {
            out.push(Action::Pause(ev.at_ms - t));
            t = ev.at_ms;
        }
        out.push(if ev.down {
            Action::KeyDown(ev.key.clone())
        } else {
            Action::KeyUp(ev.key.clone())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_sim::SimContext;

    fn plan_hlisa_typing(params: &HumanParams, ctx: &mut SimContext, text: &str) -> Vec<Action> {
        let mut out = Vec::new();
        plan_hlisa_typing_into(
            params,
            ctx.stream("typing"),
            text,
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    fn plan_consistent_typing(
        params: &HumanParams,
        ctx: &mut SimContext,
        text: &str,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        plan_consistent_typing_into(
            params,
            ctx.stream("typing"),
            text,
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    fn plan(text: &str, seed: u64) -> Vec<Action> {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(seed);
        plan_hlisa_typing(&p, &mut ctx, text)
    }

    #[test]
    fn balanced_keys() {
        let acts = plan("Hello, World!", 1);
        let d = acts
            .iter()
            .filter(|a| matches!(a, Action::KeyDown(_)))
            .count();
        let u = acts
            .iter()
            .filter(|a| matches!(a, Action::KeyUp(_)))
            .count();
        assert_eq!(d, u);
    }

    #[test]
    fn shift_simulated_for_capitals_and_symbols() {
        let acts = plan("Hi!", 2);
        let shifts = acts
            .iter()
            .filter(|a| matches!(a, Action::KeyDown(k) if k == "Shift"))
            .count();
        // H needs shift; i does not; ! does.
        assert!(shifts >= 2, "{shifts} shifts");
    }

    #[test]
    fn pauses_are_positive_and_variable() {
        let acts = plan("abcdefghij", 3);
        let pauses: Vec<f64> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Pause(ms) => Some(*ms),
                _ => None,
            })
            .collect();
        assert!(pauses.iter().all(|p| *p > 0.0));
        let first = pauses[0];
        assert!(pauses.iter().any(|p| (p - first).abs() > 1.0));
    }

    #[test]
    fn iid_plan_lacks_tempo_drift() {
        // Extract dwell sequence from the action stream and check its
        // lag-1 autocorrelation is near zero (vs the human planner's 0.55).
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(4);
        let long = "the quick brown fox jumps over the lazy dog ".repeat(8);
        let acts = plan_hlisa_typing(&p, &mut ctx, &long);
        let dwells = dwells_of(&acts);
        assert!(dwells.len() > 200);
        let a: Vec<f64> = dwells[..dwells.len() - 1].to_vec();
        let b: Vec<f64> = dwells[1..].to_vec();
        let r = hlisa_stats::descriptive::pearson(&a, &b);
        assert!(r.abs() < 0.2, "iid dwell autocorr {r}");
    }

    #[test]
    fn consistent_plan_has_tempo_drift() {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(5);
        let long = "the quick brown fox jumps over the lazy dog ".repeat(8);
        let acts = plan_consistent_typing(&p, &mut ctx, &long);
        let dwells = dwells_of(&acts);
        let a: Vec<f64> = dwells[..dwells.len() - 1].to_vec();
        let b: Vec<f64> = dwells[1..].to_vec();
        let r = hlisa_stats::descriptive::pearson(&a, &b);
        assert!(r > 0.3, "consistent dwell autocorr {r}");
    }

    #[test]
    fn empty_text_plans_nothing() {
        assert!(plan("", 6).is_empty());
    }

    /// Reconstructs per-key dwell times by replaying the action stream.
    fn dwells_of(actions: &[Action]) -> Vec<f64> {
        let mut t = 0.0;
        let mut open: Vec<(String, f64)> = Vec::new();
        let mut dwells = Vec::new();
        for a in actions {
            match a {
                Action::Pause(ms) => t += ms,
                Action::KeyDown(k) if k != "Shift" => open.push((k.clone(), t)),
                Action::KeyUp(k) if k != "Shift" => {
                    if let Some(pos) = open.iter().position(|(ok, _)| ok == k) {
                        let (_, down_t) = open.remove(pos);
                        dwells.push(t - down_t);
                    }
                }
                _ => {}
            }
        }
        dwells
    }
}
