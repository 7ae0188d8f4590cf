//! Human typing rhythm.
//!
//! Appendix E: dwell time (press→release of one key) and flight time
//! (release→next press) are derived from a 100-character typing recording;
//! the paper combines them with the contextual pause taxonomy of Alves et
//! al. (2007) — longer pauses after words, commas, and sentence ends. Fast
//! ten-finger typing (~600 cpm) also *interleaves* presses: "sometimes a
//! key is only released when a different key has already been pressed"
//! (§4.1). The planner reproduces all of it, including the Shift presses
//! capitals need on a real keyboard.

use crate::keyboard::{us_qwerty_key, KeyId};
use crate::params::HumanParams;
use hlisa_sim::SimContext;
use rand::Rng;

/// One planned key transition.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedKeyEvent {
    /// Offset from the start of typing (ms).
    pub at_ms: f64,
    /// True for keydown, false for keyup.
    pub down: bool,
    /// DOM key value.
    pub key: String,
}

/// One planned key transition in compact (`Copy`, allocation-free) form —
/// the arena representation for batch interaction plans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedKeyStroke {
    /// Offset from the start of typing (ms).
    pub at_ms: f64,
    /// True for keydown, false for keyup.
    pub down: bool,
    /// The key, as a compact id (see [`KeyId::dom_key`]).
    pub key: KeyId,
}

/// Where the cadence core deposits planned key transitions. One core, two
/// representations: the `String`-keyed events the browser driver consumes
/// and the compact `Copy` strokes the batch planner arenas — both fed by
/// the identical draw sequence.
trait KeySink {
    fn push_key(&mut self, at_ms: f64, down: bool, key: KeyId);
    fn sort_by_time(&mut self);
}

impl KeySink for Vec<PlannedKeyEvent> {
    fn push_key(&mut self, at_ms: f64, down: bool, key: KeyId) {
        self.push(PlannedKeyEvent {
            at_ms,
            down,
            key: key.dom_key(),
        });
    }
    fn sort_by_time(&mut self) {
        self.sort_by(|a, b| {
            a.at_ms
                .partial_cmp(&b.at_ms)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }
}

impl KeySink for Vec<PlannedKeyStroke> {
    fn push_key(&mut self, at_ms: f64, down: bool, key: KeyId) {
        self.push(PlannedKeyStroke { at_ms, down, key });
    }
    fn sort_by_time(&mut self) {
        self.sort_by(|a, b| {
            a.at_ms
                .partial_cmp(&b.at_ms)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }
}

/// Plans the key events for typing `text` like a human, drawing from the
/// context's `"typing"` stream. Characters the US-QWERTY layout cannot
/// produce are skipped (matching what a physical typist without an IME can
/// enter).
pub fn plan_typing(params: &HumanParams, ctx: &mut SimContext, text: &str) -> Vec<PlannedKeyEvent> {
    let mut events = Vec::new();
    plan_typing_into(params, ctx.stream("typing"), text, &mut events);
    events
}

/// Like [`plan_typing`], drawing from an explicit RNG stream and filling a
/// caller-supplied buffer instead of allocating. The buffer is cleared
/// first; its capacity is reused across calls, which removes the
/// per-action `Vec` (though not the per-key `String`s) from the typing hot
/// path. A plan cannot stream lazily — the Shift release events it emits
/// are retro-timed, so the plan is only time-ordered after the final sort.
pub fn plan_typing_into<R: Rng + ?Sized>(
    params: &HumanParams,
    rng: &mut R,
    text: &str,
    events: &mut Vec<PlannedKeyEvent>,
) {
    events.clear();
    plan_typing_core(params, rng, text, events);
}

/// The compact counterpart of [`plan_typing_into`]: same cadence model,
/// same draws (both run the one shared core), but the events land as
/// `Copy` [`PlannedKeyStroke`]s — no per-key `String`, so a reused buffer
/// makes the typing plan allocation-free in steady state. This is the
/// representation the batch interaction planner arenas.
pub fn plan_typing_keys_into<R: Rng + ?Sized>(
    params: &HumanParams,
    rng: &mut R,
    text: &str,
    events: &mut Vec<PlannedKeyStroke>,
) {
    events.clear();
    plan_typing_core(params, rng, text, events);
}

/// The cadence model itself, generic over the event representation. Every
/// draw the planner makes happens in here, so the `String` and compact
/// paths cannot drift apart.
fn plan_typing_core<R: Rng + ?Sized, S: KeySink>(
    params: &HumanParams,
    rng: &mut R,
    text: &str,
    events: &mut S,
) {
    let mut t = 0.0f64; // next keydown time
    let mut prev_up_t = 0.0f64;
    let mut shift_down = false;
    let mut prev_char: Option<char> = None;

    // AR(1) tempo drift: successive dwell deviations are serially
    // correlated (the consistency signal of §4.2). Stationary variance is
    // kept equal to the configured dwell variance.
    let rho = params.dwell_autocorr.clamp(0.0, 0.95);
    let dwell_mean = params.key_dwell.mean();
    let dwell_sigma = params.key_dwell.std_dev();
    let innovation = hlisa_stats::Normal::new(0.0, dwell_sigma * (1.0 - rho * rho).sqrt());
    let mut dwell_dev = 0.0f64;

    let mut chars = text
        .chars()
        .filter_map(|c| us_qwerty_key(c).map(|(key, needs_shift)| (c, key, needs_shift)))
        .peekable();
    while let Some((ch, key, needs_shift)) = chars.next() {
        // Contextual pause from the character *before* this one.
        if let Some(prev) = prev_char {
            let extra = match prev {
                ' ' => Some(params.pause_word.sample(rng)),
                ',' | ';' => Some(params.pause_comma.sample(rng)),
                '.' | '!' | '?' => Some(params.pause_sentence.sample(rng)),
                _ => None,
            };
            if let Some(extra) = extra {
                t += extra;
            }
        }

        // Shift transitions around the run of shifted characters.
        if needs_shift && !shift_down {
            let lead = rng.gen_range(35.0..90.0);
            events.push_key((t - lead).max(0.0), true, KeyId::Shift);
            shift_down = true;
        } else if !needs_shift && shift_down {
            let lag = rng.gen_range(10.0..50.0);
            events.push_key(prev_up_t + lag, false, KeyId::Shift);
            shift_down = false;
            t = t.max(prev_up_t + lag + 5.0);
        }

        // The key itself. Dwell follows the drifting tempo.
        dwell_dev = rho * dwell_dev + innovation.sample(rng);
        let dwell = (dwell_mean + dwell_dev).clamp(params.key_dwell.lo(), params.key_dwell.hi());
        events.push_key(t, true, key);
        events.push_key(t + dwell, false, key);
        prev_up_t = t + dwell;

        // Flight to the next press; interleave sometimes.
        if chars.peek().is_some() {
            let mut flight = params.key_flight.sample(rng);
            if flight < 0.0 && !rng.gen_bool(params.interleave_prob) {
                flight = flight.abs();
            }
            // Next press measured from this key's *release* minus overlap.
            t = (prev_up_t + flight).max(t + 20.0);
        }
        prev_char = Some(ch);
    }
    if shift_down {
        events.push_key(prev_up_t + rng.gen_range(10.0..60.0), false, KeyId::Shift);
    }
    events.sort_by_time();
}

/// Overall characters-per-minute implied by a plan (counting non-modifier
/// presses).
pub fn plan_cpm(events: &[PlannedKeyEvent]) -> f64 {
    let presses: Vec<&PlannedKeyEvent> = events
        .iter()
        .filter(|e| e.down && e.key != "Shift")
        .collect();
    let [first, .., last] = presses.as_slice() else {
        return 0.0;
    };
    let span_ms = last.at_ms - first.at_ms;
    if span_ms <= 0.0 {
        return 0.0;
    }
    (presses.len() - 1) as f64 * 60_000.0 / span_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(text: &str, seed: u64) -> Vec<PlannedKeyEvent> {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(seed);
        plan_typing(&p, &mut ctx, text)
    }

    #[test]
    fn every_down_has_an_up() {
        let ev = plan("hello world", 1);
        let downs = ev.iter().filter(|e| e.down).count();
        let ups = ev.iter().filter(|e| !e.down).count();
        assert_eq!(downs, ups);
    }

    #[test]
    fn events_are_time_ordered() {
        let ev = plan("the quick brown fox. jumps, again", 2);
        for w in ev.windows(2) {
            assert!(w[1].at_ms >= w[0].at_ms);
        }
    }

    #[test]
    fn capitals_get_shift_around_them() {
        let ev = plan("aBc", 3);
        let shift_down = ev
            .iter()
            .position(|e| e.down && e.key == "Shift")
            .expect("shift pressed");
        let b_down = ev
            .iter()
            .position(|e| e.down && e.key == "B")
            .expect("B pressed");
        let shift_up = ev
            .iter()
            .position(|e| !e.down && e.key == "Shift")
            .expect("shift released");
        assert!(shift_down < b_down, "shift must precede the capital");
        assert!(shift_up > b_down, "shift released after the capital press");
    }

    #[test]
    fn consecutive_capitals_share_one_shift() {
        let ev = plan("ABC", 4);
        let shift_downs = ev.iter().filter(|e| e.down && e.key == "Shift").count();
        assert_eq!(shift_downs, 1);
    }

    #[test]
    fn speed_is_broadly_human() {
        // ~600 cpm target, single-subject variation allowed.
        let ev = plan(
            "the quick brown fox jumps over the lazy dog and keeps running",
            5,
        );
        let cpm = plan_cpm(&ev);
        assert!((250.0..900.0).contains(&cpm), "cpm = {cpm}");
    }

    #[test]
    fn sentence_pause_slows_the_rhythm() {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(6);
        let flat = plan_typing(&p, &mut ctx, "aaaa aaaa aaaa aaaa");
        let mut ctx2 = SimContext::new(6);
        let punct = plan_typing(&p, &mut ctx2, "aa. aa. aa. aa. aa.");
        let span = |ev: &[PlannedKeyEvent]| ev.last().unwrap().at_ms - ev[0].at_ms;
        assert!(span(&punct) > span(&flat));
    }

    #[test]
    fn interleaving_occurs_at_speed() {
        // Generate a long plan and check at least one key is pressed before
        // the previous is released.
        let ev = plan(
            "abcdefghijklmnopqrstuvwxyz abcdefghijklmnopqrstuvwxyz abcdefghijklmnopqrstuvwxyz",
            7,
        );
        let mut open: Vec<(String, f64)> = Vec::new();
        let mut interleaves = 0;
        for e in &ev {
            if e.key == "Shift" {
                continue;
            }
            if e.down {
                if !open.is_empty() {
                    interleaves += 1;
                }
                open.push((e.key.clone(), e.at_ms));
            } else if let Some(pos) = open.iter().position(|(k, _)| *k == e.key) {
                open.remove(pos);
            }
        }
        assert!(interleaves > 0, "no rollover typing in a long fast plan");
    }

    #[test]
    fn unmapped_chars_are_skipped() {
        let ev = plan("aéb", 8);
        let keys: Vec<&str> = ev
            .iter()
            .filter(|e| e.down)
            .map(|e| e.key.as_str())
            .collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    #[test]
    fn dwell_times_are_serially_correlated() {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(20);
        let long = "the quick brown fox jumps over the lazy dog ".repeat(8);
        let ev = plan_typing(&p, &mut ctx, &long);
        // Pair downs with ups per key occurrence, in order.
        let mut dwells: Vec<f64> = Vec::new();
        let mut open: Vec<(String, f64)> = Vec::new();
        for e in &ev {
            if e.key == "Shift" {
                continue;
            }
            if e.down {
                open.push((e.key.clone(), e.at_ms));
            } else if let Some(pos) = open.iter().position(|(k, _)| *k == e.key) {
                let (_, down_t) = open.remove(pos);
                dwells.push(e.at_ms - down_t);
            }
        }
        assert!(dwells.len() > 200);
        let lag0: Vec<f64> = dwells[..dwells.len() - 1].to_vec();
        let lag1: Vec<f64> = dwells[1..].to_vec();
        let r = hlisa_stats::descriptive::pearson(&lag0, &lag1);
        assert!(r > 0.3, "lag-1 autocorr too weak: {r}");
    }

    #[test]
    fn empty_text_gives_empty_plan() {
        assert!(plan("", 9).is_empty());
        assert_eq!(plan_cpm(&[]), 0.0);
    }

    /// The compact plan is the `String` plan with the keys projected: same
    /// timestamps, same transitions, same post-RNG state.
    #[test]
    fn compact_plan_matches_string_plan_bit_for_bit() {
        let p = HumanParams::paper_baseline();
        let mut compact = Vec::new();
        let texts = [
            "Hello, World. How are you?",
            "aB cD EF",
            "",
            "plain lowercase words here",
            "MIXED case. with, punctuation!",
        ];
        for seed in 0..50u64 {
            for text in texts {
                let mut ctx = SimContext::new(seed);
                plan_typing_keys_into(&p, ctx.stream("typing"), text, &mut compact);
                let mut ref_ctx = SimContext::new(seed);
                let full = plan_typing(&p, &mut ref_ctx, text);
                assert_eq!(compact.len(), full.len(), "seed {seed} text {text:?}");
                for (c, f) in compact.iter().zip(&full) {
                    assert_eq!(c.at_ms.to_bits(), f.at_ms.to_bits(), "seed {seed}");
                    assert_eq!(c.down, f.down, "seed {seed}");
                    assert_eq!(c.key.dom_key(), f.key, "seed {seed}");
                }
                assert_eq!(
                    ctx.stream("typing").gen::<u64>(),
                    ref_ctx.stream("typing").gen::<u64>(),
                    "rng state diverged for seed {seed} text {text:?}"
                );
            }
        }
    }

    /// A reused buffer yields the same plan as a fresh allocation — stale
    /// contents from the prior call must not leak through.
    #[test]
    fn reused_buffer_matches_fresh_plan() {
        let p = HumanParams::paper_baseline();
        let mut buf = Vec::new();
        for (seed, text) in [(1u64, "Hello, World."), (2, "aB cD"), (3, ""), (4, "xyz")] {
            let mut ctx = SimContext::new(seed);
            plan_typing_into(&p, ctx.stream("typing"), text, &mut buf);
            let mut fresh_ctx = SimContext::new(seed);
            let fresh = plan_typing(&p, &mut fresh_ctx, text);
            assert_eq!(buf, fresh, "seed {seed} text {text:?}");
            assert_eq!(
                ctx.stream("typing").gen::<u64>(),
                fresh_ctx.stream("typing").gen::<u64>(),
                "rng state diverged for seed {seed}"
            );
        }
    }
}
