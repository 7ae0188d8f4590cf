//! Differential property test for the lane-batched partial-capture hash:
//! a [`LossyObserver`] must deliver, drop and count exactly what a
//! reference that asks [`LossSchedule::blame`] once per event does.
//!
//! Late-attach and dropout windows blame events before the hash is
//! consulted, so the observer's eight-index lane mask is refilled at
//! arbitrary, non-aligned indices; event times are drawn out of order to
//! make those gaps land anywhere in the stream.

use hlisa_sim::{CounterSet, LossKind, LossSchedule, LossyObserver, Observer};
use proptest::prelude::*;

/// Records the payload of every delivered event, in delivery order.
#[derive(Debug, Default, PartialEq)]
struct Delivered(Vec<u32>);

impl Observer<u32> for Delivered {
    fn on_event(&mut self, _t_ms: f64, event: &u32) {
        self.0.push(*event);
    }
}

/// The scalar reference: one `blame` per event, counters built by hand.
fn reference(schedule: &LossSchedule, span_ms: f64, times: &[f64]) -> (Delivered, CounterSet) {
    let mut delivered = Delivered::default();
    let mut dropped = [0u64; LossKind::ALL.len()];
    for (i, &t) in times.iter().enumerate() {
        let at = if span_ms > 0.0 {
            (t / span_ms).clamp(0.0, 1.0)
        } else {
            0.0
        };
        match schedule.blame(at, i as u64) {
            None => delivered.0.push(i as u32),
            Some(kind) => dropped[LossKind::ALL.iter().position(|k| *k == kind).unwrap()] += 1,
        }
    }
    let mut c = CounterSet::new();
    let total_dropped: u64 = dropped.iter().sum();
    for (name, n) in [
        ("loss.offered", times.len() as u64),
        ("loss.delivered", delivered.0.len() as u64),
        ("loss.dropped", total_dropped),
    ] {
        if n > 0 {
            c.add(name, n);
        }
    }
    for (kind, n) in LossKind::ALL.iter().zip(dropped) {
        if n > 0 {
            c.add(&format!("loss.dropped.{}", kind.name()), n);
        }
    }
    (delivered, c)
}

/// Schedules with every window present or absent and the partial rate
/// at its edges (0 and 1) as well as inside.
fn arb_schedule() -> impl Strategy<Value = LossSchedule> {
    (
        (0u8..3, 0.0f64..1.1),
        (0u8..2, 0.0f64..1.0, 0.0f64..0.5),
        (0u8..5, 0.0f64..1.0, 0u64..u64::MAX),
    )
        .prop_map(|((attach, attach_at), dropout, partial)| {
            let (has_dropout, start, len) = dropout;
            let (pick, rate, salt) = partial;
            LossSchedule {
                attach_at: if attach == 0 { 0.0 } else { attach_at },
                dropout: (has_dropout == 1).then(|| (start, (start + len).min(1.0))),
                partial: match pick {
                    0 => None,
                    1 => Some((0.0, salt)),
                    2 => Some((1.0, salt)),
                    _ => Some((rate, salt)),
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lane_batched_observer_matches_scalar_blame(
        schedule in arb_schedule(),
        span_ms in (0u8..8, 1.0f64..60_000.0).prop_map(|(zero, ms)| if zero == 0 { 0.0 } else { ms }),
        fractions in proptest::collection::vec(0.0f64..1.05, 0..200),
    ) {
        let times: Vec<f64> = fractions.iter().map(|f| f * span_ms).collect();
        let mut lossy = LossyObserver::new(Delivered::default(), schedule, span_ms);
        for (i, &t) in times.iter().enumerate() {
            lossy.on_event(t, &(i as u32));
        }
        let (delivered, counters) = reference(&schedule, span_ms, &times);
        prop_assert_eq!(lossy.counters(), counters);
        prop_assert_eq!(lossy.into_inner(), delivered);
    }
}
