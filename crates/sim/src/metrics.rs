//! The metric registry: the single source of truth for every counter
//! name the workspace renders, and the fixed-slot [`Tally`] the engine's
//! stages count into.
//!
//! A misspelled counter name fails silently: `CounterSet::get` returns
//! `None` for it, and an assertion that expects `None` checks nothing.
//! This registry closes the set of names the way
//! [`STREAM_REGISTRY`](crate::STREAM_REGISTRY) closes stream names, and
//! `hlisa-lint`'s `metric-name-registry` rule holds literals to it.
//!
//! The first [`TALLIED`] entries are the engine's stage counters, and an
//! entry's position is its slot in a [`Tally`]. The entries after them
//! are written directly by the browser's `metrics()`, whose per-kind
//! `events.<kind>` names come from its `EventKind`s.

use crate::observer::CounterSet;
use std::ops::Range;

/// One registered counter. Every metric is a monotone count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricInfo {
    /// The counter's name in a [`CounterSet`].
    pub name: &'static str,
    /// What one unit of the count is.
    pub unit: &'static str,
    /// The crate whose code counts it.
    pub owner: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, owner: &'static str) -> MetricInfo {
    MetricInfo { name, unit, owner }
}

/// Every counter name, tallied slots first. Within a family, registry
/// order is render order.
pub const METRIC_REGISTRY: &[MetricInfo] = &[
    // The fault stage (`FaultMonitor`).
    metric("fault.injected", "faults", "hlisa-sim"),
    metric("fault.injected.page_load_timeout", "faults", "hlisa-sim"),
    metric("fault.injected.mid_visit_stall", "faults", "hlisa-sim"),
    metric("fault.injected.realm_crash", "faults", "hlisa-sim"),
    metric("fault.injected.transient_network", "faults", "hlisa-sim"),
    metric(
        "fault.injected.permanent_unreachable",
        "faults",
        "hlisa-sim",
    ),
    metric("retry.scheduled", "retries", "hlisa-sim"),
    metric("retry.backoff_ms_total", "ms", "hlisa-sim"),
    metric("retry.recovered", "visits", "hlisa-sim"),
    metric("retry.gave_up", "visits", "hlisa-sim"),
    metric("breaker.tripped", "trips", "hlisa-sim"),
    metric("breaker.skipped_visits", "visits", "hlisa-sim"),
    // The planner stage (`plan_visit`).
    metric("plan.actions", "actions", "hlisa-web"),
    metric("plan.samples", "samples", "hlisa-web"),
    metric("plan.keys", "keys", "hlisa-web"),
    metric("plan.ticks", "ticks", "hlisa-web"),
    // The naive capture channel (`LossyObserver`).
    metric("loss.offered", "events", "hlisa-sim"),
    metric("loss.delivered", "events", "hlisa-sim"),
    metric("loss.dropped", "events", "hlisa-sim"),
    metric("loss.dropped.late_attach", "events", "hlisa-sim"),
    metric("loss.dropped.dropout_window", "events", "hlisa-sim"),
    metric("loss.dropped.partial_capture", "events", "hlisa-sim"),
    // The strengthened capture channel (`WriteAheadObserver`).
    metric("capture.direct", "events", "hlisa-sim"),
    metric("capture.buffered", "events", "hlisa-sim"),
    metric("capture.replayed", "events", "hlisa-sim"),
    // The capture recorder (`CaptureRecorder`).
    metric("recorder.events", "events", "hlisa-web"),
    metric("recorder.committed", "events", "hlisa-web"),
    metric("recorder.http", "events", "hlisa-web"),
    metric("recorder.steps", "events", "hlisa-web"),
    metric("recorder.detected", "events", "hlisa-web"),
    metric("recorder.visual", "events", "hlisa-web"),
    metric("recorder.completed", "events", "hlisa-web"),
    // Written directly, without a tally.
    metric("events.total", "events", "hlisa-browser"),
    metric("dom.mutations", "mutations", "hlisa-browser"),
    metric("jsom.objects_allocated", "objects", "hlisa-browser"),
    metric("jsom.atoms_interned", "atoms", "hlisa-browser"),
    metric("jsom.shape_transitions", "transitions", "hlisa-browser"),
    metric("jsom.property_gets", "gets", "hlisa-browser"),
    metric("jsom.own_lookups", "lookups", "hlisa-browser"),
];

// Each tallied metric's slot: its position in `METRIC_REGISTRY`. A
// `_KIND` slot is the first of a per-kind run in `FaultKind::ALL` or
// `LossKind::ALL` order; a family total is the sum of its family's other
// slots, rendered by `Tally::value`.
pub const FAULT_INJECTED: usize = 0;
pub const FAULT_INJECTED_KIND: usize = 1;
pub const RETRY_SCHEDULED: usize = 6;
pub const RETRY_BACKOFF_MS_TOTAL: usize = 7;
pub const RETRY_RECOVERED: usize = 8;
pub const RETRY_GAVE_UP: usize = 9;
pub const BREAKER_TRIPPED: usize = 10;
pub const BREAKER_SKIPPED_VISITS: usize = 11;
pub const PLAN_ACTIONS: usize = 12;
pub const PLAN_SAMPLES: usize = 13;
pub const PLAN_KEYS: usize = 14;
pub const PLAN_TICKS: usize = 15;
pub const LOSS_OFFERED: usize = 16;
pub const LOSS_DELIVERED: usize = 17;
pub const LOSS_DROPPED: usize = 18;
pub const LOSS_DROPPED_KIND: usize = 19;
pub const CAPTURE_DIRECT: usize = 22;
pub const CAPTURE_BUFFERED: usize = 23;
pub const CAPTURE_REPLAYED: usize = 24;
pub const RECORDER_EVENTS: usize = 25;
pub const RECORDER_COMMITTED: usize = 26;
pub const RECORDER_HTTP: usize = 27;
pub const RECORDER_STEPS: usize = 28;
pub const RECORDER_DETECTED: usize = 29;
pub const RECORDER_VISUAL: usize = 30;
pub const RECORDER_COMPLETED: usize = 31;
pub const TALLIED: usize = 32;

/// The slots a `FaultMonitor` counts: `fault.*`, `retry.*` and `breaker.*`.
pub type FaultSlots = Tally<FAULT_INJECTED, 12>;
/// The planner stage's `plan.*` slots.
pub type PlanSlots = Tally<PLAN_ACTIONS, 4>;
/// The slots a `LossyObserver` counts: `loss.*`.
pub type LossSlots = Tally<LOSS_OFFERED, 6>;
/// The slots a `WriteAheadObserver` counts: `capture.*`.
pub type CaptureSlots = Tally<CAPTURE_DIRECT, 3>;
/// The slots a `CaptureRecorder` counts: `recorder.*`.
pub type RecorderSlots = Tally<RECORDER_EVENTS, 7>;

/// Family totals: each renders as the sum of its parts, and nothing adds
/// to it directly.
const TOTALS: [(usize, Range<usize>); 3] = [
    (FAULT_INJECTED, FAULT_INJECTED_KIND..RETRY_SCHEDULED),
    (LOSS_DROPPED, LOSS_DROPPED_KIND..CAPTURE_DIRECT),
    (RECORDER_EVENTS, RECORDER_COMMITTED..TALLIED),
];

/// One count per registry slot in `FIRST..FIRST + LEN`, by default every
/// tallied slot. Stages and observers add into slots, a tally
/// [`absorb`](Self::absorb)s the slots it shares with another, so tallies
/// of any split of the same events absorb into the same totals, and
/// [`render_into`](Self::render_into) is the one place a slot becomes a
/// named counter. An observer holds only its family's slots
/// ([`FaultSlots`] and the like): it is built per visit, and a
/// whole-registry array measurably slowed captured visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally<const FIRST: usize = 0, const LEN: usize = TALLIED>([u64; LEN]);

impl<const FIRST: usize, const LEN: usize> Default for Tally<FIRST, LEN> {
    fn default() -> Self {
        Self([0; LEN])
    }
}

impl<const FIRST: usize, const LEN: usize> Tally<FIRST, LEN> {
    /// The registry slots this tally holds.
    pub const SLOTS: Range<usize> = FIRST..FIRST + LEN;

    /// Adds `n` to `slot`.
    pub fn add(&mut self, slot: usize, n: u64) {
        self.0[slot - FIRST] += n;
    }

    /// The value `slot` renders with: the sum of its parts for a family
    /// total, the slot's own count otherwise.
    pub fn value(&self, slot: usize) -> u64 {
        match TOTALS.iter().find(|(total, _)| *total == slot) {
            Some((_, parts)) => parts.clone().map(|part| self.0[part - FIRST]).sum(),
            None => self.0[slot - FIRST],
        }
    }

    /// Adds `other`'s counts of the slots both tallies hold to these.
    pub fn absorb<const F: usize, const L: usize>(&mut self, other: &Tally<F, L>) {
        for slot in FIRST.max(F)..(FIRST + LEN).min(F + L) {
            self.0[slot - FIRST] += other.0[slot - F];
        }
    }

    /// Renders `slots` into `counters` in registry order, skipping zero
    /// values, except that the backoff total exists exactly when a retry
    /// was scheduled, even if every backoff rounded to 0 ms.
    pub fn render_into(&self, slots: Range<usize>, counters: &mut CounterSet) {
        for slot in slots {
            let value = self.value(slot);
            let backoff = slot == RETRY_BACKOFF_MS_TOTAL && self.value(RETRY_SCHEDULED) > 0;
            if value > 0 || backoff {
                counters.add(METRIC_REGISTRY[slot].name, value);
            }
        }
    }
}

/// Looks up a registry entry by name.
pub fn metric_info(name: &str) -> Option<&'static MetricInfo> {
    METRIC_REGISTRY.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, LossKind};

    #[test]
    fn names_are_unique_and_documented() {
        for (i, m) in METRIC_REGISTRY.iter().enumerate() {
            assert!(
                !METRIC_REGISTRY[..i].iter().any(|p| p.name == m.name),
                "duplicate metric {}",
                m.name
            );
            assert!(!m.unit.is_empty() && !m.owner.is_empty(), "{}", m.name);
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "{} is not a lowercase dotted name",
                m.name
            );
        }
    }

    #[test]
    fn families_partition_the_tallied_slots() {
        let families = [
            FaultSlots::SLOTS,
            PlanSlots::SLOTS,
            LossSlots::SLOTS,
            CaptureSlots::SLOTS,
            RecorderSlots::SLOTS,
        ];
        assert_eq!(families[0].start, 0);
        for w in families.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(families[4].end, TALLIED);
        let prefixes = [&["fault", "retry", "breaker"][..], &["plan"], &["loss"]];
        let prefixes = prefixes
            .into_iter()
            .chain([&["capture"][..], &["recorder"]]);
        for (family, prefixes) in families.into_iter().zip(prefixes) {
            for slot in family {
                let name = METRIC_REGISTRY[slot].name;
                assert!(
                    prefixes.contains(&name.split('.').next().unwrap_or("")),
                    "{name}"
                );
            }
        }
    }

    /// A kind's variant name in snake case.
    fn snake(kind: impl std::fmt::Debug) -> String {
        let mut out = String::new();
        for c in format!("{kind:?}").chars() {
            if c.is_ascii_uppercase() && !out.is_empty() {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        }
        out
    }

    #[test]
    fn per_kind_slots_follow_the_kind_order() {
        for kind in FaultKind::ALL {
            let name = METRIC_REGISTRY[FAULT_INJECTED_KIND + kind.index()].name;
            assert_eq!(name, format!("fault.injected.{}", snake(kind)));
        }
        for kind in LossKind::ALL {
            let name = METRIC_REGISTRY[LOSS_DROPPED_KIND + kind.index()].name;
            assert_eq!(name, format!("loss.dropped.{}", kind.name()));
            assert_eq!(kind.name(), snake(kind));
        }
    }

    #[test]
    fn totals_and_companions_render_once() {
        let mut t: Tally = Tally::default();
        t.add(LOSS_DROPPED_KIND + 2, 3);
        t.add(LOSS_DROPPED_KIND, 1);
        t.add(RETRY_SCHEDULED, 1);
        assert_eq!(t.value(LOSS_DROPPED), 4);
        let mut c = CounterSet::new();
        t.render_into(FaultSlots::SLOTS, &mut c);
        t.render_into(LossSlots::SLOTS, &mut c);
        // A family tally absorbs just its own slots.
        let mut loss = LossSlots::default();
        loss.absorb(&t);
        assert_eq!(loss.value(LOSS_DROPPED), 4);
        let mut whole: Tally = Tally::default();
        whole.absorb(&loss);
        whole.add(RETRY_SCHEDULED, 1);
        assert_eq!(whole, t);
        let names: Vec<&str> = c.entries().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "retry.scheduled",
                "retry.backoff_ms_total",
                "loss.dropped",
                "loss.dropped.late_attach",
                "loss.dropped.partial_capture"
            ]
        );
        assert_eq!(c.get("retry.backoff_ms_total"), Some(0));
    }
}
