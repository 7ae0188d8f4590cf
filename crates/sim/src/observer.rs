//! Pluggable observation: event sinks with counter metrics.

/// A sink subscribed to a simulation event stream.
///
/// The chaos engine's [`FaultMonitor`](crate::FaultMonitor) counts
/// injected faults through it, and the capture study's channels are
/// observers: `hlisa-web`'s `CaptureRecorder` keeps a visit's capture
/// events, and [`LossyObserver`](crate::LossyObserver) and
/// [`WriteAheadObserver`](crate::WriteAheadObserver) wrap one to model a
/// lossy and a strengthened instrumentation channel.
///
/// The trait is generic over the event type so that event-producing
/// crates can define observers over their own types without this crate
/// depending on them.
pub trait Observer<E>: Send {
    /// Called for every dispatched event, with the observable timestamp.
    fn on_event(&mut self, t_ms: f64, event: &E);

    /// Monotone counters describing what this observer has seen, as
    /// `(metric name, count)` pairs. Empty by default.
    fn counters(&self) -> CounterSet {
        CounterSet::default()
    }
}

/// An ordered set of named counters reported by an [`Observer`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSet {
    entries: Vec<(String, u64)>,
}

impl CounterSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `count` to `name`, creating the counter at zero first.
    pub fn add(&mut self, name: &str, count: u64) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, c)) => *c += count,
            None => self.entries.push((name.to_string(), count)),
        }
    }

    /// The value of one counter, or `None` if it never fired.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
    }

    /// All counters in insertion order.
    pub fn entries(&self) -> &[(String, u64)] {
        &self.entries
    }

    /// Merges another set into this one, summing shared names.
    pub fn merge(&mut self, other: &CounterSet) {
        for (name, count) in &other.entries {
            self.add(name, *count);
        }
    }

    /// True when no counter has been touched.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A copy with entries in lexicographic name order — the canonical
    /// form for comparing counter sets whose insertion order depends on
    /// scheduling (e.g. merges of per-worker monitors).
    pub fn sorted(&self) -> CounterSet {
        let mut entries = self.entries.clone();
        entries.sort();
        CounterSet { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counting {
        seen: u64,
    }

    impl Observer<u32> for Counting {
        fn on_event(&mut self, _t_ms: f64, _event: &u32) {
            self.seen += 1;
        }

        fn counters(&self) -> CounterSet {
            let mut c = CounterSet::new();
            c.add("events", self.seen);
            c
        }
    }

    #[test]
    fn observer_counts_events() {
        let mut o = Counting { seen: 0 };
        o.on_event(1.0, &10);
        o.on_event(2.0, &20);
        assert_eq!(o.counters().get("events"), Some(2));
    }

    #[test]
    fn counter_sets_merge_by_name() {
        let mut a = CounterSet::new();
        a.add("x", 2);
        a.add("y", 1);
        let mut b = CounterSet::new();
        b.add("x", 3);
        b.add("z", 7);
        a.merge(&b);
        assert_eq!(a.get("x"), Some(5));
        assert_eq!(a.get("y"), Some(1));
        assert_eq!(a.get("z"), Some(7));
        assert_eq!(a.entries().len(), 3);
        assert!(a.get("missing").is_none());
    }

    #[test]
    fn boxed_observers_are_object_safe() {
        let mut observers: Vec<Box<dyn Observer<u32>>> = vec![Box::new(Counting { seen: 0 })];
        for o in &mut observers {
            o.on_event(0.0, &1);
        }
        assert_eq!(observers[0].counters().get("events"), Some(1));
    }
}
