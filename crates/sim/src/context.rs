//! Named RNG streams with hierarchical forking.

use hlisa_stats::rngutil::{derive_seed, derive_seed_lanes, rng_from_seed};
use rand::rngs::SmallRng;

/// The simulation context threaded through the interaction stack.
///
/// A `SimContext` owns a root seed, its unit of work's simulated time,
/// and a set of lazily created named RNG streams. Each stream's state is derived
/// purely from `(root seed, stream name)`, so the draws a layer sees
/// depend only on its own use of its own stream — never on which other
/// layers ran before it or how work was scheduled across threads. That is
/// the property that makes campaign results independent of parallelism.
#[derive(Debug, Clone)]
pub struct SimContext {
    seed: u64,
    /// Simulated time of this context's unit of work (ms). It starts at 0
    /// and only the visit core writes it ([`SimContext::set_now_ms`]);
    /// nothing else shares or rebinds it.
    now_ms: f64,
    /// The first [`SimContext::INLINE_STREAMS`] streams, in creation
    /// order: a filled prefix, then `None`s.
    inline: [Option<Stream>; SimContext::INLINE_STREAMS],
    /// Streams created after the inline slots filled, in creation order.
    spill: Vec<Stream>,
}

/// A named stream: its registry name and its generator.
type Stream = (&'static str, SmallRng);

impl SimContext {
    /// How many streams a context keeps inline. A plain visit touches one
    /// or two and an interaction plan up to five; only streams past this
    /// many go to a heap-allocated list.
    pub const INLINE_STREAMS: usize = 4;

    /// A fresh context rooted at `seed`, its time at t = 0.
    pub fn new(seed: u64) -> Self {
        SimContext {
            seed,
            now_ms: 0.0,
            inline: Default::default(),
            spill: Vec::new(),
        }
    }

    /// The root seed this context derives every stream from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The context's simulated time (ms).
    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// Moves the context's time to exactly `t_ms`: the visit core keeps
    /// its phases' time in a local and stores the instant it reached.
    ///
    /// # Panics
    /// Panics if `t_ms` is non-finite or earlier than the context's
    /// current time — simulated time is monotone.
    pub fn set_now_ms(&mut self, t_ms: f64) {
        assert!(
            t_ms.is_finite() && t_ms >= self.now_ms,
            "time must advance monotonically, got {t_ms} < {}",
            self.now_ms
        );
        self.now_ms = t_ms;
    }

    /// The named RNG stream for one concern (`"motion"`, `"typing"`, ...).
    ///
    /// Streams are created on first use with a seed derived from the root
    /// seed and the name alone (`derive_seed(seed, name, 0)`), so draw
    /// sequences are insensitive to the creation order of *other* streams.
    /// Names are registry literals (see [`crate::STREAM_REGISTRY`]), so a
    /// stream keeps its name by reference: the first
    /// [`SimContext::INLINE_STREAMS`] streams live in the context itself
    /// and cost no allocation, later ones are appended to a spill list.
    pub fn stream(&mut self, name: &'static str) -> &mut SmallRng {
        let seed = self.seed;
        let create = || (name, rng_from_seed(derive_seed(seed, name, 0)));
        // Slots fill front to back, so the first slot that is free or
        // holds `name` is where `name` lives or goes.
        let slot = self
            .inline
            .iter()
            .position(|slot| slot.as_ref().map_or(true, |(known, _)| *known == name));
        if let Some(i) = slot {
            return &mut self.inline[i].get_or_insert_with(create).1;
        }
        let i = match self.spill.iter().position(|(known, _)| *known == name) {
            Some(i) => i,
            None => {
                self.spill.push(create());
                self.spill.len() - 1
            }
        };
        &mut self.spill[i].1
    }

    /// A child context for an independently seeded unit of work.
    ///
    /// The child's streams derive from `derive_seed(seed, label, index)`
    /// and its time starts fresh at t = 0 — two forks with the same
    /// `(label, index)` are identical however the parent was used.
    pub fn fork(&self, label: &str, index: u64) -> SimContext {
        SimContext::new(derive_seed(self.seed, label, index))
    }

    /// A child context for one visit of one site — the unit the crawler
    /// parallelises over. Deterministic in `(root seed, domain, visit)`.
    pub fn fork_visit(&self, domain: &str, visit_idx: u64) -> SimContext {
        self.fork(domain, visit_idx)
    }

    /// The contexts of a site's visits `0..visits`: the `v`-th item is
    /// [`SimContext::fork_visit`]`(domain, v)`. The seeds are derived
    /// [`VisitForks::LANES`] visits at a time with `derive_seed_lanes`,
    /// whose interleaved hash chains cost about one scalar derivation, so
    /// each batch of visits walks the domain once instead of once each.
    pub fn visit_forks<'a>(&self, domain: &'a str, visits: usize) -> VisitForks<'a> {
        VisitForks {
            seed: self.seed,
            domain,
            next: 0,
            end: visits,
            lanes: [0; VisitForks::LANES],
        }
    }
}

/// The visit contexts of [`SimContext::visit_forks`], in visit order.
#[derive(Debug, Clone)]
pub struct VisitForks<'a> {
    seed: u64,
    domain: &'a str,
    next: usize,
    end: usize,
    /// The seeds of the batch holding `next`, filled on entering it.
    lanes: [u64; VisitForks::LANES],
}

impl VisitForks<'_> {
    /// Visits whose seeds one batch derives.
    pub const LANES: usize = 8;
}

impl Iterator for VisitForks<'_> {
    type Item = SimContext;

    fn next(&mut self) -> Option<SimContext> {
        if self.next >= self.end {
            return None;
        }
        let lane = self.next % Self::LANES;
        if lane == 0 {
            self.lanes = derive_seed_lanes(self.seed, self.domain, self.next as u64);
        }
        self.next += 1;
        Some(SimContext::new(self.lanes[lane]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for VisitForks<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_streams() {
        let mut a = SimContext::new(7);
        let mut b = SimContext::new(7);
        for _ in 0..32 {
            assert_eq!(
                a.stream("motion").gen::<u64>(),
                b.stream("motion").gen::<u64>()
            );
        }
    }

    #[test]
    fn streams_are_insensitive_to_sibling_creation_order() {
        let mut a = SimContext::new(1);
        let mut b = SimContext::new(1);
        // `a` touches two other streams first; `b` goes straight to
        // "typing". Both must see the same "typing" sequence.
        let _ = a.stream("motion").gen::<u64>();
        let _ = a.stream("scroll").gen::<u64>();
        assert_eq!(
            a.stream("typing").gen::<u64>(),
            b.stream("typing").gen::<u64>()
        );
    }

    #[test]
    fn distinct_names_decorrelate() {
        let mut ctx = SimContext::new(3);
        let x = ctx.stream("motion").gen::<u64>();
        let y = ctx.stream("typing").gen::<u64>();
        assert_ne!(x, y);
    }

    #[test]
    fn forks_depend_only_on_label_and_index() {
        let mut parent_a = SimContext::new(11);
        let parent_b = SimContext::new(11);
        // Using the parent must not perturb its forks. ("motion" is the
        // registered stream here; any registered name would do.)
        let _ = parent_a.stream("motion").gen::<u64>();
        let mut fa = parent_a.fork_visit("site0001.example", 3);
        let mut fb = parent_b.fork_visit("site0001.example", 3);
        assert_eq!(
            fa.stream("visit").gen::<u64>(),
            fb.stream("visit").gen::<u64>()
        );

        let mut other = parent_b.fork_visit("site0001.example", 4);
        assert_ne!(
            fa.stream("visit").gen::<u64>(),
            other.stream("visit").gen::<u64>()
        );
    }

    #[test]
    fn fork_clock_starts_fresh() {
        let mut ctx = SimContext::new(5);
        ctx.set_now_ms(500.0);
        let child = ctx.fork("machine", 0);
        assert_eq!(child.now_ms(), 0.0);
    }

    #[test]
    fn set_now_ms_stores_the_instant_exactly() {
        // `from + (to - from)` rounds to a neighbour of `to` for this
        // pair; the visit core stores the instant itself instead.
        let (from, to) = (287_558.909_433_546_53, 846_295.381_952_948_5);
        assert_ne!(from + (to - from), to);
        let mut ctx = SimContext::new(1);
        ctx.set_now_ms(from);
        ctx.set_now_ms(to);
        assert_eq!(ctx.now_ms().to_bits(), to.to_bits());
        ctx.set_now_ms(to);
        assert_eq!(ctx.now_ms(), to);
    }

    #[test]
    #[should_panic(expected = "monotonically")]
    fn set_now_ms_rejects_going_back() {
        let mut ctx = SimContext::new(1);
        ctx.set_now_ms(10.0);
        ctx.set_now_ms(9.5);
    }
}
