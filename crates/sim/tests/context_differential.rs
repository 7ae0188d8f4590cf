//! Differential property tests for `SimContext`'s allocation-free paths.
//!
//! * Streams: a context's inline slots and spill list must hand out, for
//!   any sequence of registered names with interleaved draws and clones
//!   taken mid-sequence, exactly the draws of a reference that seeds each
//!   name's generator on its own with `rng_from_seed(derive_seed(seed,
//!   name, 0))`. The registry holds more names than fit inline, so the
//!   sequences cross into the spill list.
//! * Visit forks: the `v`-th context of `visit_forks(domain, visits)` must
//!   be `fork_visit(domain, v)` — same seed, same first draws — for visit
//!   counts on either side of a lane batch and for any domain, empty and
//!   non-ASCII ones included.

use hlisa_sim::{Rng, SimContext, SmallRng, VisitForks, STREAM_REGISTRY};
use hlisa_stats::rngutil::{derive_seed, rng_from_seed};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The reference model: one independently seeded generator per name,
/// created on first use.
#[derive(Clone)]
struct Reference {
    seed: u64,
    streams: BTreeMap<&'static str, SmallRng>,
}

impl Reference {
    fn draw(&mut self, name: &'static str) -> u64 {
        let seed = self.seed;
        self.streams
            .entry(name)
            .or_insert_with(|| rng_from_seed(derive_seed(seed, name, 0)))
            .gen()
    }
}

#[test]
fn the_registry_outnumbers_the_inline_slots() {
    assert!(STREAM_REGISTRY.len() > 2 * SimContext::INLINE_STREAMS);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streams_match_independent_reference_generators(
        seed in 0u64..u64::MAX,
        ops in proptest::collection::vec((0usize..64, 0usize..64, 0u8..8), 0..160),
    ) {
        // Each op picks a live (context, reference) pair and a registered
        // name; op kind 0 clones the pair, any other draws from the name.
        let mut pairs = vec![(
            SimContext::new(seed),
            Reference { seed, streams: BTreeMap::new() },
        )];
        for (pick, name, kind) in ops {
            let pick = pick % pairs.len();
            if kind == 0 {
                pairs.push(pairs[pick].clone());
                continue;
            }
            let (ctx, reference) = &mut pairs[pick];
            let name = STREAM_REGISTRY[name % STREAM_REGISTRY.len()].name;
            prop_assert_eq!(ctx.stream(name).gen::<u64>(), reference.draw(name), "{}", name);
        }
        // Every pair, clone or original, still agrees on every name.
        for (ctx, reference) in &mut pairs {
            for info in STREAM_REGISTRY {
                prop_assert_eq!(ctx.stream(info.name).gen::<u64>(), reference.draw(info.name));
            }
        }
    }

    #[test]
    fn visit_forks_match_fork_visit(
        seed in 0u64..u64::MAX,
        visits in 0usize..5,
        domain in "[a-z0-9.\u{e9}-\u{f6}\u{4e00}-\u{4e0f}-]{0,24}",
    ) {
        let parent = SimContext::new(seed);
        let visits = [1, 7, 8, 9, 17][visits];
        let forks = parent.visit_forks(&domain, visits);
        prop_assert_eq!(forks.len(), visits);
        let mut seen = 0;
        for (v, mut batched) in forks.enumerate() {
            let mut scalar = parent.fork_visit(&domain, v as u64);
            prop_assert_eq!(batched.seed(), scalar.seed(), "visit {}", v);
            prop_assert_eq!(
                batched.stream("visit").gen::<u64>(),
                scalar.stream("visit").gen::<u64>()
            );
            prop_assert_eq!(batched.now_ms(), 0.0);
            seen += 1;
        }
        prop_assert_eq!(seen, visits);
    }
}

#[test]
fn visit_forks_cover_the_empty_domain_and_no_visits() {
    let parent = SimContext::new(0xfeed);
    assert_eq!(parent.visit_forks("", 0).count(), 0);
    for (v, fork) in parent.visit_forks("", VisitForks::LANES + 1).enumerate() {
        assert_eq!(fork.seed(), parent.fork_visit("", v as u64).seed());
    }
}
