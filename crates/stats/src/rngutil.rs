//! Deterministic RNG helpers.
//!
//! Every experiment in the workspace takes an explicit `u64` seed so that
//! tables and figures regenerate byte-identically. This module centralises
//! seed derivation so that independent subsystems (crawler machines, browser
//! instances, interaction agents) draw from decorrelated streams.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Creates a deterministic RNG from a seed.
///
/// This is the sanctioned definition site (the workspace linter exempts
/// it by path); callers outside `hlisa-sim` should go through a
/// `SimContext` stream.
pub fn rng_from_seed(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Derives a sub-seed for a named component.
///
/// Mixing uses the SplitMix64 finaliser, which decorrelates consecutive
/// indices well enough for simulation purposes.
pub fn derive_seed(seed: u64, label: &str, index: u64) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index.wrapping_add(1));
    for b in label.as_bytes() {
        h = h.wrapping_add(u64::from(*b));
        h = splitmix64(h);
    }
    splitmix64(h)
}

/// [`derive_seed`] for the `N` consecutive indices `first_index ..
/// first_index + N`, bit-identical to `N` scalar calls.
///
/// A scalar derivation is one serial chain of `label.len() + 1` SplitMix
/// rounds, each waiting on the previous multiply. Here the `N` chains run
/// interleaved, byte by byte, so their multiplies overlap; a caller that
/// needs the seeds of successive indices pays about one chain's latency
/// for all `N`.
pub fn derive_seed_lanes<const N: usize>(seed: u64, label: &str, first_index: u64) -> [u64; N] {
    let mut h: [u64; N] = std::array::from_fn(|lane| {
        let index = first_index.wrapping_add(lane as u64);
        seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index.wrapping_add(1))
    });
    for b in label.as_bytes() {
        for lane in &mut h {
            *lane = splitmix64(lane.wrapping_add(u64::from(*b)));
        }
    }
    h.map(splitmix64)
}

/// SplitMix64 finaliser; a cheap, well-distributed 64-bit mixer.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = rng_from_seed(42);
        let mut b = rng_from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn derive_seed_differs_by_label() {
        assert_ne!(derive_seed(1, "mouse", 0), derive_seed(1, "keys", 0));
    }

    #[test]
    fn derive_seed_differs_by_index() {
        assert_ne!(derive_seed(1, "mouse", 0), derive_seed(1, "mouse", 1));
    }

    #[test]
    fn derive_seed_is_deterministic() {
        assert_eq!(derive_seed(7, "crawl", 3), derive_seed(7, "crawl", 3));
    }

    #[test]
    fn lanes_match_scalar_derivations() {
        for (seed, label, first) in [
            (0u64, "loss-partial-capture", 0u64),
            (0xfeed, "loss-partial-capture", 13),
            (u64::MAX, "", u64::MAX - 3),
            (7, "crawl", 1 << 40),
        ] {
            let lanes = derive_seed_lanes::<8>(seed, label, first);
            for (lane, h) in lanes.iter().enumerate() {
                let index = first.wrapping_add(lane as u64);
                assert_eq!(*h, derive_seed(seed, label, index), "{label} lane {lane}");
            }
        }
    }

    #[test]
    fn splitmix_is_not_identity() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), 1);
    }
}
