//! Lazy sharded population generation.
//!
//! `generate_population` materialises the whole `Vec<Site>` before any
//! visit happens — fine at the paper's 1,000 sites, prohibitive at the
//! 100K–1M scale the campaign engine targets. [`PopulationShards`] splits
//! the population into fixed-size shards any of which can be materialised
//! independently, holding only bookkeeping (one RNG snapshot and a role
//! list per shard) between materialisations.
//!
//! **Why snapshots, not re-seeded forks.** The obvious sharding — fork the
//! seed tree per shard (`derive_seed(seed, "shard", k)`) — would mint a
//! fresh bitstream per shard and change every site byte relative to the
//! eager path, breaking the campaign golden hashes and every
//! population-sensitive statistical test. Instead the constructor runs a
//! cheap *skeleton pass* over the one canonical `"population"` stream:
//! it performs exactly the draws the eager generator performs (via the
//! same shared helpers), discards the values, and clones the 32-byte RNG
//! state at each shard boundary. Materialising shard `k` then replays the
//! eager generator's own draws from that snapshot — bit-identical by
//! construction, zero extra draws, no new stream name to register.
//!
//! The role deal (shuffle + cursor) is inherently global — it permutes all
//! site indices — so the constructor buckets each dealt `(index, role)`
//! pair into its shard once, up front. Roles are `Copy` and rare
//! (config-bounded counts), so the buckets stay tiny.

use crate::population::{
    apply_role, deal_roles, draw_site_attrs, materialise_site, PopulationConfig, SiteRole,
};
use crate::site::Site;
use hlisa_sim::SimContext;
use rand::rngs::SmallRng;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default shard size: big enough to amortise per-shard overhead, small
/// enough that a worker's resident set stays a few hundred sites.
pub const DEFAULT_SHARD_SIZE: usize = 256;

/// Estimated heap bytes of a materialised site slice (struct + domain
/// string) — the peak-RSS proxy the scaling benchmark reports.
pub fn sites_bytes(sites: &[Site]) -> usize {
    sites
        .iter()
        .map(|s| std::mem::size_of::<Site>() + s.domain.len())
        .sum()
}

/// A lazily materialisable sharding of one population.
///
/// Shard-generated sites are bit-identical to the corresponding slice of
/// [`crate::generate_population`]'s output, including role assignment and
/// scenario deals (differential-tested, plus a proptest over arbitrary
/// shard sizes, site counts, and scenario mixes).
#[derive(Debug)]
pub struct PopulationShards {
    config: PopulationConfig,
    shard_size: usize,
    /// `"population"` stream state at the first draw of each shard.
    entry_rngs: Vec<SmallRng>,
    /// Per-shard dealt roles as `(offset within shard, role)`.
    roles: Vec<Vec<(u32, SiteRole)>>,
    /// Shards currently materialised through [`Self::with_shard`].
    resident: AtomicUsize,
    /// High-water mark of `resident` — proves laziness under parallelism.
    peak_resident: AtomicUsize,
}

impl PopulationShards {
    /// Shards `config`'s population at [`DEFAULT_SHARD_SIZE`].
    pub fn new(config: &PopulationConfig) -> Self {
        Self::with_shard_size(config, DEFAULT_SHARD_SIZE)
    }

    /// Shards `config`'s population into shards of `shard_size` sites
    /// (clamped to ≥ 1; the last shard may be shorter).
    pub fn with_shard_size(config: &PopulationConfig, shard_size: usize) -> Self {
        let shard_size = shard_size.max(1);
        let mut ctx = SimContext::new(config.seed);
        let rng = ctx.stream("population");

        // Skeleton pass: the eager generator's exact draws, values
        // discarded, RNG state snapshotted at each shard boundary. No
        // `Site` (and in particular no domain `String`) is built here.
        let n_shards = config.n_sites.div_ceil(shard_size);
        let mut entry_rngs = Vec::with_capacity(n_shards);
        for i in 0..config.n_sites {
            if i % shard_size == 0 {
                entry_rngs.push(rng.clone());
            }
            let _ = draw_site_attrs(config, rng);
        }

        // The global shuffle + deal, bucketed per shard.
        let mut roles: Vec<Vec<(u32, SiteRole)>> = vec![Vec::new(); n_shards];
        deal_roles(config, rng, |i, role| {
            roles[i / shard_size].push(((i % shard_size) as u32, role));
        });

        PopulationShards {
            config: config.clone(),
            shard_size,
            entry_rngs,
            roles,
            resident: AtomicUsize::new(0),
            peak_resident: AtomicUsize::new(0),
        }
    }

    /// The sharded config.
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }

    /// Total sites across all shards.
    pub fn n_sites(&self) -> usize {
        self.config.n_sites
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.entry_rngs.len()
    }

    /// Sites per shard (the last shard may hold fewer).
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// The site-index range shard `k` covers.
    pub fn shard_range(&self, k: usize) -> Range<usize> {
        let lo = k * self.shard_size;
        let hi = (lo + self.shard_size).min(self.config.n_sites);
        lo..hi
    }

    /// Materialises shard `k`: bit-identical to
    /// `generate_population(config)[shard_range(k)]`.
    pub fn generate_shard(&self, k: usize) -> Vec<Site> {
        let range = self.shard_range(k);
        let mut rng = self.entry_rngs[k].clone();
        let config = &self.config;
        let mut sites: Vec<Site> = range
            .map(|i| {
                let attrs = draw_site_attrs(config, &mut rng);
                materialise_site(config, i, attrs)
            })
            .collect();
        for &(offset, role) in &self.roles[k] {
            apply_role(&mut sites[offset as usize], role);
        }
        sites
    }

    /// Runs `f` over shard `k`'s sites (`f(first site index, sites)`),
    /// materialising them only for the duration of the call. Maintains the
    /// residency gauges so callers can *prove* at most one shard per
    /// worker is live at a time.
    pub fn with_shard<T>(&self, k: usize, f: impl FnOnce(usize, &[Site]) -> T) -> T {
        let live = self.resident.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_resident.fetch_max(live, Ordering::SeqCst);
        let sites = self.generate_shard(k);
        let out = f(self.shard_range(k).start, &sites);
        drop(sites);
        self.resident.fetch_sub(1, Ordering::SeqCst);
        out
    }

    /// Shards currently materialised via [`Self::with_shard`].
    // lint: allow(unread-pub-item) test reference: the lazy-campaign tests of hlisa-crawler check every shard is released
    pub fn resident_shards(&self) -> usize {
        self.resident.load(Ordering::SeqCst)
    }

    /// High-water mark of concurrently materialised shards.
    pub fn peak_resident_shards(&self) -> usize {
        self.peak_resident.load(Ordering::SeqCst)
    }

    /// Bytes of standing bookkeeping (RNG snapshots + role buckets) — what
    /// the lazy layer holds *instead of* the full population.
    pub fn bookkeeping_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.entry_rngs.len() * std::mem::size_of::<SmallRng>()
            + self
                .roles
                .iter()
                .map(|bucket| bucket.len() * std::mem::size_of::<(u32, SiteRole)>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::ScenarioMix;
    use crate::population::generate_population;

    fn scenario_config() -> PopulationConfig {
        PopulationConfig {
            n_sites: 333,
            scenarios: ScenarioMix {
                cookie_banner: 5,
                lazy_content: 4,
                spa_mutation: 3,
            },
            ..PopulationConfig::default()
        }
    }

    #[test]
    fn shards_reassemble_eager_population_bit_for_bit() {
        for cfg in [PopulationConfig::default(), scenario_config()] {
            let eager = generate_population(&cfg);
            for shard_size in [1usize, 7, 64, 256, 1_000, 5_000] {
                let shards = PopulationShards::with_shard_size(&cfg, shard_size);
                let lazy: Vec<_> = (0..shards.n_shards())
                    .flat_map(|k| shards.generate_shard(k))
                    .collect();
                assert_eq!(lazy, eager, "shard_size {shard_size}");
            }
        }
    }

    #[test]
    fn shards_generate_out_of_order_and_independently() {
        let cfg = scenario_config();
        let eager = generate_population(&cfg);
        let shards = PopulationShards::with_shard_size(&cfg, 50);
        // Walk shards back to front; each must still match its slice.
        for k in (0..shards.n_shards()).rev() {
            let range = shards.shard_range(k);
            assert_eq!(shards.generate_shard(k), eager[range], "shard {k}");
        }
        // Re-generating a shard is idempotent (entry state is cloned).
        assert_eq!(shards.generate_shard(2), shards.generate_shard(2));
    }

    #[test]
    fn shard_ranges_partition_the_population() {
        let cfg = PopulationConfig {
            n_sites: 1_001,
            ..PopulationConfig::default()
        };
        let shards = PopulationShards::with_shard_size(&cfg, 100);
        assert_eq!(shards.n_shards(), 11);
        let mut next = 0;
        for k in 0..shards.n_shards() {
            let r = shards.shard_range(k);
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, 1_001);
        assert_eq!(shards.shard_range(10).len(), 1);
    }

    #[test]
    fn residency_gauges_track_materialised_shards() {
        let shards = PopulationShards::with_shard_size(&PopulationConfig::default(), 100);
        assert_eq!(shards.peak_resident_shards(), 0);
        shards.with_shard(3, |base, sites| {
            assert_eq!(base, 300);
            assert_eq!(sites.len(), 100);
            assert_eq!(shards.resident_shards(), 1);
            // Nesting (never done by the engine, but legal) peaks at 2.
            shards.with_shard(4, |_, _| {
                assert_eq!(shards.resident_shards(), 2);
            });
        });
        assert_eq!(shards.resident_shards(), 0);
        assert_eq!(shards.peak_resident_shards(), 2);
    }

    #[test]
    fn bookkeeping_is_small_relative_to_the_population() {
        let cfg = PopulationConfig {
            n_sites: 10_000,
            ..PopulationConfig::default()
        };
        let shards = PopulationShards::new(&cfg);
        let eager = generate_population(&cfg);
        let full = sites_bytes(&eager);
        let standing = shards.bookkeeping_bytes();
        assert!(
            standing * 10 < full,
            "bookkeeping {standing}B not small vs population {full}B"
        );
    }

    #[test]
    fn degenerate_shard_sizes_are_clamped() {
        let cfg = PopulationConfig {
            n_sites: 5,
            ..PopulationConfig::default()
        };
        let shards = PopulationShards::with_shard_size(&cfg, 0);
        assert_eq!(shards.shard_size(), 1);
        assert_eq!(shards.n_shards(), 5);
        let lazy: Vec<_> = (0..5).flat_map(|k| shards.generate_shard(k)).collect();
        assert_eq!(lazy, generate_population(&cfg));
    }
}
