//! Population generator: a 1,000-site random sample of a Tranco-style
//! top-10K list, with detector prevalence calibrated to §3.2's findings.

use crate::dynamics::{ScenarioKind, ScenarioMix};
use crate::site::{DetectionMethod, Reaction, Site, SiteDetector};
use hlisa_sim::SimContext;
use hlisa_stats::rngutil::derive_seed;
use rand::seq::SliceRandom;
use rand::Rng;
use std::ops::Range;

/// First-party requests per generated site, drawn uniformly. A visit
/// record keeps its first-party codes inline up to this range's maximum
/// ([`FIRST_PARTY_INLINE`](crate::codes::FIRST_PARTY_INLINE)).
pub const FIRST_PARTY_REQUESTS: Range<u8> = 6..18;

/// Third-party requests per generated site, drawn uniformly. A visit
/// record keeps its third-party codes inline up to this range's maximum
/// ([`THIRD_PARTY_INLINE`](crate::codes::THIRD_PARTY_INLINE)).
pub const THIRD_PARTY_REQUESTS: Range<u8> = 10..45;

/// Calibration knobs (defaults reproduce the paper's environment).
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationConfig {
    /// Seed for the whole population.
    pub seed: u64,
    /// Sample size (paper: 1,000 of the top 10K).
    pub n_sites: usize,
    /// Sites that never answer (paper reached 921/1,000).
    pub unreachable_sites: usize,
    /// Visible detectors keyed on `navigator.webdriver`:
    /// (block pages, CAPTCHAs, hide-all-ads, freeze-video).
    pub webdriver_visible: (usize, usize, usize, usize),
    /// Spoof-resistant template-attack detectors:
    /// (block pages, hide-all-ads, reduce-ads).
    pub template_visible: (usize, usize, usize),
    /// Silent HTTP-level reactions keyed on `navigator.webdriver`:
    /// (403 responders, 503 responders).
    pub silent_http: (usize, usize),
    /// Sites that break under JS-level spoofing (paper: one deformed
    /// layout + one ever-loading video).
    pub breakage_sites: usize,
    /// Mean per-visit transient failure probability.
    pub mean_flakiness: f64,
    /// How many sites exhibit each dynamic-page scenario (cookie
    /// banners, lazy content, SPA re-renders). All-zero by default:
    /// assignment then touches no site and draws nothing, so default
    /// populations are bit-identical to the pre-scenario model.
    pub scenarios: ScenarioMix,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        Self {
            seed: 0x7261_6e63, // "ranc"
            n_sites: 1_000,
            unreachable_sites: 79,
            // 8 blocking/CAPTCHA sites in col (1): 5 blocks + 2 captchas
            // keyed on webdriver, +1 spoof-resistant template blocker.
            webdriver_visible: (5, 2, 4, 1),
            // Col (2) keeps 1 no-ads and 2 less-ads sites + 1 blocker:
            // these survive spoofing because they template-attack.
            template_visible: (1, 1, 2),
            silent_http: (9, 4),
            breakage_sites: 2,
            mean_flakiness: 0.019,
            scenarios: ScenarioMix::default(),
        }
    }
}

/// The per-site drawn attributes, in exact draw order. Factored out so the
/// eager generator and the lazy shard layer (`shards.rs`) perform the one
/// canonical draw schedule — any divergence would split the `"population"`
/// stream's bitstream between the two paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SiteAttrs {
    pub(crate) ad_slots: u8,
    pub(crate) has_video: bool,
    pub(crate) flaky_visit_prob: f64,
    pub(crate) first_party_requests: u8,
    pub(crate) third_party_requests: u8,
}

/// Draws one site's attributes off `rng` — five draws, fixed order.
pub(crate) fn draw_site_attrs<R: Rng + ?Sized>(
    config: &PopulationConfig,
    rng: &mut R,
) -> SiteAttrs {
    SiteAttrs {
        ad_slots: rng.gen_range(0..6),
        has_video: rng.gen_bool(0.18),
        flaky_visit_prob: (rng.gen_range(0.0..2.0) * config.mean_flakiness).clamp(0.0, 0.5),
        first_party_requests: rng.gen_range(FIRST_PARTY_REQUESTS),
        third_party_requests: rng.gen_range(THIRD_PARTY_REQUESTS),
    }
}

/// Builds site `i` from its drawn attributes. Consumes no randomness: rank
/// is hash-derived from `(seed, i)` and the domain is positional, so a
/// shard can materialise its sites knowing only its RNG entry state.
pub(crate) fn materialise_site(config: &PopulationConfig, i: usize, attrs: SiteAttrs) -> Site {
    let rank_seed = derive_seed(config.seed, "rank", i as u64);
    Site {
        rank: (rank_seed % 10_000) as u32 + 1,
        domain: format!("site{:04}.example", i),
        detector: None,
        ad_slots: attrs.ad_slots,
        has_video: attrs.has_video,
        breaks_under_spoofing: false,
        unreachable: false,
        flaky_visit_prob: attrs.flaky_visit_prob,
        first_party_requests: attrs.first_party_requests,
        third_party_requests: attrs.third_party_requests,
        scenario: None,
    }
}

/// One special role dealt to a site off the shuffled cursor. `Copy` so the
/// shard layer can bucket assignments per shard without cloning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SiteRole {
    Unreachable,
    Detector(SiteDetector),
    Breakage { has_video: bool },
    Scenario(ScenarioKind),
}

/// Applies a dealt role to a site — the single place the deploy side
/// effects (minimum ad slots for ad reactions, forced video for freeze)
/// live, shared by the eager and shard paths.
pub(crate) fn apply_role(site: &mut Site, role: SiteRole) {
    match role {
        SiteRole::Unreachable => site.unreachable = true,
        SiteRole::Detector(d) => {
            site.detector = Some(d);
            if d.reaction == Reaction::HideAllAds || d.reaction == Reaction::ReduceAds {
                site.ad_slots = site.ad_slots.max(2);
            }
            if d.reaction == Reaction::FreezeVideo {
                site.has_video = true;
            }
        }
        SiteRole::Breakage { has_video } => {
            site.breaks_under_spoofing = true;
            site.has_video = has_video;
        }
        SiteRole::Scenario(kind) => site.scenario = Some(kind),
    }
}

/// Shuffles the site indices and deals the special roles in the canonical
/// order, reporting each `(site index, role)` pair to `assign`. All
/// randomness is the one Fisher–Yates shuffle; the deals themselves draw
/// nothing, so an all-zero scenario mix still changes no draw.
pub(crate) fn deal_roles<R: Rng + ?Sized>(
    config: &PopulationConfig,
    rng: &mut R,
    mut assign: impl FnMut(usize, SiteRole),
) {
    let mut idx: Vec<usize> = (0..config.n_sites).collect();
    idx.shuffle(rng);
    let mut cursor = idx.into_iter();

    for i in cursor.by_ref().take(config.unreachable_sites) {
        assign(i, SiteRole::Unreachable);
    }

    let detector = |method, reaction| SiteRole::Detector(SiteDetector { method, reaction });
    let (wd_block, wd_captcha, wd_noads, wd_video) = config.webdriver_visible;
    let (ta_block, ta_noads, ta_lessads) = config.template_visible;
    let (h403, h503) = config.silent_http;
    let detector_deals = [
        (
            wd_block,
            DetectionMethod::WebdriverFlag,
            Reaction::BlockPage,
        ),
        (
            wd_captcha,
            DetectionMethod::WebdriverFlag,
            Reaction::Captcha,
        ),
        (
            wd_noads,
            DetectionMethod::WebdriverFlag,
            Reaction::HideAllAds,
        ),
        (
            wd_video,
            DetectionMethod::WebdriverFlag,
            Reaction::FreezeVideo,
        ),
        (
            ta_block,
            DetectionMethod::TemplateAttack,
            Reaction::BlockPage,
        ),
        (
            ta_noads,
            DetectionMethod::TemplateAttack,
            Reaction::HideAllAds,
        ),
        (
            ta_lessads,
            DetectionMethod::TemplateAttack,
            Reaction::ReduceAds,
        ),
        (h403, DetectionMethod::WebdriverFlag, Reaction::Http403),
        (h503, DetectionMethod::WebdriverFlag, Reaction::Http503),
    ];
    for (n, method, reaction) in detector_deals {
        for i in cursor.by_ref().take(n) {
            assign(i, detector(method, reaction));
        }
    }

    // The paper saw one deformed layout and one ever-loading video, so the
    // breakage sites alternate video/no-video rather than drawing it.
    for (k, i) in cursor.by_ref().take(config.breakage_sites).enumerate() {
        assign(
            i,
            SiteRole::Breakage {
                has_video: k % 2 == 0,
            },
        );
    }

    // Dynamic-page scenarios come off the same shuffled cursor, so they
    // are disjoint from every special role above and consume no extra
    // randomness — an all-zero mix (the default) changes nothing at all.
    for (kind, count) in [
        (ScenarioKind::CookieBanner, config.scenarios.cookie_banner),
        (ScenarioKind::LazyContent, config.scenarios.lazy_content),
        (ScenarioKind::SpaMutation, config.scenarios.spa_mutation),
    ] {
        for i in cursor.by_ref().take(count) {
            assign(i, SiteRole::Scenario(kind));
        }
    }
}

/// Generates the site population. Deterministic in the config.
///
/// This is the eager reference path: the lazy [`crate::PopulationShards`]
/// layer must reproduce its output bit for bit (differential-tested),
/// shard by shard, without ever holding the whole `Vec<Site>`.
pub fn generate_population(config: &PopulationConfig) -> Vec<Site> {
    let mut ctx = SimContext::new(config.seed);
    let rng = ctx.stream("population");

    // Base sites.
    let mut sites: Vec<Site> = (0..config.n_sites)
        .map(|i| {
            let attrs = draw_site_attrs(config, rng);
            materialise_site(config, i, attrs)
        })
        .collect();

    // Shuffle indices and deal out the special roles disjointly.
    deal_roles(config, rng, |i, role| apply_role(&mut sites[i], role));

    sites
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_counts_match_config() {
        let cfg = PopulationConfig::default();
        let sites = generate_population(&cfg);
        assert_eq!(sites.len(), 1_000);
        assert_eq!(sites.iter().filter(|s| s.unreachable).count(), 79);
        let visible = sites.iter().filter(|s| s.visibly_defends()).count();
        assert_eq!(visible, 5 + 2 + 4 + 1 + 1 + 1 + 2); // 16 sites ≈ 1.7 %
        let silent = sites
            .iter()
            .filter(|s| s.detector.map(|d| !d.reaction.visible()).unwrap_or(false))
            .count();
        assert_eq!(silent, 13);
        assert_eq!(sites.iter().filter(|s| s.breaks_under_spoofing).count(), 2);
    }

    #[test]
    fn special_roles_are_disjoint() {
        let sites = generate_population(&PopulationConfig::default());
        for s in &sites {
            let roles = usize::from(s.unreachable)
                + usize::from(s.detector.is_some())
                + usize::from(s.breaks_under_spoofing);
            assert!(roles <= 1, "site {} has {} roles", s.domain, roles);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = PopulationConfig::default();
        assert_eq!(generate_population(&cfg), generate_population(&cfg));
        let other = PopulationConfig { seed: 1, ..cfg };
        assert_ne!(
            generate_population(&other),
            generate_population(&PopulationConfig::default())
        );
    }

    #[test]
    fn scenario_mix_default_assigns_nothing_and_changes_nothing() {
        let baseline = generate_population(&PopulationConfig::default());
        assert!(baseline.iter().all(|s| s.scenario.is_none()));
        // An explicit all-zero mix is the same population, bit for bit.
        let explicit = PopulationConfig {
            scenarios: ScenarioMix::default(),
            ..PopulationConfig::default()
        };
        assert_eq!(generate_population(&explicit), baseline);
    }

    #[test]
    fn scenario_sites_are_dealt_disjointly_from_special_roles() {
        let cfg = PopulationConfig {
            scenarios: ScenarioMix {
                cookie_banner: 5,
                lazy_content: 4,
                spa_mutation: 3,
            },
            ..PopulationConfig::default()
        };
        let sites = generate_population(&cfg);
        let count = |k: ScenarioKind| sites.iter().filter(|s| s.scenario == Some(k)).count();
        assert_eq!(count(ScenarioKind::CookieBanner), 5);
        assert_eq!(count(ScenarioKind::LazyContent), 4);
        assert_eq!(count(ScenarioKind::SpaMutation), 3);
        for s in sites.iter().filter(|s| s.scenario.is_some()) {
            assert!(
                !s.unreachable && s.detector.is_none() && !s.breaks_under_spoofing,
                "{} holds two roles",
                s.domain
            );
        }
        // The non-scenario part of the population is untouched.
        let baseline = generate_population(&PopulationConfig::default());
        for (a, b) in sites.iter().zip(&baseline) {
            assert_eq!(
                Site {
                    scenario: None,
                    ..a.clone()
                },
                *b
            );
        }
    }

    #[test]
    fn ranks_are_within_top_10k() {
        let sites = generate_population(&PopulationConfig::default());
        assert!(sites.iter().all(|s| (1..=10_000).contains(&s.rank)));
    }

    #[test]
    fn ad_reaction_sites_have_ads_to_hide() {
        let sites = generate_population(&PopulationConfig::default());
        for s in sites.iter().filter(|s| {
            matches!(
                s.detector.map(|d| d.reaction),
                Some(Reaction::HideAllAds) | Some(Reaction::ReduceAds)
            )
        }) {
            assert!(s.ad_slots >= 2);
        }
    }
}
