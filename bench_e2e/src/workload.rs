//! The four campaign workloads: their inputs, their untraced rounds
//! through the public crawler runners, and their set-up.
//!
//! A run repeats one fixed-size *round* of its workload until the time
//! box is spent. Every round of a run has the same inputs (derived from
//! the run's seed), so every round must fold to the same digest.

use crate::stats::{MachineStats, RoundStats};
use hlisa_crawler::{
    run_chaos_campaign, run_machine_shard_summaries, run_reliability_study, CampaignConfig,
    ChaosConfig,
};
use hlisa_sim::LossPlan;
use hlisa_web::{ClientKind, PopulationConfig, PopulationShards, ScenarioMix};
use std::time::{Duration, Instant};

/// Both crawl machines, with the labels the runners fork their contexts by.
pub const MACHINES: [(ClientKind, &str); 2] = [
    (ClientKind::OpenWpm, "m1"),
    (ClientKind::OpenWpmSpoofed, "m2"),
];

/// Per-visit fault rate of the adverse workload's chaos campaign.
pub const CHAOS_FAULT_RATE: f64 = 0.10;
/// Capture-loss rate of the adverse workload's reliability study.
pub const STUDY_LOSS_RATE: f64 = 0.05;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 2 campaign at paper prevalence, at scale.
    PaperCrawl,
    /// 919 of every 1,000 sites deploy a detector.
    DetectorDense,
    /// Paper prevalence plus 300 dynamic-page scenario sites per 1,000.
    DynamicPages,
    /// A chaos campaign under faults, then a capture-loss reliability study.
    AdverseCrawl,
}

/// A round's size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizing {
    /// Sites per machine (the chaos campaign's sites for `adverse_crawl`).
    pub sites: usize,
    /// Sites of the reliability study (`adverse_crawl` only).
    pub study_sites: usize,
    /// Visits per site per machine.
    pub visits: usize,
    /// Sites per shard (lazy workloads; the eager runners use 256).
    pub shard: usize,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperCrawl,
        Workload::DetectorDense,
        Workload::DynamicPages,
        Workload::AdverseCrawl,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCrawl => "paper_crawl",
            Workload::DetectorDense => "detector_dense",
            Workload::DynamicPages => "dynamic_pages",
            Workload::AdverseCrawl => "adverse_crawl",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's round size: about half a second of work with two
    /// workers on a 2-core host, so a 28 s run holds about fifty rounds.
    pub fn sizing(self) -> Sizing {
        let (sites, study_sites, shard) = match self {
            Workload::PaperCrawl => (48_000, 0, 256),
            Workload::DetectorDense => (4_000, 0, 64),
            Workload::DynamicPages => (1_600, 0, 32),
            Workload::AdverseCrawl => (8_000, 2_400, 256),
        };
        Sizing {
            sites,
            study_sites,
            visits: 8,
            shard,
        }
    }

    /// The workload's population of `n_sites`, its roles scaled from the
    /// per-1,000 counts below.
    pub fn population(self, n_sites: usize, seed: u64) -> PopulationConfig {
        let scale = |per_mille: usize| (per_mille * n_sites + 500) / 1_000;
        let paper = PopulationConfig::default();
        let (webdriver, template, http) = match self {
            // 919 detector sites per 1,000, 349 (38%) of them template
            // attacks, each family split in the paper's proportions.
            Workload::DetectorDense => ((114, 46, 91, 23), (87, 87, 175), (205, 91)),
            _ => (
                paper.webdriver_visible,
                paper.template_visible,
                paper.silent_http,
            ),
        };
        let scenario = match self {
            Workload::DynamicPages => scale(100),
            _ => 0,
        };
        PopulationConfig {
            seed,
            n_sites,
            unreachable_sites: scale(paper.unreachable_sites),
            webdriver_visible: (
                scale(webdriver.0),
                scale(webdriver.1),
                scale(webdriver.2),
                scale(webdriver.3),
            ),
            template_visible: (scale(template.0), scale(template.1), scale(template.2)),
            silent_http: (scale(http.0), scale(http.1)),
            breakage_sites: scale(paper.breakage_sites),
            scenarios: ScenarioMix {
                cookie_banner: scenario,
                lazy_content: scenario,
                spa_mutation: scenario,
            },
            ..paper
        }
    }
}

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Committed digests of the production-size rounds: the default seed and
/// one held-out seed per workload. The digest does not depend on the
/// worker count.
pub const EXPECTED: [(Workload, u64, u64); 8] = [
    (Workload::PaperCrawl, 1, 0x3e4a_b135_2572_5d00),
    (Workload::PaperCrawl, 2, 0xa38b_7733_507a_0d64),
    (Workload::DetectorDense, 1, 0xd328_14dd_e97d_7926),
    (Workload::DetectorDense, 2, 0xf025_933d_0b20_c1f1),
    (Workload::DynamicPages, 1, 0x29e0_e011_fdc0_d51a),
    (Workload::DynamicPages, 2, 0xfa69_fbda_d564_7a1e),
    (Workload::AdverseCrawl, 1, 0x323c_11cf_1977_bb2f),
    (Workload::AdverseCrawl, 2, 0xb2cb_8335_ac11_75e2),
];

/// The committed digest for a run's inputs, if any.
pub fn expected_digest(inputs: &Inputs, seed: u64) -> Option<u64> {
    if inputs.sizing != inputs.workload.sizing() {
        return None;
    }
    EXPECTED
        .iter()
        .find(|(w, s, _)| *w == inputs.workload && *s == seed)
        .map(|(_, _, d)| *d)
}

/// A 64-bit mix of the run seed and a purpose tag (SplitMix64 finaliser),
/// so each generated config gets its own seed.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The generated inputs of one run: everything a round needs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// Round size.
    pub sizing: Sizing,
    /// The campaign (lazy workloads) or chaos campaign (`adverse_crawl`).
    pub campaign: CampaignConfig,
    /// The reliability study's campaign (`adverse_crawl` only).
    pub study: CampaignConfig,
}

impl Inputs {
    /// Generates a run's inputs from its seed.
    pub fn new(workload: Workload, sizing: Sizing, seed: u64, workers: usize) -> Self {
        let config = |sites: usize, tag: u64| CampaignConfig {
            seed: derive(seed, tag),
            population: workload.population(sites, derive(seed, tag + 1)),
            visits_per_site: sizing.visits,
            instances: workers,
            world_cache: true,
            plan_interactions: false,
        };
        Inputs {
            workload,
            sizing,
            campaign: config(sizing.sites, 1),
            study: config(sizing.study_sites, 3),
        }
    }

    /// Whether the round runs through the lazy shard-summary runner.
    pub fn is_lazy(&self) -> bool {
        self.workload != Workload::AdverseCrawl
    }

    /// Visits a round produces across all machines and capture modes:
    /// sites × visits × machines (× 3 capture modes for the study).
    pub fn visits_per_round(&self) -> u64 {
        let s = self.sizing;
        let study = if self.is_lazy() { 0 } else { 3 * s.study_sites };
        ((s.sites + study) * s.visits * MACHINES.len()) as u64
    }

    /// The same inputs with a one-site population: the cold campaign
    /// set-up time is measured on.
    fn one_site(&self) -> Inputs {
        let mut one = self.clone();
        for c in [&mut one.campaign, &mut one.study] {
            c.population = self.workload.population(1, c.population.seed);
        }
        one.sizing.sites = 1;
        one.sizing.study_sites = usize::from(!self.is_lazy());
        one
    }

    /// The lazy population layer for the round; `None` for the eager
    /// `adverse_crawl` runners, which generate their own population.
    pub fn shards(&self) -> Option<PopulationShards> {
        self.is_lazy().then(|| {
            PopulationShards::with_shard_size(&self.campaign.population, self.sizing.shard)
        })
    }

    /// One untraced round through the public runners, over the lazy layer
    /// [`Inputs::shards`] built.
    pub fn round(&self, shards: Option<&PopulationShards>) -> RoundStats {
        let mut stats = RoundStats::default();
        let visits = self.sizing.visits;
        if let Some(shards) = shards {
            let summarise = |_k: usize, results: Vec<hlisa_crawler::SiteResult>| {
                MachineStats::of_sites(&results, visits)
            };
            for (client, label) in MACHINES {
                let summaries =
                    run_machine_shard_summaries(&self.campaign, shards, client, &summarise);
                stats.add_machine(label, &summaries);
            }
        } else {
            let chaos = run_chaos_campaign(&self.campaign, &ChaosConfig::uniform(CHAOS_FAULT_RATE));
            stats.add_chaos(&chaos, visits);
            drop(chaos);
            let study = run_reliability_study(&self.study, &LossPlan::uniform(STUDY_LOSS_RATE));
            stats.add_study(&study, visits);
        }
        stats
    }

    /// One set-up: the lazy layer's skeleton pass over the round's
    /// population, plus a cold one-site campaign of the same config
    /// (runtime and template capture, world snapshots, thread spawn).
    /// Returns the wall time and the skeleton.
    pub fn setup(&self) -> (Duration, Option<PopulationShards>) {
        let start = Instant::now();
        let shards = self.shards();
        let one = self.one_site();
        let cold = one.round(one.shards().as_ref());
        assert_eq!(cold.failed(), 0, "the cold one-site campaign degraded");
        (start.elapsed(), shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_counts_scale_per_mille() {
        let dense = Workload::DetectorDense.population(1_000, 0);
        let (a, b, c, d) = dense.webdriver_visible;
        let (e, f, g) = dense.template_visible;
        let (h, i) = dense.silent_http;
        let detectors = a + b + c + d + e + f + g + h + i;
        assert_eq!(detectors, 919);
        assert_eq!(e + f + g, 349);
        assert_eq!(
            detectors + dense.unreachable_sites + dense.breakage_sites,
            1_000
        );
        let paper = Workload::PaperCrawl.population(1_000, 0);
        let default = PopulationConfig::default();
        assert_eq!(paper.webdriver_visible, default.webdriver_visible);
        assert_eq!(paper.unreachable_sites, default.unreachable_sites);
        let dynamic = Workload::DynamicPages.population(2_000, 0);
        assert_eq!(dynamic.scenarios.total(), 600);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
