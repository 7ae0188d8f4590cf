//! Integration tests for the SimContext layer: the recorded trace a
//! chain leaves, seeded determinism, and schedule-independence of the
//! campaign runner.

use hlisa::HlisaActionChains;
use hlisa_browser::dom::standard_test_page;
use hlisa_browser::{Browser, BrowserConfig};
use hlisa_crawler::{run, CampaignConfig, MachineShard, Pipeline, SiteResult, SiteSource};
use hlisa_detect::InteractionDetector;
use hlisa_sim::SimContext;
use hlisa_web::visit::DetectorRuntime;
use hlisa_web::{generate_population, simulate_visit, ClientKind, PopulationConfig};
use hlisa_webdriver::{By, Session};
use proptest::prelude::*;

/// An HLISA chain's recorded trace passes the batch level-1 cues a
/// streaming monitor would watch (speed, click dwell, a click with no
/// press), and the recorder's counts surface as browser metrics.
#[test]
fn hlisa_chain_recorder_passes_level1_cues_and_feeds_metrics() {
    let browser = Browser::open(
        BrowserConfig::webdriver(),
        standard_test_page("https://observer.test/", 10_000.0),
    );
    let mut s = Session::new(browser);

    let el = s.find_element(By::Id("submit".into())).unwrap();
    HlisaActionChains::new(3)
        .move_to_element(el)
        .click(None)
        .perform(&mut s)
        .unwrap();

    // Only the named signals: batch level 1 also judges straightness.
    let verdict = InteractionDetector::level1().judge(&s.browser.recorder, s.browser.document());
    for name in [
        "superhuman-speed",
        "zero-dwell-click",
        "click-without-pointer",
    ] {
        assert!(
            verdict.signals.iter().all(|signal| signal.name != name),
            "{name} fired: {:?}",
            verdict.signals
        );
    }

    // The recorder's click and moves are visible through the metrics.
    let metrics = s.browser.metrics();
    assert_eq!(metrics.get("events.click"), Some(1));
    let moves = metrics.get("events.mousemove").unwrap();
    assert!(moves > 4);
    assert_eq!(moves, s.browser.recorder.cursor_trace().len() as u64);
}

/// Two contexts with the same seed produce identical visit outcome
/// streams; a different seed diverges.
#[test]
fn same_seed_contexts_replay_identical_visit_outcomes() {
    let sites = generate_population(&PopulationConfig {
        n_sites: 30,
        unreachable_sites: 2,
        ..PopulationConfig::default()
    });
    let runtime = DetectorRuntime::new();
    let run = |seed: u64| {
        let mut ctx = SimContext::new(seed);
        sites
            .iter()
            .map(|site| simulate_visit(site, ClientKind::OpenWpm, &runtime, &mut ctx))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(11), run(11), "same seed must replay bit-identically");
    assert_ne!(run(11), run(12), "different seeds must diverge");
}

/// One plain machine run of `source`: its results in population order.
fn plain(config: &CampaignConfig, source: &SiteSource<'_>) -> Vec<SiteResult> {
    let client = [ClientKind::OpenWpmSpoofed];
    let out = run(
        config,
        source,
        client,
        &Pipeline::default(),
        &|_, [crawl]| crawl,
    );
    let mut whole = MachineShard::default();
    for crawl in out.shards {
        whole.append(crawl);
    }
    whole.records.swap_remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A one-machine `run`'s output is independent of the worker count: one
    /// instance and eight produce bit-identical results for any seed.
    #[test]
    fn run_machine_is_independent_of_instances(seed in 0u64..1_000) {
        let base = CampaignConfig {
            seed,
            population: PopulationConfig {
                n_sites: 40,
                unreachable_sites: 3,
                ..PopulationConfig::default()
            },
            visits_per_site: 3,
            instances: 1,
            ..CampaignConfig::default()
        };
        let sites = generate_population(&base.population);
        let serial = plain(&base, &SiteSource::slice(&sites));
        let wide = CampaignConfig { instances: 8, ..base };
        let parallel = plain(&wide, &SiteSource::slice(&sites));
        prop_assert_eq!(serial, parallel);
    }

    /// The shard-claiming scheduler is invisible in the output: any
    /// `(instances, shard size)` pair — one giant shard, one site per
    /// shard, ragged tails, more workers than shards — and the lazy
    /// shard-generated population all yield the serial run bit for bit.
    #[test]
    fn run_machine_is_independent_of_shard_granularity_and_laziness(
        seed in 0u64..1_000,
        instances in 1usize..9,
        shard_size in 1usize..64,
    ) {
        let base = CampaignConfig {
            seed,
            population: PopulationConfig {
                n_sites: 40,
                unreachable_sites: 3,
                ..PopulationConfig::default()
            },
            visits_per_site: 3,
            instances: 1,
            ..CampaignConfig::default()
        };
        let sites = generate_population(&base.population);
        let serial = plain(&base, &SiteSource::slice(&sites));

        let wide = CampaignConfig { instances, ..base };
        let sharded = plain(&wide, &SiteSource::Slice { sites: &sites, shard_size });
        prop_assert_eq!(&sharded, &serial);

        let shards = hlisa_web::PopulationShards::with_shard_size(&wide.population, shard_size);
        let lazy = plain(&wide, &SiteSource::Lazy(&shards));
        prop_assert_eq!(&lazy, &serial);
        // Laziness held under contention: never more live shards than
        // workers (a worker materialises one shard at a time).
        prop_assert!(shards.peak_resident_shards() <= instances);
    }
}
