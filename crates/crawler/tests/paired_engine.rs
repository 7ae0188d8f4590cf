//! Differential property test for the paired engine: the two-machine
//! runners claim each shard once and run both machines over it, and each
//! machine's share of that pass must be exactly what a one-machine run
//! gives.
//!
//! For an arbitrary seed, worker count, shard size and site source (a
//! pre-generated slice or the lazy shard layer), every public two-client
//! runner is checked against a one-client [`run`] per client: the
//! recorded runs, the recovery records, the counters and every capture
//! mode's record. The three pipelines a public runner exposes are drawn:
//! plain ([`run_campaign`]), 10% faults ([`run_chaos_campaign`]) and all
//! three capture modes at 30% loss ([`run_reliability_study`]). The
//! pipeline with both stages on has no public two-client runner; the
//! engine-level twin of this test in `campaign.rs` covers it.

use hlisa_crawler::{
    run, run_campaign, run_chaos_campaign, run_reliability_study, CampaignConfig, CaptureMode,
    ChaosConfig, MachineRun, MachineShard, MachineTelemetry, Pipeline, SiteSource,
};
use hlisa_sim::{CounterSet, LossPlan};
use hlisa_web::{generate_population, ClientKind, PopulationConfig, PopulationShards, ScenarioMix};
use proptest::prelude::*;

/// A small population with every pathology: unreachable and flaky
/// sites, detectors of both kinds, silent HTTP, breakage and all three
/// scenario kinds.
fn config(seed: u64, instances: usize) -> CampaignConfig {
    CampaignConfig {
        seed,
        population: PopulationConfig {
            seed: seed ^ 0x5eed,
            n_sites: 24,
            unreachable_sites: 2,
            webdriver_visible: (1, 1, 1, 0),
            template_visible: (1, 1, 0),
            silent_http: (1, 1),
            breakage_sites: 1,
            scenarios: ScenarioMix {
                cookie_banner: 2,
                lazy_content: 2,
                spa_mutation: 2,
            },
            ..PopulationConfig::default()
        },
        visits_per_site: 3,
        instances,
        ..CampaignConfig::default()
    }
}

/// Each client's one-machine run of `pipeline` over the drawn source: its
/// shards appended in shard order, and its telemetry.
fn single_runs(
    config: &CampaignConfig,
    lazy: bool,
    shard_size: usize,
    pipeline: &Pipeline<'_>,
) -> [(MachineShard, MachineTelemetry); 2] {
    let sites = generate_population(&config.population);
    let shards = PopulationShards::with_shard_size(&config.population, shard_size);
    let source = if lazy {
        SiteSource::Lazy(&shards)
    } else {
        SiteSource::Slice {
            sites: &sites,
            shard_size,
        }
    };
    [ClientKind::OpenWpm, ClientKind::OpenWpmSpoofed].map(|client| {
        let out = run(config, &source, [client], pipeline, &|_, [crawl]| crawl);
        let mut whole = MachineShard::default();
        for crawl in out.shards {
            whole.append(crawl);
        }
        let [telemetry] = out.telemetry;
        (whole, telemetry)
    })
}

/// `crawl`'s records as runs of `client`, in record order.
fn runs(client: ClientKind, crawl: &MachineShard) -> Vec<MachineRun> {
    let run = |sites: &Vec<_>| MachineRun {
        client,
        sites: sites.clone(),
    };
    crawl.records.iter().map(run).collect()
}

/// Both machines' counter sets merged, as the runners report them.
fn merged(a: &CounterSet, b: &CounterSet) -> CounterSet {
    let mut c = a.clone();
    c.merge(b);
    c.sorted()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn two_client_runners_equal_one_client_runs(
        seed in 0u64..1_000_000,
        instances in 1usize..6,
        shard_size in 1usize..16,
        lazy in 0usize..2,
        pipeline in 0usize..3,
    ) {
        let cfg = config(seed, instances);
        let lazy = lazy == 1;
        match pipeline {
            0 => {
                let paired = run_campaign(&cfg);
                let singles = single_runs(&cfg, lazy, shard_size, &Pipeline::default());
                for (run, (crawl, telemetry)) in
                    [&paired.openwpm, &paired.spoofed].into_iter().zip(&singles)
                {
                    prop_assert_eq!(vec![run.clone()], runs(run.client, crawl));
                    prop_assert!(crawl.recovery.is_empty());
                    prop_assert!(telemetry.faults.is_empty());
                    prop_assert!(telemetry.captures.is_empty());
                }
            }
            1 => {
                let chaos = ChaosConfig::uniform(0.10);
                let paired = run_chaos_campaign(&cfg, &chaos);
                let pipeline = Pipeline { faults: Some(&chaos), capture: None };
                let singles = single_runs(&cfg, lazy, shard_size, &pipeline);
                let machines = [
                    (&paired.campaign.openwpm, &paired.openwpm_recovery),
                    (&paired.campaign.spoofed, &paired.spoofed_recovery),
                ];
                for ((run, recovery), (crawl, telemetry)) in machines.into_iter().zip(&singles) {
                    prop_assert_eq!(vec![run.clone()], runs(run.client, crawl));
                    prop_assert_eq!(recovery.client, run.client);
                    prop_assert_eq!(&recovery.sites, &crawl.recovery);
                    prop_assert_eq!(&recovery.counters, &telemetry.faults);
                    prop_assert!(telemetry.captures.is_empty());
                }
                prop_assert!(paired.counters().get("fault.injected").unwrap_or(0) > 0);
            }
            _ => {
                let plan = LossPlan::uniform(0.30);
                let modes = CaptureMode::ALL;
                let paired = run_reliability_study(&cfg, &plan);
                let pipeline = Pipeline { faults: None, capture: Some((&plan, &modes)) };
                let [m1, m2] = single_runs(&cfg, lazy, shard_size, &pipeline);
                let records = |client, (crawl, telemetry): &(MachineShard, MachineTelemetry)| {
                    runs(client, crawl)
                        .into_iter()
                        .zip(telemetry.captures.iter().cloned())
                        .collect::<Vec<_>>()
                };
                let m1_records = records(ClientKind::OpenWpm, &m1);
                let m2_records = records(ClientKind::OpenWpmSpoofed, &m2);
                prop_assert_eq!(m1_records.len(), modes.len());
                prop_assert_eq!(m2_records.len(), modes.len());
                let campaigns = [&paired.pristine, &paired.naive, &paired.strengthened];
                for (j, captured) in campaigns.into_iter().enumerate() {
                    let ((run1, counters1), (run2, counters2)) = (&m1_records[j], &m2_records[j]);
                    prop_assert_eq!(captured.mode, modes[j]);
                    prop_assert_eq!(&captured.campaign.openwpm, run1);
                    prop_assert_eq!(&captured.campaign.spoofed, run2);
                    prop_assert_eq!(&captured.analytics, &merged(counters1, counters2));
                }
                prop_assert!(m1.0.recovery.is_empty() && m2.0.recovery.is_empty());
                prop_assert!(m1.1.faults.is_empty() && m2.1.faults.is_empty());
                prop_assert!(paired.naive.analytics.get("loss.dropped").unwrap_or(0) > 0);
            }
        }
    }
}
