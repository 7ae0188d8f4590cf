//! Chaos-mode invariants: the fault plane must never perturb what it does
//! not touch.
//!
//! Two properties pin the fault stage's key guarantee: (a) with every
//! fault rate at zero the chaos runner is bit-identical to the plain
//! campaign for *arbitrary* seeds and instance counts, on a population
//! with scenario sites, and (b) retries consume RNG from the `"fault"`
//! stream only, so any visit that ends in success — first try or after
//! recovery — records exactly the outcome the faultless campaign records
//! at the same `(machine, site, visit)`.

use hlisa_crawler::{
    run, run_campaign, run_captured_campaign, run_chaos_campaign, CampaignConfig, CaptureMode,
    ChaosConfig, MachineRun, MachineShard, MachineTelemetry, Pipeline, SiteSource,
};
use hlisa_sim::LossPlan;
use hlisa_web::{generate_population, ClientKind, PopulationConfig, ScenarioMix};
use proptest::prelude::*;

/// One machine's run of `pipeline` over `source`: its shards appended in
/// shard order, and its telemetry.
fn machine(
    config: &CampaignConfig,
    source: &SiteSource<'_>,
    client: ClientKind,
    pipeline: &Pipeline<'_>,
) -> (MachineShard, MachineTelemetry) {
    let out = run(config, source, [client], pipeline, &|_, [crawl]| crawl);
    let mut whole = MachineShard::default();
    for crawl in out.shards {
        whole.append(crawl);
    }
    let [telemetry] = out.telemetry;
    (whole, telemetry)
}

/// The crawl's one record (one capture mode) as `client`'s run.
fn only_run(client: ClientKind, crawl: &MachineShard) -> MachineRun {
    assert_eq!(crawl.records.len(), 1);
    MachineRun {
        client,
        sites: crawl.records[0].clone(),
    }
}

fn config(seed: u64, instances: usize) -> CampaignConfig {
    CampaignConfig {
        seed,
        population: PopulationConfig {
            n_sites: 24,
            unreachable_sites: 2,
            webdriver_visible: (1, 1, 0, 0),
            template_visible: (1, 0, 0),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn rate_zero_chaos_is_bit_identical_for_any_seed_and_schedule(
        seed in 0u64..1_000_000,
        instances in 1usize..5,
    ) {
        let cfg = config(seed, instances);
        let legacy = run_campaign(&cfg);
        let chaos = run_chaos_campaign(&cfg, &ChaosConfig::off());
        prop_assert_eq!(&chaos.campaign, &legacy);
        // And the no-op plan schedules nothing.
        prop_assert_eq!(chaos.counters().get("fault.injected"), None);
        prop_assert_eq!(chaos.counters().get("retry.scheduled"), None);
    }

    /// Chaos mode under the shard-claiming scheduler: any `(instances,
    /// shard size)` pair reproduces the serial faulted run exactly —
    /// outcomes, recovery telemetry, and merged counters — even though
    /// which worker claims which shard is scheduling-dependent.
    #[test]
    fn faulted_chaos_is_independent_of_shard_claiming(
        seed in 0u64..1_000_000,
        instances in 2usize..6,
        shard_size in 1usize..16,
    ) {
        let chaos = ChaosConfig::uniform(0.10);
        let serial = run_chaos_campaign(&config(seed, 1), &chaos);
        let wide = config(seed, instances);
        let sites = generate_population(&wide.population);
        let source = SiteSource::Slice { sites: &sites, shard_size };
        let pipeline = Pipeline { faults: Some(&chaos), capture: None };
        for (client, run, recovery) in [
            (ClientKind::OpenWpm, &serial.campaign.openwpm, &serial.openwpm_recovery),
            (ClientKind::OpenWpmSpoofed, &serial.campaign.spoofed, &serial.spoofed_recovery),
        ] {
            let (sharded, telemetry) = machine(&wide, &source, client, &pipeline);
            prop_assert_eq!(&only_run(client, &sharded), run);
            prop_assert_eq!(&sharded.recovery, &recovery.sites);
            prop_assert_eq!(&telemetry.faults, &recovery.counters);
        }
    }

    #[test]
    fn retries_draw_from_the_fault_stream_only(
        seed in 0u64..1_000_000,
        instances in 1usize..5,
    ) {
        let cfg = config(seed, instances);
        let legacy = run_campaign(&cfg);
        let chaos = run_chaos_campaign(&cfg, &ChaosConfig::uniform(0.15));
        for (chaos_run, legacy_run) in [
            (&chaos.campaign.openwpm, &legacy.openwpm),
            (&chaos.campaign.spoofed, &legacy.spoofed),
        ] {
            for (cs, ls) in chaos_run.sites.iter().zip(&legacy_run.sites) {
                for (v, (co, lo)) in cs.outcomes.iter().zip(&ls.outcomes).enumerate() {
                    if co.successful {
                        // A successful visit — including one recovered
                        // after retries — replays the legacy draw
                        // sequence exactly: interaction streams are
                        // unperturbed by injection and backoff.
                        prop_assert_eq!(
                            co, lo,
                            "{} visit {}: interaction stream perturbed", cs.domain, v
                        );
                    }
                }
            }
        }
    }

    /// The fault and capture stages compose in one pipeline. With chaos
    /// off, pristine capture records exactly the plain campaign and naive
    /// capture records exactly the capture-only campaign (the loss
    /// schedule starts where it always did). Under 10% faults,
    /// strengthened capture at 50% loss records exactly what pristine
    /// capture records under the same faults.
    #[test]
    fn chaos_and_capture_compose_in_one_pipeline(
        seed in 0u64..1_000_000,
        instances in 1usize..5,
    ) {
        let cfg = config(seed, instances);
        let sites = generate_population(&cfg.population);
        let source = SiteSource::slice(&sites);
        let plain = run_campaign(&cfg);
        let lossy = LossPlan::uniform(0.5);
        let naive = run_captured_campaign(&cfg, &lossy, CaptureMode::NaiveLossy);
        let (off, faulted) = (ChaosConfig::off(), ChaosConfig::uniform(0.10));
        let mut injected = 0;
        for (client, plain_run, naive_run) in [
            (ClientKind::OpenWpm, &plain.openwpm, &naive.campaign.openwpm),
            (ClientKind::OpenWpmSpoofed, &plain.spoofed, &naive.campaign.spoofed),
        ] {
            let run = |faults: &ChaosConfig, plan: &LossPlan, mode: CaptureMode| {
                let pipeline = Pipeline { faults: Some(faults), capture: Some((plan, &[mode])) };
                machine(&cfg, &source, client, &pipeline)
            };
            let (pristine_off, _) = run(&off, &LossPlan::none(), CaptureMode::Pristine);
            prop_assert_eq!(&only_run(client, &pristine_off), plain_run);
            let (naive_off, _) = run(&off, &lossy, CaptureMode::NaiveLossy);
            prop_assert_eq!(&only_run(client, &naive_off), naive_run);

            let (pristine, pristine_telemetry) = run(&faulted, &lossy, CaptureMode::Pristine);
            let (strengthened, telemetry) = run(&faulted, &lossy, CaptureMode::Strengthened);
            prop_assert_eq!(only_run(client, &strengthened), only_run(client, &pristine));
            prop_assert_eq!(&strengthened.recovery, &pristine.recovery);
            prop_assert!(telemetry.captures[0].get("capture.replayed").unwrap_or(0) > 0);
            injected += pristine_telemetry.faults.get("fault.injected").unwrap_or(0);
        }
        prop_assert!(injected > 0, "10% faults injected nothing");
    }
}

#[test]
fn faulted_runs_replay_identically() {
    // The fixed-seed acceptance check in integration form: outcomes and
    // every fault/retry/breaker counter must match across two runs.
    let cfg = config(0xC4A05, 3);
    let chaos = ChaosConfig::uniform(0.05);
    let a = run_chaos_campaign(&cfg, &chaos);
    let b = run_chaos_campaign(&cfg, &chaos);
    assert_eq!(a, b);
    assert_eq!(a.counters(), b.counters());
}
