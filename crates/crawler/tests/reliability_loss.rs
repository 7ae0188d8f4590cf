//! Differential property tests for the measurement-loss fault plane —
//! the acceptance invariants of the reliability study:
//!
//! * **strengthened == pristine** for arbitrary seeds and loss rates:
//!   write-ahead capture plus the attach barrier recovers the exact
//!   pristine record, bit for bit;
//! * **pristine == legacy**: the capture pipeline itself (emission →
//!   channel → reconstruction) is draw-free and exactly inverse, so a
//!   perfectly instrumented captured campaign equals `run_campaign`;
//! * **rate-0 == legacy with zero extra draws**: a no-op `LossPlan`
//!   consumes nothing from the `"fault"` stream, so even the *naive*
//!   pipeline at rate 0 is bit-identical to today's runner;
//! * **naive lossy drifts**: at any substantial loss rate the naively
//!   captured campaign differs from ground truth while its records
//!   still look like clean data;
//! * **one pass equals three**: the study's single pass, which feeds
//!   every mode from one attempt and one loss schedule per visit, equals
//!   three separate one-mode campaigns and their drift reports.

use hlisa_crawler::campaign::{run_campaign, CampaignConfig};
use hlisa_crawler::reliability::{
    drift_report, run_captured_campaign, run_reliability_study, CaptureMode,
};
use hlisa_sim::{LossPlan, Rng, SimContext};
use hlisa_web::PopulationConfig;
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = CampaignConfig> {
    (
        0u64..10_000,
        20usize..60,
        0usize..5,
        1usize..4,
        1usize..5,
        (0usize..3, 0usize..3, 0usize..3),
    )
        .prop_map(
            |(seed, n_sites, unreachable, visits, instances, mix)| CampaignConfig {
                seed,
                population: PopulationConfig {
                    n_sites,
                    unreachable_sites: unreachable,
                    scenarios: hlisa_web::ScenarioMix {
                        cookie_banner: mix.0,
                        lazy_content: mix.1,
                        spa_mutation: mix.2,
                    },
                    ..PopulationConfig::default()
                },
                visits_per_site: visits,
                instances,
                ..CampaignConfig::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Strengthened-mode lossy campaigns are bit-identical to pristine
    /// capture for any seed and any loss rate.
    #[test]
    fn strengthened_equals_pristine_for_any_seed_and_rate(
        config in arb_config(),
        rate in 0.0f64..1.0,
    ) {
        let plan = LossPlan::uniform(rate);
        let pristine = run_captured_campaign(&config, &plan, CaptureMode::Pristine);
        let strengthened = run_captured_campaign(&config, &plan, CaptureMode::Strengthened);
        prop_assert_eq!(strengthened.campaign, pristine.campaign);
    }

    /// A pristine captured campaign equals the legacy runner: capture
    /// emission and reconstruction are exactly inverse and draw-free.
    #[test]
    fn pristine_capture_equals_the_legacy_runner(config in arb_config()) {
        let truth = run_campaign(&config);
        let pristine = run_captured_campaign(
            &config,
            &LossPlan::none(),
            CaptureMode::Pristine,
        );
        prop_assert_eq!(pristine.campaign, truth);
    }

    /// Even the naive lossy pipeline at rate 0 is bit-identical to the
    /// legacy runner — the no-op plan draws nothing.
    #[test]
    fn rate_zero_naive_capture_equals_the_legacy_runner(config in arb_config()) {
        let truth = run_campaign(&config);
        let naive = run_captured_campaign(
            &config,
            &LossPlan::none(),
            CaptureMode::NaiveLossy,
        );
        prop_assert_eq!(naive.campaign, truth);
        prop_assert_eq!(naive.analytics.get("loss.dropped"), None);
    }

    /// A no-op loss plan consumes zero draws from the `"fault"` stream,
    /// whatever context it runs in and however often it is consulted —
    /// the property that keeps every existing golden bit-identical.
    #[test]
    fn noop_plan_leaves_the_fault_stream_untouched(
        seed in 0u64..100_000,
        domain_idx in 0u64..1_000,
        visits in 1usize..12,
    ) {
        let domain = format!("site{domain_idx:04}.example");
        let parent = SimContext::new(seed);
        let mut with_plan = parent.fork_visit(&domain, 0);
        let mut without = parent.fork_visit(&domain, 0);
        let plan = LossPlan::none();
        for _ in 0..visits {
            let schedule = plan.draw(with_plan.stream("fault"));
            prop_assert!(schedule.is_pristine());
        }
        prop_assert_eq!(
            with_plan.stream("fault").gen::<u64>(),
            without.stream("fault").gen::<u64>()
        );
    }

    /// The one-pass study equals three separate one-mode campaigns plus
    /// their drift reports, field by field (records, analytics, drift),
    /// at any worker count and at loss rates 0, 1 and in between.
    #[test]
    fn one_pass_study_equals_three_separate_campaigns(
        config in arb_config(),
        rate in (0u8..4, 0.0f64..1.0).prop_map(|(edge, rate)| match edge {
            0 => 0.0,
            1 => 1.0,
            _ => rate,
        }),
    ) {
        let plan = LossPlan::uniform(rate);
        let study = run_reliability_study(&config, &plan);
        let [pristine, naive, strengthened] =
            CaptureMode::ALL.map(|mode| run_captured_campaign(&config, &plan, mode));
        prop_assert_eq!(&study.naive_drift, &drift_report(&pristine, &naive));
        prop_assert_eq!(&study.strengthened_drift, &drift_report(&pristine, &strengthened));
        for (fused, separate) in [
            (&study.pristine, &pristine),
            (&study.naive, &naive),
            (&study.strengthened, &strengthened),
        ] {
            prop_assert_eq!(fused.mode, separate.mode);
            prop_assert_eq!(&fused.analytics, &separate.analytics, "{:?}", fused.mode);
            prop_assert_eq!(&fused.campaign, &separate.campaign, "{:?}", fused.mode);
        }
    }

    /// At substantial loss rates the naive pipeline's record differs
    /// from ground truth (while the strengthened one, above, does not).
    #[test]
    fn naive_capture_drifts_at_positive_rates(
        config in arb_config(),
        rate in 0.15f64..0.7,
    ) {
        let study = run_reliability_study(&config, &LossPlan::uniform(rate));
        prop_assert!(
            study.naive.analytics.get("loss.dropped").unwrap_or(0) > 0,
            "a {rate:.2} loss plan must drop events"
        );
        prop_assert_ne!(&study.naive.campaign, &study.pristine.campaign);
        prop_assert!(study.strengthened_drift.is_zero());
    }
}
