//! Fixed-seed golden test over the engine's stage telemetry: every
//! rendered counter (name, value and order) of the chaos campaign's two
//! recovery records, of the reliability study's three capture-mode
//! analytics, and of both machines' telemetry in a run with every stage
//! on, the planner included.
//!
//! The hashes were captured from the per-family tallies each observer
//! kept by hand; any other way of counting must render every entry the
//! same. Seed 404 also drives the three dynamic-page scenarios.

use hlisa_crawler::{
    run, run_chaos_campaign, run_reliability_study, CampaignConfig, CaptureMode, ChaosConfig,
    Pipeline, SiteSource, MACHINES,
};
use hlisa_sim::{CounterSet, LossPlan};
use hlisa_web::{generate_population, PopulationConfig, ScenarioMix};

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn config(seed: u64) -> CampaignConfig {
    let scenarios = if seed == 404 {
        ScenarioMix {
            cookie_banner: 4,
            lazy_content: 4,
            spa_mutation: 4,
        }
    } else {
        ScenarioMix::default()
    };
    CampaignConfig {
        seed,
        population: PopulationConfig {
            n_sites: 300,
            unreachable_sites: 24,
            scenarios,
            ..PopulationConfig::default()
        },
        visits_per_site: 8,
        instances: 4,
        ..CampaignConfig::default()
    }
}

fn render(label: &str, set: &CounterSet, out: &mut String) {
    out.push_str(label);
    out.push('\n');
    for (name, value) in set.entries() {
        out.push_str(&format!("  {name} {value}\n"));
    }
}

/// The planner totals as `(name, value)` pairs in name order, read off
/// their `Debug` form so the pin holds whatever type carries them: a
/// total is named by the last dotted segment of the word before it, and
/// zero totals are left out, as a rendered counter set leaves them out.
fn plan_totals(plan: &impl std::fmt::Debug) -> Vec<(String, u64)> {
    let text = format!("{plan:?}");
    let words: Vec<&str> = text
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
        .filter(|w| !w.is_empty())
        .collect();
    let mut totals: Vec<(String, u64)> = words
        .windows(2)
        .filter_map(|w| {
            let value = w[1].parse::<u64>().ok()?;
            let name = w[0].rsplit('.').next()?;
            (value > 0 && name.parse::<u64>().is_err()).then(|| (name.to_string(), value))
        })
        .collect();
    totals.sort();
    totals
}

fn canon(seed: u64) -> String {
    let mut out = String::new();
    let config = config(seed);

    let chaos = run_chaos_campaign(&config, &ChaosConfig::uniform(0.1));
    render("chaos m1", &chaos.openwpm_recovery.counters, &mut out);
    render("chaos m2", &chaos.spoofed_recovery.counters, &mut out);

    let study = run_reliability_study(&config, &LossPlan::uniform(0.3));
    for captured in [&study.pristine, &study.naive, &study.strengthened] {
        render(captured.mode.name(), &captured.analytics, &mut out);
    }

    // Every stage on, the planner included.
    let config = CampaignConfig {
        plan_interactions: true,
        ..config
    };
    let sites = generate_population(&config.population);
    let chaos = ChaosConfig::uniform(0.1);
    let loss = LossPlan::uniform(0.3);
    let pipeline = Pipeline {
        faults: Some(&chaos),
        capture: Some((&loss, &CaptureMode::ALL)),
    };
    let output = run(
        &config,
        &SiteSource::slice(&sites),
        MACHINES,
        &pipeline,
        &|_, _| (),
    );
    for (m, telemetry) in output.telemetry.iter().enumerate() {
        render(
            &format!("run m{} faults", m + 1),
            &telemetry.faults,
            &mut out,
        );
        for (mode, set) in CaptureMode::ALL.iter().zip(&telemetry.captures) {
            render(&format!("run m{} {}", m + 1, mode.name()), set, &mut out);
        }
        out.push_str(&format!(
            "run m{} plan {:?}\n",
            m + 1,
            plan_totals(&telemetry.plan)
        ));
    }
    out
}

const TELEMETRY_HASHES: [(u64, u64); 3] = [
    (1, 7_713_624_222_152_883_794),
    (2, 1_212_089_162_393_597_115),
    (404, 12_364_540_309_159_967_739),
];

#[test]
fn stage_telemetry_is_pinned() {
    for (seed, hash) in TELEMETRY_HASHES {
        let canon = canon(seed);
        assert_eq!(fnv1a(&canon), hash, "seed {seed} drifted:\n{canon}");
    }
}
