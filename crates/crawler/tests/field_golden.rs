//! Fixed-seed golden test over the field-study analyses: Table 2, the
//! Figure 4 status-code counts and Wilcoxon tests, their CSV exports,
//! and the drift report of a lossy reliability study.
//!
//! The hashes were captured from the per-row and per-party walks over a
//! whole `Campaign`; any other way of computing the same tables must
//! reproduce every cell, every count and every bit of every test
//! statistic. Seed 404 also drives the three dynamic-page scenarios, so
//! the scenario rows are non-zero there.

use hlisa_crawler::campaign::{run_campaign, CampaignConfig};
use hlisa_crawler::reliability::{drift_report, run_reliability_study};
use hlisa_crawler::{analyze_http, screenshot_table, status_codes_csv, table2_csv};
use hlisa_sim::LossPlan;
use hlisa_stats::WilcoxonResult;
use hlisa_web::{PopulationConfig, ScenarioMix};

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

/// A Wilcoxon result with its floats as raw bits.
fn wilcoxon_bits(w: &Option<WilcoxonResult>) -> String {
    match w {
        None => "none".to_string(),
        Some(w) => format!(
            "w {:#x} n {} p {:#x} exact {}",
            w.w.to_bits(),
            w.n_used,
            w.p_value.to_bits(),
            w.exact
        ),
    }
}

fn canon(seed: u64) -> String {
    let config = config(seed);
    let campaign = run_campaign(&config);
    let mut out = format!("{:?}\n", screenshot_table(&campaign));

    let http = analyze_http(&campaign);
    out.push_str(&format!(
        "first {:?}\nthird {:?}\nwilcoxon first {}\nwilcoxon third {}\n",
        http.first_party,
        http.third_party,
        wilcoxon_bits(&http.wilcoxon_first_party),
        wilcoxon_bits(&http.wilcoxon_third_party),
    ));
    out.push_str(&table2_csv(&campaign));
    out.push_str(&status_codes_csv(&campaign));

    let study = run_reliability_study(&config, &LossPlan::uniform(0.3));
    let drift = drift_report(&study.pristine, &study.naive);
    for m in &drift.metrics {
        out.push_str(&format!(
            "{} {:#x} {:#x} {:#x}\n",
            m.metric,
            m.pristine.to_bits(),
            m.observed.to_bits(),
            m.rel_error.to_bits()
        ));
    }
    out.push_str(&format!("flips {:?}\n", drift.conclusion_flips));
    out
}

const FIELD_HASHES: [(u64, u64); 3] = [
    (1, 11_630_807_387_856_007_233),
    (2, 15_845_134_064_492_243_634),
    (404, 7_221_534_311_463_357_180),
];

#[test]
fn field_study_analyses_are_pinned() {
    for (seed, hash) in FIELD_HASHES {
        let canon = canon(seed);
        assert_eq!(fnv1a(&canon), hash, "seed {seed} drifted:\n{canon}");
    }
}
