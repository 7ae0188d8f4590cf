//! Reliability-study benchmark: how much measurement loss corrupts the
//! campaign's conclusions.
//!
//! The same seeded campaign is run with naive lossy capture at each rate
//! in [`LOSS_RATES`] and diffed against pristine capture: per-metric
//! relative error over every Table 2 cell and recorder analytic, plus
//! conclusion flips (sign changes of the machine-1-vs-machine-2
//! comparisons). The curve is emitted as facts in
//! `BENCH_reliability.json`; nothing here is timed.

use crate::harness::Report;
use hlisa_crawler::campaign::CampaignConfig;
use hlisa_crawler::reliability::{drift_report, run_captured_campaign, CaptureMode};
use hlisa_sim::LossPlan;
use hlisa_web::PopulationConfig;

/// The loss rates the drift curve sweeps (uniform over all three loss
/// kinds; rate 0 pins the bit-identity point of the curve).
pub const LOSS_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];

/// Benchmark sizing.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Sites in the campaign population.
    pub campaign_sites: usize,
    /// Visits per site per machine.
    pub visits_per_site: usize,
}

impl BenchConfig {
    /// The default run: big enough for stable drift numbers.
    pub fn full() -> Self {
        Self {
            campaign_sites: 480,
            visits_per_site: 8,
        }
    }

    /// A seconds-scale smoke run for CI.
    pub fn smoke() -> Self {
        Self {
            campaign_sites: 30,
            visits_per_site: 3,
        }
    }
}

fn campaign_config(bench: &BenchConfig) -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        population: PopulationConfig {
            n_sites: bench.campaign_sites,
            // Keep the paper's 79/1000 unreachable fraction at any sizing;
            // the default's absolute count would drown the drift numbers
            // in intrinsically dead sites at bench scale.
            unreachable_sites: bench.campaign_sites * 79 / 1000,
            ..PopulationConfig::default()
        },
        visits_per_site: bench.visits_per_site,
        instances: 4,
        ..CampaignConfig::default()
    }
}

/// Runs the whole suite.
pub fn run(config: BenchConfig) -> Report {
    let cfg = campaign_config(&config);
    let mut report = Report::new(
        "hlisa measurement-loss reliability study",
        vec![
            ("campaign_sites", config.campaign_sites as u64),
            ("visits_per_site", config.visits_per_site as u64),
        ],
    );
    report.fact(
        "campaign_visits",
        (2 * config.campaign_sites * config.visits_per_site) as f64,
    );
    let pristine = run_captured_campaign(&cfg, &LossPlan::none(), CaptureMode::Pristine);
    for rate in LOSS_RATES {
        let naive = run_captured_campaign(&cfg, &LossPlan::uniform(rate), CaptureMode::NaiveLossy);
        let drift = drift_report(&pristine, &naive);
        let dropped = naive.analytics.get("loss.dropped").unwrap_or(0);
        if rate == 0.0 {
            assert!(
                drift.max_rel_error() == 0.0 && dropped == 0,
                "rate-0 point of the curve must be drift-free"
            );
        }
        let point = format!("drift.rate_{rate}");
        report.fact(
            format!("{point}.naive_max_rel_error"),
            drift.max_rel_error(),
        );
        report.fact(
            format!("{point}.naive_mean_rel_error"),
            drift.mean_rel_error(),
        );
        report.fact(
            format!("{point}.conclusion_flips"),
            drift.conclusion_flips.len() as f64,
        );
        report.fact(format!("{point}.events_dropped"), dropped as f64);
        report.fact(
            format!("{point}.events_offered"),
            naive.analytics.get("loss.offered").unwrap_or(0) as f64,
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_well_formed() {
        let report = run(BenchConfig {
            campaign_sites: 12,
            visits_per_site: 2,
        });
        assert_eq!(
            report.get_fact("campaign_visits"),
            Some((2 * 12 * 2) as f64)
        );
        assert!(report.sections.is_empty());
        assert_eq!(report.facts.len(), 1 + 5 * LOSS_RATES.len());
        assert_eq!(
            report.get_fact("drift.rate_0.naive_max_rel_error"),
            Some(0.0)
        );
        let harsh = report.get_fact("drift.rate_0.4.events_dropped").unwrap();
        assert!(harsh > 0.0, "harshest point must drop events");
        assert!(report.render_human().contains("drift.rate_0.4"));
    }
}
