//! Reliability-study benchmark: how much measurement loss corrupts the
//! campaign's conclusions, and what the strengthened capture mode costs.
//!
//! Two measurements, emitted as `BENCH_reliability.json`:
//!
//! 1. **Drift-vs-loss-rate curve** — the same seeded campaign is run
//!    with naive lossy capture at each rate in [`LOSS_RATES`] and diffed
//!    against pristine capture: per-metric relative error over every
//!    Table 2 cell and recorder analytic, plus conclusion flips (sign
//!    changes of the machine-1-vs-machine-2 comparisons).
//! 2. **Strengthened-mode overhead** — pristine capture vs write-ahead
//!    capture with the attach barrier at the harshest curve rate. The
//!    outputs are asserted bit-identical (the PR's key invariant), so
//!    the comparison isolates the pure cost of write-ahead buffering.
//!
//! Timing reads the wall clock on purpose, like the other benches: the
//! numbers feed a JSON report, never a simulated observable.

use crate::campaign_bench::Comparison;
use hlisa_crawler::campaign::CampaignConfig;
use hlisa_crawler::reliability::{drift_report, run_captured_campaign, CaptureMode};
use hlisa_sim::LossPlan;
use hlisa_web::PopulationConfig;
use std::time::Duration;

/// The loss rates the drift curve sweeps (uniform over all three loss
/// kinds; rate 0 pins the bit-identity point of the curve).
pub const LOSS_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];

/// Benchmark sizing.
#[derive(Debug, Clone, Copy)]
pub struct ReliabilityBenchConfig {
    /// Sites in the campaign population.
    pub campaign_sites: usize,
    /// Visits per site per machine.
    pub visits_per_site: usize,
}

impl ReliabilityBenchConfig {
    /// The default run: big enough for stable drift numbers, and for
    /// per-run wall-clock times that dwarf worker-thread spawn noise in
    /// the overhead comparison.
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

/// One point of the drift-vs-loss-rate curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// The uniform loss rate of this point.
    pub rate: f64,
    /// Largest per-metric relative error of the naive capture.
    pub naive_max_rel_error: f64,
    /// Mean per-metric relative error of the naive capture.
    pub naive_mean_rel_error: f64,
    /// Comparative conclusions whose sign flipped under loss.
    pub conclusion_flips: usize,
    /// Events the naive channel dropped, campaign-wide.
    pub events_dropped: u64,
    /// Events the campaign offered the channel.
    pub events_offered: u64,
}

/// The reliability benchmark result.
#[derive(Debug, Clone)]
pub struct ReliabilityBenchReport {
    /// Sizing used.
    pub config: ReliabilityBenchConfig,
    /// Visits per campaign (2 machines × sites × visits).
    pub campaign_visits: u64,
    /// The drift curve, one point per [`LOSS_RATES`] entry.
    pub curve: Vec<CurvePoint>,
    /// The rate the strengthened mode was exercised at (the harshest
    /// curve point).
    pub strengthened_rate: f64,
    /// Pristine capture (baseline) vs strengthened capture (optimized):
    /// `overhead_ratio` near 1.0 means write-ahead buffering is cheap.
    pub strengthened_overhead: Comparison,
    /// Events the write-ahead buffer replayed across attach barriers.
    pub events_replayed: u64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = std::time::Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Timed repetitions per capture mode. A full campaign is milliseconds
/// of work, so repetitions are cheap — and necessary: one-shot timings
/// of runs this short swing ±30% with scheduler noise. The overhead
/// comparison *interleaves* pristine and strengthened repetitions (so
/// slow drift in machine load hits both sides alike) and reports each
/// side's minimum — the standard noise-resistant estimate of a
/// deterministic workload's intrinsic cost.
const TIMING_REPS: u32 = 30;

fn campaign_config(bench: &ReliabilityBenchConfig) -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        population: PopulationConfig {
            n_sites: bench.campaign_sites,
            // Keep the paper's 79/1000 unreachable fraction at any sizing,
            // as the chaos bench does.
            unreachable_sites: bench.campaign_sites * 79 / 1000,
            ..PopulationConfig::default()
        },
        visits_per_site: bench.visits_per_site,
        instances: 4,
        ..CampaignConfig::default()
    }
}

/// Runs the whole suite.
pub fn run(config: ReliabilityBenchConfig) -> ReliabilityBenchReport {
    let cfg = campaign_config(&config);
    let visits = 2 * config.campaign_sites as u64 * config.visits_per_site as u64;
    let harshest = LOSS_RATES[LOSS_RATES.len() - 1];

    // Untimed first runs double as warmup for the timing loop below.
    let pristine = run_captured_campaign(&cfg, &LossPlan::none(), CaptureMode::Pristine);

    let curve: Vec<CurvePoint> = LOSS_RATES
        .iter()
        .map(|&rate| {
            let naive =
                run_captured_campaign(&cfg, &LossPlan::uniform(rate), CaptureMode::NaiveLossy);
            let drift = drift_report(&pristine, &naive);
            CurvePoint {
                rate,
                naive_max_rel_error: drift.max_rel_error(),
                naive_mean_rel_error: drift.mean_rel_error(),
                conclusion_flips: drift.conclusion_flips.len(),
                events_dropped: naive.analytics.get("loss.dropped").unwrap_or(0),
                events_offered: naive.analytics.get("loss.offered").unwrap_or(0),
            }
        })
        .collect();
    assert!(
        curve[0].naive_max_rel_error == 0.0 && curve[0].events_dropped == 0,
        "rate-0 point of the curve must be drift-free"
    );

    let harsh_plan = LossPlan::uniform(harshest);
    let strengthened = run_captured_campaign(&cfg, &harsh_plan, CaptureMode::Strengthened);
    assert_eq!(
        strengthened.campaign, pristine.campaign,
        "strengthened capture diverged from pristine"
    );

    // Both timed sides run under the *same* loss plan: the schedule is
    // the simulated environment, not part of either instrument, and
    // Pristine mode's output is plan-independent (asserted below), so
    // the pairing isolates what the write-ahead buffer itself costs.
    let pristine_harsh = run_captured_campaign(&cfg, &harsh_plan, CaptureMode::Pristine);
    assert_eq!(
        pristine_harsh.campaign, pristine.campaign,
        "pristine capture must not depend on the loss plan"
    );
    let mut pristine_t = Duration::MAX;
    let mut strengthened_t = Duration::MAX;
    for _ in 0..TIMING_REPS {
        pristine_t = pristine_t
            .min(timed(|| run_captured_campaign(&cfg, &harsh_plan, CaptureMode::Pristine)).0);
        strengthened_t = strengthened_t
            .min(timed(|| run_captured_campaign(&cfg, &harsh_plan, CaptureMode::Strengthened)).0);
    }

    ReliabilityBenchReport {
        config,
        campaign_visits: visits,
        curve,
        strengthened_rate: harshest,
        strengthened_overhead: Comparison {
            ops: visits,
            baseline_s: pristine_t.as_secs_f64(),
            optimized_s: strengthened_t.as_secs_f64(),
        },
        events_replayed: strengthened.analytics.get("capture.replayed").unwrap_or(0),
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

impl ReliabilityBenchReport {
    /// Elapsed-time ratio of strengthened over pristine capture.
    pub fn overhead_ratio(&self) -> f64 {
        self.strengthened_overhead.optimized_s / self.strengthened_overhead.baseline_s.max(1e-12)
    }

    /// Serializes the report (hand-rolled, like the other benches: the
    /// workspace vendors no JSON writer).
    pub fn to_json(&self) -> String {
        let curve: Vec<String> = self
            .curve
            .iter()
            .map(|p| {
                format!(
                    concat!(
                        "{{\"rate\": {}, \"naive_max_rel_error\": {}, ",
                        "\"naive_mean_rel_error\": {}, \"conclusion_flips\": {}, ",
                        "\"events_dropped\": {}, \"events_offered\": {}}}"
                    ),
                    json_num(p.rate),
                    json_num(p.naive_max_rel_error),
                    json_num(p.naive_mean_rel_error),
                    p.conclusion_flips,
                    p.events_dropped,
                    p.events_offered,
                )
            })
            .collect();
        format!(
            concat!(
                "{{\n",
                "  \"benchmark\": \"hlisa measurement-loss reliability study\",\n",
                "  \"config\": {{\"campaign_sites\": {}, \"visits_per_site\": {}}},\n",
                "  \"campaign_visits\": {},\n",
                "  \"drift_curve\": [\n    {}\n  ],\n",
                "  \"strengthened\": {{\"rate\": {}, \"bit_identical_to_pristine\": true, ",
                "\"events_replayed\": {}, \"ops\": {}, \"unit\": \"visits\", ",
                "\"pristine_s\": {}, \"strengthened_s\": {}, \"pristine_per_sec\": {}, ",
                "\"strengthened_per_sec\": {}, \"overhead_ratio\": {}}}\n",
                "}}\n"
            ),
            self.config.campaign_sites,
            self.config.visits_per_site,
            self.campaign_visits,
            curve.join(",\n    "),
            json_num(self.strengthened_rate),
            self.events_replayed,
            self.strengthened_overhead.ops,
            json_num(self.strengthened_overhead.baseline_s),
            json_num(self.strengthened_overhead.optimized_s),
            json_num(self.strengthened_overhead.baseline_rate()),
            json_num(self.strengthened_overhead.optimized_rate()),
            json_num(self.overhead_ratio()),
        )
    }

    /// Human-readable summary.
    pub fn render_human(&self) -> String {
        let mut out = String::from("measurement-loss reliability benchmark\n");
        out.push_str("rate    max err   mean err  flips  dropped/offered\n");
        for p in &self.curve {
            out.push_str(&format!(
                "{:<7.2} {:<9.4} {:<9.4} {:<6} {}/{}\n",
                p.rate,
                p.naive_max_rel_error,
                p.naive_mean_rel_error,
                p.conclusion_flips,
                p.events_dropped,
                p.events_offered,
            ));
        }
        out.push_str(&format!(
            "strengthened @ {:.2}  bit-identical, {} events replayed, x{:.2} overhead\n",
            self.strengthened_rate,
            self.events_replayed,
            self.overhead_ratio(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_well_formed() {
        let report = run(ReliabilityBenchConfig {
            campaign_sites: 12,
            visits_per_site: 2,
        });
        assert_eq!(report.campaign_visits, 2 * 12 * 2);
        assert_eq!(report.curve.len(), LOSS_RATES.len());
        assert_eq!(report.curve[0].naive_max_rel_error, 0.0);
        let harsh = report.curve.last().unwrap();
        assert!(harsh.events_dropped > 0, "harshest point must drop events");
        assert!(report.events_replayed > 0);
        let json = report.to_json();
        for field in [
            "\"drift_curve\"",
            "\"strengthened\"",
            "\"overhead_ratio\"",
            "\"bit_identical_to_pristine\": true",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        let human = report.render_human();
        assert!(human.contains("strengthened @"));
    }
}
