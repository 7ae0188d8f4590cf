//! Chaos-mode campaign benchmark: what the fault plane costs.
//!
//! Two measurements, emitted as `BENCH_chaos.json`:
//!
//! 1. **Rate-0 overhead** — the legacy runner vs the chaos runner with
//!    [`ChaosConfig::off`]. The outputs are asserted bit-identical (the
//!    PR's key invariant), so the comparison isolates the pure plumbing
//!    cost of the fault plane when nothing is injected.
//! 2. **Faulted throughput** — visits/sec at a 5% uniform per-visit
//!    fault rate with the default retry/breaker policy, plus the
//!    resulting `fault.*` / `retry.*` / `breaker.*` counters (asserted
//!    reproducible across the two timed runs).
//!
//! Timing reads the wall clock on purpose, like the other benches: the
//! numbers feed a JSON report, never a simulated observable.

use crate::campaign_bench::Comparison;
use hlisa_crawler::campaign::{run_campaign, CampaignConfig};
use hlisa_crawler::chaos::{run_chaos_campaign, ChaosConfig};
use hlisa_sim::CounterSet;
use hlisa_web::PopulationConfig;
use std::time::Duration;

/// The per-visit fault rate the faulted side runs at.
pub const FAULT_RATE: f64 = 0.05;

/// Benchmark sizing.
#[derive(Debug, Clone, Copy)]
pub struct ChaosBenchConfig {
    /// Sites in the campaign population.
    pub campaign_sites: usize,
    /// Visits per site per machine.
    pub visits_per_site: usize,
}

impl ChaosBenchConfig {
    /// The default run: big enough for stable ratios.
    pub fn full() -> Self {
        Self {
            campaign_sites: 120,
            visits_per_site: 8,
        }
    }

    /// A seconds-scale smoke run for CI.
    pub fn smoke() -> Self {
        Self {
            campaign_sites: 30,
            visits_per_site: 4,
        }
    }
}

/// The chaos benchmark result.
#[derive(Debug, Clone)]
pub struct ChaosBenchReport {
    /// Sizing used.
    pub config: ChaosBenchConfig,
    /// Visits per campaign side (2 machines × sites × visits).
    pub campaign_visits: u64,
    /// Legacy runner (baseline) vs rate-0 chaos runner (optimized):
    /// `speedup` near 1.0 means the fault plane is free when off.
    pub rate_zero: Comparison,
    /// Elapsed seconds for the 5%-fault campaign.
    pub faulted_s: f64,
    /// Attempts actually simulated in the faulted run (visits + retries
    /// − breaker skips).
    pub faulted_attempts: u64,
    /// The faulted run's fault/retry/breaker counters.
    pub counters: CounterSet,
}

fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = std::time::Instant::now();
    let out = f();
    (start.elapsed(), out)
}

fn campaign_config(bench: &ChaosBenchConfig) -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        population: PopulationConfig {
            n_sites: bench.campaign_sites,
            // Keep the paper's 79/1000 unreachable fraction at any sizing;
            // the default's absolute count would drown the breaker/retry
            // numbers in intrinsically dead sites at bench scale.
            unreachable_sites: bench.campaign_sites * 79 / 1000,
            ..PopulationConfig::default()
        },
        visits_per_site: bench.visits_per_site,
        instances: 4,
        ..CampaignConfig::default()
    }
}

/// Runs the whole suite.
pub fn run(config: ChaosBenchConfig) -> ChaosBenchReport {
    let cfg = campaign_config(&config);
    let visits = 2 * config.campaign_sites as u64 * config.visits_per_site as u64;

    let (legacy_t, legacy) = timed(|| run_campaign(&cfg));
    let (zero_t, zero) = timed(|| run_chaos_campaign(&cfg, &ChaosConfig::off()));
    assert_eq!(
        zero.campaign, legacy,
        "rate-0 chaos diverged from the legacy runner"
    );

    let faulted_cfg = ChaosConfig::uniform(FAULT_RATE);
    let (faulted_t, faulted) = timed(|| run_chaos_campaign(&cfg, &faulted_cfg));
    let (_, again) = timed(|| run_chaos_campaign(&cfg, &faulted_cfg));
    assert_eq!(
        faulted.counters(),
        again.counters(),
        "faulted counters not reproducible"
    );

    let attempts: u64 = [&faulted.openwpm_recovery, &faulted.spoofed_recovery]
        .iter()
        .flat_map(|m| &m.sites)
        .map(|s| u64::from(s.total_attempts()))
        .sum();

    ChaosBenchReport {
        config,
        campaign_visits: visits,
        rate_zero: Comparison {
            ops: visits,
            baseline_s: legacy_t.as_secs_f64(),
            optimized_s: zero_t.as_secs_f64(),
        },
        faulted_s: faulted_t.as_secs_f64(),
        faulted_attempts: attempts,
        counters: faulted.counters(),
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

impl ChaosBenchReport {
    /// Visits/sec of the faulted run.
    pub fn faulted_rate(&self) -> f64 {
        self.campaign_visits as f64 / self.faulted_s.max(1e-12)
    }

    /// Serializes the report (hand-rolled, like the campaign bench: the
    /// workspace vendors no JSON writer).
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .entries()
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        format!(
            concat!(
                "{{\n",
                "  \"benchmark\": \"hlisa chaos-mode campaign (fault plane + recovery)\",\n",
                "  \"config\": {{\"campaign_sites\": {}, \"visits_per_site\": {}, ",
                "\"fault_rate\": {}}},\n",
                "  \"rate_zero_overhead\": {{\"ops\": {}, \"unit\": \"visits\", ",
                "\"legacy_s\": {}, \"chaos_off_s\": {}, \"legacy_per_sec\": {}, ",
                "\"chaos_off_per_sec\": {}, \"overhead_ratio\": {}}},\n",
                "  \"faulted\": {{\"ops\": {}, \"unit\": \"visits\", \"attempts\": {}, ",
                "\"elapsed_s\": {}, \"visits_per_sec\": {}}},\n",
                "  \"counters\": {{{}}}\n",
                "}}\n"
            ),
            self.config.campaign_sites,
            self.config.visits_per_site,
            json_num(FAULT_RATE),
            self.rate_zero.ops,
            json_num(self.rate_zero.baseline_s),
            json_num(self.rate_zero.optimized_s),
            json_num(self.rate_zero.baseline_rate()),
            json_num(self.rate_zero.optimized_rate()),
            json_num(self.rate_zero.optimized_s / self.rate_zero.baseline_s.max(1e-12)),
            self.campaign_visits,
            self.faulted_attempts,
            json_num(self.faulted_s),
            json_num(self.faulted_rate()),
            counters.join(", "),
        )
    }

    /// Human-readable summary.
    pub fn render_human(&self) -> String {
        let mut out = String::from("chaos-mode campaign benchmark\n");
        out.push_str(&format!(
            "rate-0 overhead    {:>12.0}/s -> {:>12.0}/s   (x{:.2} elapsed)\n",
            self.rate_zero.baseline_rate(),
            self.rate_zero.optimized_rate(),
            self.rate_zero.optimized_s / self.rate_zero.baseline_s.max(1e-12),
        ));
        out.push_str(&format!(
            "5% faults          {:>12.0} visits/s over {} attempts\n",
            self.faulted_rate(),
            self.faulted_attempts,
        ));
        for (name, value) in self.counters.entries() {
            out.push_str(&format!("  {name:<28} {value}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_well_formed() {
        let report = run(ChaosBenchConfig {
            campaign_sites: 12,
            visits_per_site: 2,
        });
        assert_eq!(report.campaign_visits, 2 * 12 * 2);
        assert!(
            report.faulted_attempts
                >= report.campaign_visits
                    - report.counters.get("breaker.skipped_visits").unwrap_or(0)
        );
        let json = report.to_json();
        for field in [
            "\"rate_zero_overhead\"",
            "\"faulted\"",
            "\"counters\"",
            "\"overhead_ratio\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        let human = report.render_human();
        assert!(human.contains("rate-0 overhead"));
    }
}
