//! The metric dictionary, and the per-layer metrics a traced run derives
//! from its spans.

use crate::stats::RoundStats;
use crate::trace::{RoundTrace, Span, Tally, Totals};
use crate::workload::Inputs;

/// An end-to-end metric: what a user of the crawler sees, measured with
/// tracing off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// Every end-to-end metric, as `BENCHMARK.json` declares it.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "visits_per_s",
        unit: "visits/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
];

/// Every per-layer metric with its unit and direction, as `BENCHMARK.json` declares
/// them. Every workload reports every one. Time a layer spends is given as
/// a share of the round's worker capacity, so a layer a workload never
/// calls reads an exact 0 rather than a missing value; the shares and
/// `crawler.campaign.unaccounted_share` sum to 1.
pub const PER_LAYER: [(&str, &str, &str); 45] = [
    ("crawler.campaign.shards", "count", "higher"),
    ("crawler.campaign.worker_busy_share", "share", "higher"),
    ("crawler.campaign.tail_idle_ms", "ms", "lower"),
    ("crawler.campaign.unaccounted_share", "share", "lower"),
    ("crawler.campaign.self_share", "share", "lower"),
    ("crawler.campaign.shard_ms_p50", "ms", "lower"),
    ("crawler.campaign.shard_ms_p99", "ms", "lower"),
    ("web.population.ns_per_site", "ns", "lower"),
    ("web.population.self_share", "share", "lower"),
    ("sim.context.fork_visit_ns", "ns", "lower"),
    ("sim.context.self_share", "share", "lower"),
    ("web.visit.calls", "count", "higher"),
    ("web.visit.detector_calls", "count", "higher"),
    ("web.visit.success_ratio", "ratio", "higher"),
    ("web.visit.plain_ns_p50", "ns", "lower"),
    ("web.visit.plain_ns_p99", "ns", "lower"),
    ("web.visit.detector_ns_p50", "ns", "lower"),
    ("web.visit.detector_ns_p99", "ns", "lower"),
    ("web.visit.self_share", "share", "lower"),
    ("crawler.scenario.calls", "count", "higher"),
    ("crawler.scenario.self_share", "share", "lower"),
    ("crawler.scenario.selenium_share", "share", "lower"),
    ("crawler.scenario.hlisa_share", "share", "lower"),
    ("crawler.scenario.cookie_banner_share", "share", "lower"),
    ("crawler.scenario.lazy_content_share", "share", "lower"),
    ("crawler.scenario.spa_mutation_share", "share", "lower"),
    ("crawler.scenario.selenium_landed_ratio", "ratio", "higher"),
    ("crawler.scenario.hlisa_landed_ratio", "ratio", "higher"),
    ("sim.fault.draw_share", "share", "lower"),
    ("crawler.recovery.self_share", "share", "lower"),
    ("crawler.recovery.attempts_per_visit", "ratio", "lower"),
    ("crawler.recovery.retries", "count", "lower"),
    ("crawler.recovery.breaker_skips", "count", "lower"),
    ("web.capture.events", "count", "higher"),
    ("web.capture.emit_share", "share", "lower"),
    ("sim.observer.pristine_share", "share", "lower"),
    ("sim.observer.naive_lossy_share", "share", "lower"),
    ("sim.observer.strengthened_share", "share", "lower"),
    ("sim.observer.merge_share", "share", "lower"),
    ("sim.observer.dropped_events", "count", "lower"),
    ("sim.loss.draw_share", "share", "lower"),
    ("crawler.reliability.drift_share", "share", "lower"),
    ("bench.fold_ns_per_site", "ns", "lower"),
    ("bench.fold_share", "share", "lower"),
    ("trace.overhead_share", "share", "lower"),
];

/// The unit of a metric of either kind.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median of `values` (which must not be empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default, exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (ld, n) = (v.len(), 4usize);
    let m = ld + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    })
}

/// Per-layer metrics from a traced run: its traced rounds (all with the
/// inputs and statistics of `stats`) and the measured tracing overhead.
pub fn per_layer(
    inputs: &Inputs,
    stats: &RoundStats,
    rounds: &[RoundTrace],
    overhead_share: f64,
) -> Vec<(&'static str, f64)> {
    let mut t = Totals::default();
    for r in rounds {
        t.merge(&r.totals);
    }
    let n_rounds = rounds.len() as f64;
    let per_round = |x: u64| x as f64 / n_rounds;
    let capacity: f64 = rounds.iter().map(|r| r.capacity().as_nanos() as f64).sum();
    let ns = |spans: &[Span]| spans.iter().map(|s| t.ns(*s) as f64).sum::<f64>();
    let share = |spans: &[Span]| ns(spans) / capacity;
    let calls = |spans: &[Span]| spans.iter().map(|s| t.count(*s)).sum::<u64>();

    let shard_ns = t.ns(Span::Shard) as f64;
    let leaf_ns = ns(&Span::ALL[1..]);
    let covered = shard_ns + (leaf_ns - t.child_ns as f64);
    let parallel: f64 = rounds
        .iter()
        .flat_map(|r| &r.phases)
        .map(|p| p.wall.as_nanos() as f64 * p.threads as f64)
        .sum();
    let tail_idle: Vec<f64> = rounds
        .iter()
        .map(|r| {
            let idle: std::time::Duration = r.phases.iter().map(|p| p.tail_idle).sum();
            idle.as_secs_f64() * 1e3
        })
        .collect();

    use Span::*;
    let visit = [VisitPlain, VisitDetector];
    let selenium = [
        SeleniumCookieBanner,
        SeleniumLazyContent,
        SeleniumSpaMutation,
    ];
    let hlisa = [HlisaCookieBanner, HlisaLazyContent, HlisaSpaMutation];
    let scenario: Vec<Span> = selenium.iter().chain(&hlisa).copied().collect();
    let visit_calls = calls(&visit) as f64;
    let sites_folded: u64 = stats.machines.iter().map(|(_, m)| m.sites).sum();

    vec![
        ("crawler.campaign.shards", per_round(t.count(Shard))),
        (
            "crawler.campaign.worker_busy_share",
            ratio(shard_ns, parallel),
        ),
        ("crawler.campaign.tail_idle_ms", median(&tail_idle)),
        (
            "crawler.campaign.unaccounted_share",
            1.0 - covered / capacity,
        ),
        (
            "crawler.campaign.self_share",
            (shard_ns - t.child_ns as f64 + ns(&[CampaignSerial])) / capacity,
        ),
        (
            "crawler.campaign.shard_ms_p50",
            t.quantile_ns(Shard, 0.50) / 1e6,
        ),
        (
            "crawler.campaign.shard_ms_p99",
            t.quantile_ns(Shard, 0.99) / 1e6,
        ),
        (
            "web.population.ns_per_site",
            ratio(ns(&[Population]), t.tally(Tally::SitesMaterialised) as f64),
        ),
        ("web.population.self_share", share(&[Population])),
        (
            "sim.context.fork_visit_ns",
            ratio(ns(&[ForkVisit]), t.count(ForkVisit) as f64),
        ),
        ("sim.context.self_share", share(&[ForkVisit])),
        ("web.visit.calls", per_round(calls(&visit))),
        (
            "web.visit.detector_calls",
            per_round(t.count(VisitDetector)),
        ),
        (
            "web.visit.success_ratio",
            ratio(t.tally(Tally::VisitSuccess) as f64, visit_calls),
        ),
        ("web.visit.plain_ns_p50", t.quantile_ns(VisitPlain, 0.50)),
        ("web.visit.plain_ns_p99", t.quantile_ns(VisitPlain, 0.99)),
        (
            "web.visit.detector_ns_p50",
            t.quantile_ns(VisitDetector, 0.50),
        ),
        (
            "web.visit.detector_ns_p99",
            t.quantile_ns(VisitDetector, 0.99),
        ),
        ("web.visit.self_share", share(&visit)),
        ("crawler.scenario.calls", per_round(calls(&scenario))),
        ("crawler.scenario.self_share", share(&scenario)),
        ("crawler.scenario.selenium_share", share(&selenium)),
        ("crawler.scenario.hlisa_share", share(&hlisa)),
        (
            "crawler.scenario.cookie_banner_share",
            share(&[SeleniumCookieBanner, HlisaCookieBanner]),
        ),
        (
            "crawler.scenario.lazy_content_share",
            share(&[SeleniumLazyContent, HlisaLazyContent]),
        ),
        (
            "crawler.scenario.spa_mutation_share",
            share(&[SeleniumSpaMutation, HlisaSpaMutation]),
        ),
        (
            "crawler.scenario.selenium_landed_ratio",
            ratio(
                t.tally(Tally::SeleniumLanded) as f64,
                t.tally(Tally::SeleniumEligible) as f64,
            ),
        ),
        (
            "crawler.scenario.hlisa_landed_ratio",
            ratio(
                t.tally(Tally::HlisaLanded) as f64,
                t.tally(Tally::HlisaEligible) as f64,
            ),
        ),
        ("sim.fault.draw_share", share(&[FaultDraw])),
        ("crawler.recovery.self_share", share(&[Recovery])),
        (
            "crawler.recovery.attempts_per_visit",
            visit_calls / n_rounds / inputs.visits_per_round() as f64,
        ),
        (
            "crawler.recovery.retries",
            stats.counter("chaos.retry.scheduled") as f64,
        ),
        (
            "crawler.recovery.breaker_skips",
            stats.counter("chaos.breaker.skipped_visits") as f64,
        ),
        (
            "web.capture.events",
            per_round(t.tally(Tally::CaptureEvents)),
        ),
        ("web.capture.emit_share", share(&[CaptureEmit])),
        ("sim.observer.pristine_share", share(&[ObserverPristine])),
        (
            "sim.observer.naive_lossy_share",
            share(&[ObserverNaiveLossy]),
        ),
        (
            "sim.observer.strengthened_share",
            share(&[ObserverStrengthened]),
        ),
        ("sim.observer.merge_share", share(&[ObserverMerge])),
        (
            "sim.observer.dropped_events",
            stats.counter("naive_lossy.loss.dropped") as f64,
        ),
        ("sim.loss.draw_share", share(&[LossDraw])),
        ("crawler.reliability.drift_share", share(&[Drift])),
        (
            "bench.fold_ns_per_site",
            ratio(ns(&[Fold]), sites_folded as f64 * n_rounds),
        ),
        ("bench.fold_share", share(&[Fold])),
        ("trace.overhead_share", overhead_share),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|(n, _, _)| *n))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(!names[i + 1..].contains(n), "{n} twice");
        }
    }

    /// `BENCHMARK.json` declares exactly the dictionary above: one line
    /// per metric, in order.
    #[test]
    fn benchmark_json_matches_the_dictionary() {
        let json = include_str!("../../BENCHMARK.json");
        let mut lines = json
            .lines()
            .filter(|l| l.contains("\"name\"") && l.contains("\"unit\""));
        for m in END_TO_END {
            let want = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            let line = lines.next().expect("an end_to_end line per metric");
            assert!(line.contains(&want), "{line} != {want}");
        }
        for (name, unit, better) in PER_LAYER {
            let want =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            let line = lines.next().expect("a per_layer line per metric");
            assert!(line.contains(&want), "{line} != {want}");
        }
        assert!(lines.next().is_none(), "BENCHMARK.json has extra metrics");
    }
}
