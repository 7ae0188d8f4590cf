//! Reliability-study benchmark: how much measurement loss corrupts the
//! campaign's conclusions.
//!
//! The same seeded campaign is run with naive lossy capture at each rate
//! in [`LOSS_RATES`] and diffed against pristine capture: per-metric
//! relative error over every Table 2 cell and recorder analytic, plus
//! conclusion flips (sign changes of the machine-1-vs-machine-2
//! comparisons). The curve is emitted as facts in
//! `BENCH_reliability.json`.
//!
//! One section is timed, `partial_capture`: the naive capture channel
//! ([`LossyObserver`] over a [`CaptureRecorder`]), whose partial-capture
//! hash runs eight event indices at a time, against the retained scalar
//! reference that asks [`LossSchedule::blame`] once per event. Both sides
//! record the same visits' events, and the suite asserts their records
//! and `loss.*` tallies equal.

use crate::harness::{compare, Report, Section};
use hlisa_crawler::campaign::CampaignConfig;
use hlisa_crawler::reliability::{drift_report, run_captured_campaign, CaptureMode};
use hlisa_sim::metrics::{self, LossSlots};
use hlisa_sim::{LossKind, LossPlan, LossSchedule, LossyObserver, Observer, SimContext};
use hlisa_web::visit::DetectorRuntime;
use hlisa_web::{
    emit_capture_events, generate_population, simulate_visit, CaptureEvent, CaptureRecorder,
    ClientKind, PopulationConfig, VisitOutcome, DEFAULT_VISIT_DEADLINE_MS,
};

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
    /// Visits the `partial_capture` section records per timed run.
    pub capture_visits: usize,
}

impl BenchConfig {
    /// The default run: big enough for stable drift numbers.
    pub fn full() -> Self {
        Self {
            campaign_sites: 480,
            visits_per_site: 8,
            capture_visits: 20_000,
        }
    }

    /// A seconds-scale smoke run for CI.
    pub fn smoke() -> Self {
        Self {
            campaign_sites: 30,
            visits_per_site: 3,
            capture_visits: 10_000,
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

/// Loss rate of the `partial_capture` section: the `adverse_crawl`
/// study's rate, at which nearly every event reaches the hash.
const SECTION_LOSS_RATE: f64 = 0.05;

/// One visit's capture input: its emitted events and its loss schedule,
/// drawn as the campaign's capture stage draws them.
type CapturedInput = (Vec<(f64, CaptureEvent)>, LossSchedule);

/// A naive capture channel: one visit's events and schedule in, the
/// recorded outcome and the channel's tallies out.
type Channel = fn(&[(f64, CaptureEvent)], &LossSchedule) -> (VisitOutcome, LossSlots);

/// `visits` campaign visits over `cfg`'s population, cycling through its
/// sites, ready for the capture channel.
fn capture_inputs(cfg: &CampaignConfig, visits: usize) -> Vec<CapturedInput> {
    let sites = generate_population(&cfg.population);
    let runtime = DetectorRuntime::new();
    let plan = LossPlan::uniform(SECTION_LOSS_RATE);
    let machine = SimContext::new(cfg.seed).fork("m1", 0);
    (0..visits)
        .map(|i| {
            let site = &sites[i % sites.len()];
            let mut ctx = machine.fork_visit(&site.domain, (i / sites.len()) as u64);
            let truth = simulate_visit(site, ClientKind::OpenWpm, &runtime, &mut ctx);
            let schedule = plan.draw(ctx.stream("fault"));
            let events = emit_capture_events(site, &truth, DEFAULT_VISIT_DEADLINE_MS);
            (events, schedule)
        })
        .collect()
}

/// The retained scalar reference of the naive channel: one
/// [`LossSchedule::blame`] — one full label hash — per event.
fn scalar_channel(
    events: &[(f64, CaptureEvent)],
    schedule: &LossSchedule,
) -> (VisitOutcome, LossSlots) {
    let mut recorder = CaptureRecorder::new();
    let mut tally = LossSlots::default();
    for (i, (t, e)) in events.iter().enumerate() {
        tally.add(metrics::LOSS_OFFERED, 1);
        let at = (t / DEFAULT_VISIT_DEADLINE_MS).clamp(0.0, 1.0);
        match schedule.blame(at, i as u64) {
            None => {
                tally.add(metrics::LOSS_DELIVERED, 1);
                recorder.on_event(*t, e);
            }
            Some(kind) => tally.add(metrics::LOSS_DROPPED_KIND + LossKind::index(kind), 1),
        }
    }
    (recorder.into_outcome(), tally)
}

/// The lane-batched channel the capture stage runs.
fn lane_channel(
    events: &[(f64, CaptureEvent)],
    schedule: &LossSchedule,
) -> (VisitOutcome, LossSlots) {
    let mut lossy =
        LossyObserver::new(CaptureRecorder::new(), *schedule, DEFAULT_VISIT_DEADLINE_MS);
    for (t, e) in events {
        lossy.on_event(*t, e);
    }
    let tally = *lossy.tally();
    (lossy.into_inner().into_outcome(), tally)
}

/// Times the naive channel over `inputs`, scalar reference against lane
/// batching, and asserts both record the same visits.
fn partial_capture_section(inputs: &[CapturedInput]) -> Section {
    let events: usize = inputs.iter().map(|(events, _)| events.len()).sum();
    let run = |channel: Channel| {
        inputs
            .iter()
            .map(|(events, schedule)| channel(events, schedule))
            .collect::<Vec<_>>()
    };
    let (section, scalar, lanes) = compare(
        "partial_capture",
        "events",
        events as u64,
        || run(scalar_channel),
        || run(lane_channel),
    );
    assert!(scalar == lanes, "lane-batched capture diverged from blame");
    section
}

/// Runs the whole suite.
pub fn run(config: BenchConfig) -> Report {
    let cfg = campaign_config(&config);
    let mut report = Report::new(
        "hlisa measurement-loss reliability study",
        vec![
            ("campaign_sites", config.campaign_sites as u64),
            ("visits_per_site", config.visits_per_site as u64),
            ("capture_visits", config.capture_visits as u64),
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
    let inputs = capture_inputs(&cfg, config.capture_visits);
    report.sections = vec![partial_capture_section(&inputs)];
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
            capture_visits: 50,
        });
        assert_eq!(
            report.get_fact("campaign_visits"),
            Some((2 * 12 * 2) as f64)
        );
        let section = report.section("partial_capture").unwrap();
        assert!(section.ops > 0 && section.speedup().is_some());
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
