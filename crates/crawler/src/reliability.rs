//! The reliability study: paired campaigns with pristine, lossy, and
//! strengthened capture — the Krumnow et al. reproduction.
//!
//! Krumnow et al. ("Analysing and strengthening OpenWPM's reliability",
//! PAPERS.md) show that real crawls silently lose data: instrumentation
//! attaches late, observers drop events, and partial captures masquerade
//! as clean records. This module reproduces that study on our own stack:
//! [`run_captured_campaign`] executes the standard two-machine campaign
//! but routes every visit's ground truth through an explicit capture
//! pipeline (`hlisa_web::capture`), degraded per visit by a
//! `hlisa_sim::LossSchedule` drawn from the `"fault"` stream family; and
//! [`run_reliability_study`] runs the same seeded campaign under all
//! three [`CaptureMode`]s — one engine pass over both machines, each
//! visit's events feeding all three modes' observers — and diffs the
//! resulting Table 2 rows and recorder analytics into a [`DriftReport`]
//! (per-metric relative error and conclusion flips).
//!
//! The capture stage is stage 5 of the one visit pipeline
//! ([`crate::campaign`]): it runs after the attempt, the scenario drive
//! and the planner, and draws its loss schedule from the visit's
//! `"fault"` stream after any fault-plane draws, so it composes with the
//! fault stage. The schedule is drawn once per visit whatever the number
//! of modes, so every mode sees the schedule a one-mode run would draw.
//!
//! Invariants pinned by `tests/reliability_loss.rs`:
//!
//! * a **pristine** captured campaign is bit-identical to
//!   [`run_campaign`](crate::campaign::run_campaign) — capture emission
//!   and reconstruction are draw-free and exactly inverse;
//! * a **rate-0** lossy campaign is bit-identical too — a no-op
//!   [`LossPlan`] consumes zero RNG draws;
//! * a **strengthened** campaign (write-ahead capture + attach barrier)
//!   is bit-identical to pristine *for any seed and loss rate*, while
//!   naive-lossy campaigns drift at any positive rate.

use crate::campaign::{
    crawl_both, Campaign, CampaignConfig, MachineRun, Pipeline, SiteResult, MACHINES,
};
use crate::screenshot::{screenshot_table, Table2};
use hlisa_sim::metrics::{RecorderSlots, METRIC_REGISTRY};
use hlisa_sim::{
    CounterSet, LossPlan, LossSchedule, LossyObserver, Observer, Tally, WriteAheadObserver,
};
use hlisa_web::{
    generate_population, CaptureEvent, CaptureRecorder, Site, VisitOutcome,
    DEFAULT_VISIT_DEADLINE_MS,
};

/// How a campaign's capture pipeline handles the loss plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureMode {
    /// Perfect instrumentation: every emitted event is recorded. The
    /// reference the other modes are diffed against.
    Pristine,
    /// The naive pipeline: the observer channel silently loses whatever
    /// the per-visit [`LossSchedule`] says — late attach, dropout
    /// windows, partial capture — and the record looks clean anyway.
    NaiveLossy,
    /// The strengthened pipeline: write-ahead event capture (events
    /// buffered at emission, upstream of the lossy channel) plus an
    /// attach barrier (buffered events replayed into the observer when
    /// instrumentation acks). Provably recovers the pristine record.
    Strengthened,
}

impl CaptureMode {
    /// Every mode, in the order the reliability study reports them.
    pub const ALL: [CaptureMode; 3] = [
        CaptureMode::Pristine,
        CaptureMode::NaiveLossy,
        CaptureMode::Strengthened,
    ];

    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CaptureMode::Pristine => "pristine",
            CaptureMode::NaiveLossy => "naive_lossy",
            CaptureMode::Strengthened => "strengthened",
        }
    }
}

/// A campaign as its instrument recorded it, plus the capture pipeline's
/// own telemetry (`loss.*` / `capture.*` / `recorder.*` counters, merged
/// over every visit of both machines, in canonical sorted order).
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedCampaign {
    /// The mode the pipeline ran in.
    pub mode: CaptureMode,
    /// The campaign as recorded — ground truth only under
    /// [`CaptureMode::Pristine`] (or a no-op plan).
    pub campaign: Campaign,
    /// Merged capture-pipeline counters.
    pub analytics: CounterSet,
}

/// One visit's trip through one mode's capture pipeline: the visit's
/// emitted `events` in, the recorded outcome out, the observers' counts
/// added to `tally`. Draw-free: the mode's loss `schedule` was drawn
/// once for every mode of the visit. `write_ahead` is the worker's
/// retained buffer, lent to the strengthened mode's write-ahead channel
/// and handed back with the capacity it reached.
pub(crate) fn captured_visit(
    events: &[(f64, CaptureEvent)],
    schedule: LossSchedule,
    mode: CaptureMode,
    tally: &mut Tally,
    write_ahead: &mut Vec<(f64, CaptureEvent)>,
) -> VisitOutcome {
    let recorder = match mode {
        CaptureMode::Pristine => {
            let mut recorder = CaptureRecorder::new();
            for (t, e) in events {
                recorder.on_event(*t, e);
            }
            recorder
        }
        CaptureMode::NaiveLossy => {
            let mut lossy =
                LossyObserver::new(CaptureRecorder::new(), schedule, DEFAULT_VISIT_DEADLINE_MS);
            for (t, e) in events {
                lossy.on_event(*t, e);
            }
            tally.absorb(lossy.tally());
            lossy.into_inner()
        }
        CaptureMode::Strengthened => {
            // Write-ahead capture sits at the emission site, upstream of
            // the lossy channel, so dropout and partial capture cannot
            // touch what it buffers. The attach barrier acks at the first
            // event on or after the schedule's attach point; everything
            // emitted before that replays from the buffer.
            let buffer = std::mem::take(write_ahead);
            let mut wal = WriteAheadObserver::detached_with(CaptureRecorder::new(), buffer);
            let attach_at_ms = schedule.attach_at * DEFAULT_VISIT_DEADLINE_MS;
            let split = events
                .iter()
                .position(|(t, _)| *t >= attach_at_ms)
                .unwrap_or(events.len());
            wal.reserve(split);
            for (t, e) in &events[..split] {
                wal.on_event(*t, e);
            }
            wal.attach();
            for (t, e) in &events[split..] {
                wal.on_event(*t, e);
            }
            tally.absorb(wal.tally());
            let (recorder, buffer) = wal.into_parts();
            *write_ahead = buffer;
            recorder
        }
    };
    tally.absorb(recorder.tally());
    recorder.into_outcome()
}

/// One mode's share of a capture pass: both machines' records and
/// capture counters.
type ModeRecords = ((Vec<SiteResult>, Vec<SiteResult>), (CounterSet, CounterSet));

/// One capture pass of both machines over `sites`, recording in every
/// mode of `modes`: each mode's share, in order.
fn capture_pass(
    config: &CampaignConfig,
    sites: &[Site],
    plan: &LossPlan,
    modes: &[CaptureMode],
) -> impl Iterator<Item = ModeRecords> {
    let pipeline = Pipeline {
        faults: None,
        capture: Some((plan, modes)),
    };
    let ([m1, m2], [t1, t2]) = crawl_both(config, sites, &pipeline);
    let records = m1.records.into_iter().zip(m2.records);
    records.zip(t1.captures.into_iter().zip(t2.captures))
}

/// `mode`'s campaign over `sites` from its share of a capture pass, the
/// machines' counters merged.
fn captured(mode: CaptureMode, sites: Vec<Site>, share: ModeRecords) -> CapturedCampaign {
    let ((openwpm, spoofed), (mut analytics, spoofed_counters)) = share;
    analytics.merge(&spoofed_counters);
    let run = |client, sites| MachineRun { client, sites };
    CapturedCampaign {
        mode,
        campaign: Campaign {
            sites,
            openwpm: run(MACHINES[0], openwpm),
            spoofed: run(MACHINES[1], spoofed),
        },
        analytics: analytics.sorted(),
    }
}

/// Runs the standard two-machine campaign through the capture pipeline
/// in one mode: the visit pipeline with its capture stage on, recording
/// in a one-mode set — the same pass [`run_reliability_study`] makes
/// with all three modes.
pub fn run_captured_campaign(
    config: &CampaignConfig,
    plan: &LossPlan,
    mode: CaptureMode,
) -> CapturedCampaign {
    let sites = generate_population(&config.population);
    // A one-mode pass yields one share.
    let share = capture_pass(config, &sites, plan, &[mode]).next();
    captured(mode, sites, share.unwrap_or_default())
}

/// One metric's drift between the pristine and an observed campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDrift {
    /// Metric name, e.g. `"blocking/CAPTCHAs sites m1"`.
    pub metric: String,
    /// The metric under pristine capture.
    pub pristine: f64,
    /// The metric as the degraded instrument recorded it.
    pub observed: f64,
    /// `|observed - pristine| / pristine` (1.0 when pristine is zero and
    /// the observed value is not).
    pub rel_error: f64,
}

/// How far an observed campaign's conclusions drifted from pristine.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Per-metric drift over every Table 2 cell and every comparable
    /// `recorder.*` analytic.
    pub metrics: Vec<MetricDrift>,
    /// Table 2 comparisons whose machine-1-vs-machine-2 ordering
    /// *changed sign* under loss — the conclusion-corrupting failure
    /// mode, not just noisy magnitudes.
    pub conclusion_flips: Vec<String>,
}

impl DriftReport {
    /// The largest per-metric relative error.
    pub fn max_rel_error(&self) -> f64 {
        self.metrics.iter().map(|m| m.rel_error).fold(0.0, f64::max)
    }

    /// The mean per-metric relative error.
    pub fn mean_rel_error(&self) -> f64 {
        if self.metrics.is_empty() {
            return 0.0;
        }
        self.metrics.iter().map(|m| m.rel_error).sum::<f64>() / self.metrics.len() as f64
    }

    /// True when nothing drifted: every metric exact, no flips.
    pub fn is_zero(&self) -> bool {
        self.conclusion_flips.is_empty() && self.metrics.iter().all(|m| m.rel_error == 0.0)
    }
}

fn rel_error(pristine: f64, observed: f64) -> f64 {
    if pristine == 0.0 {
        if observed == 0.0 {
            0.0
        } else {
            1.0
        }
    } else {
        (observed - pristine).abs() / pristine
    }
}

/// Diffs an observed campaign against the pristine reference: every
/// Table 2 cell, the sign of every machine-1-vs-machine-2 comparison,
/// and the comparable `recorder.*` analytics.
pub fn drift_report(pristine: &CapturedCampaign, observed: &CapturedCampaign) -> DriftReport {
    drift_from(&screenshot_table(&pristine.campaign), pristine, observed)
}

/// [`drift_report`] against the pristine campaign's already computed
/// Table 2, `table_p`.
fn drift_from(
    table_p: &Table2,
    pristine: &CapturedCampaign,
    observed: &CapturedCampaign,
) -> DriftReport {
    let table_o = screenshot_table(&observed.campaign);
    let mut metrics = Vec::new();
    let mut conclusion_flips = Vec::new();

    for row_p in &table_p.rows {
        let Some(row_o) = table_o.row(&row_p.label) else {
            continue;
        };
        let cells = [
            ("sites m1", row_p.sites.0, row_o.sites.0),
            ("sites m2", row_p.sites.1, row_o.sites.1),
            ("visits m1", row_p.visits.0, row_o.visits.0),
            ("visits m2", row_p.visits.1, row_o.visits.1),
        ];
        for (cell, p, o) in cells {
            metrics.push(MetricDrift {
                metric: format!("{} {}", row_p.label, cell),
                pristine: p as f64,
                observed: o as f64,
                rel_error: rel_error(p as f64, o as f64),
            });
        }
        // The study's conclusions are *comparative*: machine 1 shows
        // more blocking than machine 2, etc. A flip is a sign change of
        // that difference under loss.
        let flips = |p1: usize, p2: usize, o1: usize, o2: usize| {
            (p1 as i64 - p2 as i64).signum() != (o1 as i64 - o2 as i64).signum()
        };
        if flips(row_p.sites.0, row_p.sites.1, row_o.sites.0, row_o.sites.1) {
            conclusion_flips.push(format!("{} (sites)", row_p.label));
        }
        if flips(
            row_p.visits.0,
            row_p.visits.1,
            row_o.visits.0,
            row_o.visits.1,
        ) {
            conclusion_flips.push(format!("{} (visits)", row_p.label));
        }
    }

    // Recorder analytics present under pristine capture are comparable
    // across modes (loss.* / capture.* telemetry is mode-specific and
    // left out).
    let recorder = &METRIC_REGISTRY[RecorderSlots::SLOTS];
    for (name, p) in pristine.analytics.entries() {
        if !recorder.iter().any(|m| m.name == name) {
            continue;
        }
        let o = observed.analytics.get(name).unwrap_or(0);
        metrics.push(MetricDrift {
            metric: name.clone(),
            pristine: *p as f64,
            observed: o as f64,
            rel_error: rel_error(*p as f64, o as f64),
        });
    }

    DriftReport {
        metrics,
        conclusion_flips,
    }
}

/// The full paired-campaign reliability study over one loss plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityStudy {
    /// The campaign under perfect instrumentation.
    pub pristine: CapturedCampaign,
    /// The same seeded campaign under naive lossy capture.
    pub naive: CapturedCampaign,
    /// The same seeded campaign under strengthened capture.
    pub strengthened: CapturedCampaign,
    /// Naive-vs-pristine drift.
    pub naive_drift: DriftReport,
    /// Strengthened-vs-pristine drift (all-zero by construction; the
    /// proptest pins the stronger bit-identity claim).
    pub strengthened_drift: DriftReport,
}

/// Runs the same seeded campaign under all three capture modes and
/// diffs the results — the Krumnow-style reliability comparison.
///
/// The campaign runs once: every visit is attempted, scenario-driven and
/// emitted once, draws one loss schedule, and its events feed all three
/// modes' observers ([`CaptureMode::ALL`]). The result equals three
/// separate [`run_captured_campaign`] runs plus [`drift_report`]s, field
/// for field, because capture is the pipeline's last stage and is
/// draw-free apart from the schedule every mode draws at the same point
/// of the visit's `"fault"` stream. The pristine Table 2 is computed once
/// for both drift reports.
pub fn run_reliability_study(config: &CampaignConfig, plan: &LossPlan) -> ReliabilityStudy {
    let sites = generate_population(&config.population);
    let mut pass = capture_pass(config, &sites, plan, &CaptureMode::ALL);
    let [p, n, s] = CaptureMode::ALL;
    // The population is cloned for all modes but the last.
    let [pristine, naive, strengthened] = [(p, sites.clone()), (n, sites.clone()), (s, sites)]
        .map(|(mode, sites)| captured(mode, sites, pass.next().unwrap_or_default()));
    let table_p = screenshot_table(&pristine.campaign);
    let naive_drift = drift_from(&table_p, &pristine, &naive);
    let strengthened_drift = drift_from(&table_p, &pristine, &strengthened);
    ReliabilityStudy {
        pristine,
        naive,
        strengthened,
        naive_drift,
        strengthened_drift,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use hlisa_web::PopulationConfig;

    fn study_config() -> CampaignConfig {
        CampaignConfig {
            seed: 41,
            population: PopulationConfig {
                n_sites: 50,
                unreachable_sites: 4,
                webdriver_visible: (2, 1, 1, 1),
                template_visible: (1, 1, 1),
                silent_http: (2, 1),
                breakage_sites: 1,
                ..PopulationConfig::default()
            },
            visits_per_site: 3,
            instances: 4,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn pristine_capture_records_the_ground_truth() {
        let config = study_config();
        let truth = run_campaign(&config);
        let captured = run_captured_campaign(&config, &LossPlan::none(), CaptureMode::Pristine);
        assert_eq!(captured.campaign, truth);
    }

    #[test]
    fn naive_lossy_campaigns_drift_and_account_for_the_loss() {
        let config = study_config();
        let study = run_reliability_study(&config, &LossPlan::uniform(0.4));
        let dropped = study.naive.analytics.get("loss.dropped").unwrap_or(0);
        assert!(dropped > 0, "a 40% loss plan must drop events");
        assert!(
            study.naive_drift.max_rel_error() > 0.0,
            "naive capture at 40% loss must drift"
        );
        assert_ne!(study.naive.campaign, study.pristine.campaign);
    }

    #[test]
    fn strengthened_capture_is_bit_identical_to_pristine() {
        let config = study_config();
        let study = run_reliability_study(&config, &LossPlan::uniform(0.5));
        assert_eq!(study.strengthened.campaign, study.pristine.campaign);
        assert!(study.strengthened_drift.is_zero());
        // The write-ahead buffer actually did work: late-attach visits
        // replayed their buffered prefixes.
        assert!(
            study
                .strengthened
                .analytics
                .get("capture.replayed")
                .unwrap_or(0)
                > 0
        );
    }

    #[test]
    fn drift_report_flags_conclusion_flips() {
        // Construct a synthetic flip: pristine says m1 > m2, observed
        // says m1 < m2 on the blocking row.
        let config = study_config();
        let pristine = run_captured_campaign(&config, &LossPlan::none(), CaptureMode::Pristine);
        let mut observed = pristine.clone();
        // Swap the two machines' records wholesale: every comparative
        // conclusion with a nonzero pristine difference must flip.
        std::mem::swap(
            &mut observed.campaign.openwpm.sites,
            &mut observed.campaign.spoofed.sites,
        );
        let report = drift_report(&pristine, &observed);
        assert!(
            !report.conclusion_flips.is_empty(),
            "swapped machines must flip at least one comparison"
        );
        assert!(!report.is_zero());
    }

    #[test]
    fn self_drift_is_zero() {
        let config = study_config();
        let pristine = run_captured_campaign(&config, &LossPlan::none(), CaptureMode::Pristine);
        let report = drift_report(&pristine, &pristine);
        assert!(report.is_zero());
        assert_eq!(report.max_rel_error(), 0.0);
        assert_eq!(report.mean_rel_error(), 0.0);
    }
}
