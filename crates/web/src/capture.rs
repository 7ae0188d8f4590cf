//! The capture plane: what a visit *emits* versus what the instrument
//! *records*.
//!
//! The legacy pipeline hands [`VisitOutcome`]s to the crawler directly —
//! implicitly assuming a perfect instrument. Krumnow et al. (PAPERS.md)
//! show that assumption is the weak point of real crawls: OpenWPM's
//! instrumentation attaches late, drops events, and partially captures
//! visits, and the resulting records *look* clean. This module makes the
//! instrument explicit: a visit's ground-truth outcome is flattened into
//! a stream of timestamped [`CaptureEvent`]s ([`emit_capture_events`]),
//! the stream crosses an observer channel (possibly degraded by an
//! `hlisa_sim::LossSchedule`), and a [`CaptureRecorder`] on the far side
//! reconstructs the outcome from whatever arrived.
//!
//! Two properties are load-bearing and pinned by tests:
//!
//! 1. **Emission is RNG-free.** Events are a pure function of the final
//!    outcome and the site's [`VisitTimeline`], so wiring capture into a
//!    campaign cannot perturb any draw sequence — rate-0 captured runs
//!    stay bit-identical to the legacy runners.
//! 2. **Reconstruction inverts emission.** For every outcome shape a
//!    visit can produce, `reconstruct(emit(outcome)) == outcome`; a
//!    pristine channel therefore records exactly the ground truth, and
//!    any drift in a lossy campaign is attributable to the loss plane
//!    alone.

use crate::codes::{StatusCodes, FIRST_PARTY_INLINE, THIRD_PARTY_INLINE};
use crate::site::Site;
use crate::visit::{VisitOutcome, VisitTimeline, VisualOutcome};
use hlisa_sim::metrics::{self, RecorderSlots};
use hlisa_sim::{CounterSet, Observer};

/// One timestamped observation the instrumentation can record about a
/// visit. The stream a visit emits is ordered; HTTP responses partition
/// by party on reconstruction, so interleaving across parties does not
/// carry information.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CaptureEvent {
    /// Navigation committed: the site answered and the document loaded.
    Committed,
    /// One HTTP response observed.
    Http {
        /// Whether the response came from a third-party origin.
        third_party: bool,
        /// The response status code.
        status: u16,
    },
    /// One interaction-chain step completed.
    Step {
        /// 0-based index of the completed step.
        index: u32,
    },
    /// The validation oracle's verdict (ground truth the study keeps
    /// alongside the crawl record).
    Detected {
        /// Whether the site's detector fired on this visit.
        by_detector: bool,
    },
    /// The screenshot-review verdict for the visit.
    Visual {
        /// What the screenshot showed.
        outcome: VisualOutcome,
    },
    /// The visit ran to completion (counted as successful).
    Completed,
}

/// Flattens a visit's final ground-truth `outcome` into the event stream
/// its instrumentation would observe, with timestamps anchored to the
/// site's deterministic [`VisitTimeline`] (fractions of `deadline_ms`
/// are what a `LossSchedule` operates on).
///
/// A never-reached visit emits nothing — there was no connection for an
/// instrument to observe. HTTP responses trickle evenly through the
/// interaction window; step events land at their timeline positions; the
/// terminal verdicts (`Detected`, `Visual`, `Completed`) land at the
/// visit's end — the deadline for visits that ran into it, the end of
/// the planned chain otherwise.
pub fn emit_capture_events(
    site: &Site,
    outcome: &VisitOutcome,
    deadline_ms: f64,
) -> Vec<(f64, CaptureEvent)> {
    let mut events = Vec::new();
    let timeline = VisitTimeline::for_site(site);
    emit_capture_events_into(&timeline, outcome, deadline_ms, &mut events);
    events
}

/// [`emit_capture_events`] on the site's `timeline` into a caller-owned
/// buffer, which is cleared first: a campaign worker reuses one buffer
/// for all its visits, and reads each site's timeline from its
/// [`SiteProfile`](crate::visit::SiteProfile).
pub fn emit_capture_events_into(
    tl: &VisitTimeline,
    outcome: &VisitOutcome,
    deadline_ms: f64,
    events: &mut Vec<(f64, CaptureEvent)>,
) {
    events.clear();
    if !outcome.reached {
        return;
    }
    let committed = (tl.connect_ms + tl.load_ms).min(deadline_ms);
    let chain_end = (committed + f64::from(tl.steps_planned) * tl.step_ms).min(deadline_ms);
    let tail = match outcome.visual {
        // Timeouts and stalls hold the visit until the deadline fires.
        VisualOutcome::Timeout | VisualOutcome::Stalled => deadline_ms,
        _ => chain_end,
    };

    let n_http = outcome.first_party.len() + outcome.third_party.len();
    events.reserve(n_http + tl.steps_planned as usize + 4);
    events.push((committed, CaptureEvent::Committed));

    // Responses arrive spread evenly across the observable window.
    let http_at = |i: usize| committed + (tail - committed) * (i + 1) as f64 / (n_http + 1) as f64;
    let mut slot = 0;
    for &status in &outcome.first_party {
        events.push((
            http_at(slot),
            CaptureEvent::Http {
                third_party: false,
                status,
            },
        ));
        slot += 1;
    }
    for &status in &outcome.third_party {
        events.push((
            http_at(slot),
            CaptureEvent::Http {
                third_party: true,
                status,
            },
        ));
        slot += 1;
    }

    if outcome.successful {
        for index in 0..tl.steps_planned {
            let at = (committed + f64::from(index + 1) * tl.step_ms).min(deadline_ms);
            events.push((at, CaptureEvent::Step { index }));
        }
    }

    events.push((
        tail,
        CaptureEvent::Detected {
            by_detector: outcome.detected,
        },
    ));
    events.push((
        tail,
        CaptureEvent::Visual {
            outcome: outcome.visual,
        },
    ));
    if outcome.successful {
        events.push((tail, CaptureEvent::Completed));
    }
}

/// Streaming [`Observer`] that rebuilds a [`VisitOutcome`] from whatever
/// [`CaptureEvent`]s survive the observer channel.
///
/// Fed a pristine stream it reproduces the ground truth exactly (the
/// round-trip invariant). Fed a degraded stream it records what a real
/// harness would have written down: a visit whose every event vanished
/// is indistinguishable from an unreachable site, a visit whose
/// `Completed` marker was lost looks failed, and a visit whose `Visual`
/// verdict was lost but whose completion survived looks *normal* — the
/// silently-clean corruption mode the reliability study quantifies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CaptureRecorder {
    saw_any: bool,
    completed: bool,
    detected: bool,
    visual: Option<VisualOutcome>,
    first_party: StatusCodes<FIRST_PARTY_INLINE>,
    third_party: StatusCodes<THIRD_PARTY_INLINE>,
    // Per-kind slot counts, named only on `counters()`: a name-keyed add
    // per event of every captured visit is measurable campaign overhead.
    tally: RecorderSlots,
}

impl CaptureRecorder {
    /// A recorder that has seen nothing yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// The visit outcome this recorder would write to the crawl record.
    pub fn outcome(&self) -> VisitOutcome {
        self.clone().into_outcome()
    }

    /// [`outcome`](Self::outcome), consuming the recorder.
    pub fn into_outcome(self) -> VisitOutcome {
        if !self.saw_any {
            return VisitOutcome::unreached();
        }
        let visual = self.visual.unwrap_or(if self.completed {
            VisualOutcome::Normal
        } else {
            VisualOutcome::Timeout
        });
        VisitOutcome {
            reached: true,
            successful: self.completed,
            visual,
            first_party: self.first_party,
            third_party: self.third_party,
            detected: self.detected,
        }
    }

    /// The `recorder.*` counts so far.
    pub fn tally(&self) -> &RecorderSlots {
        &self.tally
    }
}

impl Observer<CaptureEvent> for CaptureRecorder {
    fn on_event(&mut self, _t_ms: f64, event: &CaptureEvent) {
        self.saw_any = true;
        let slot = match event {
            CaptureEvent::Committed => metrics::RECORDER_COMMITTED,
            CaptureEvent::Http {
                third_party,
                status,
            } => {
                if *third_party {
                    self.third_party.push(*status);
                } else {
                    self.first_party.push(*status);
                }
                metrics::RECORDER_HTTP
            }
            CaptureEvent::Step { .. } => metrics::RECORDER_STEPS,
            CaptureEvent::Detected { by_detector } => {
                self.detected |= *by_detector;
                metrics::RECORDER_DETECTED
            }
            CaptureEvent::Visual { outcome } => {
                self.visual = Some(*outcome);
                metrics::RECORDER_VISUAL
            }
            CaptureEvent::Completed => {
                self.completed = true;
                metrics::RECORDER_COMPLETED
            }
        };
        self.tally.add(slot, 1);
    }

    fn counters(&self) -> CounterSet {
        let mut c = CounterSet::new();
        self.tally.render_into(RecorderSlots::SLOTS, &mut c);
        c
    }
}

/// Convenience: reconstructs the outcome a recorder fed `events` would
/// report.
pub fn reconstruct_outcome(events: &[(f64, CaptureEvent)]) -> VisitOutcome {
    let mut recorder = CaptureRecorder::new();
    for (t_ms, event) in events {
        recorder.on_event(*t_ms, event);
    }
    recorder.outcome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::VisitError;
    use crate::population::{generate_population, PopulationConfig};
    use crate::visit::{simulate_visit, ClientKind, DetectorRuntime, DEFAULT_VISIT_DEADLINE_MS};
    use hlisa_sim::{LossSchedule, LossyObserver, SimContext, WriteAheadObserver};

    fn some_site() -> Site {
        generate_population(&PopulationConfig {
            n_sites: 1,
            ..PopulationConfig::default()
        })
        .remove(0)
    }

    #[test]
    fn every_error_shape_round_trips() {
        let site = some_site();
        let errors = [
            VisitError::Unreachable { site_down: true },
            VisitError::Unreachable { site_down: false },
            VisitError::PageLoadTimeout {
                deadline_ms: DEFAULT_VISIT_DEADLINE_MS,
            },
            VisitError::TransientNetwork { status: None },
            VisitError::TransientNetwork { status: Some(504) },
        ];
        for error in errors {
            let truth = error.to_outcome();
            let events = emit_capture_events(&site, &truth, DEFAULT_VISIT_DEADLINE_MS);
            assert_eq!(
                reconstruct_outcome(&events),
                truth,
                "{error:?} did not round-trip"
            );
        }
    }

    #[test]
    fn scenario_visuals_round_trip() {
        let site = some_site();
        for visual in [
            VisualOutcome::StuckOnOverlay,
            VisualOutcome::MissingLazyContent,
            VisualOutcome::StaleElement,
            VisualOutcome::BlockPage,
            VisualOutcome::NoAds,
        ] {
            let truth = VisitOutcome {
                reached: true,
                successful: true,
                visual,
                first_party: vec![200, 404, 200].into(),
                third_party: vec![200, 302].into(),
                detected: visual == VisualOutcome::BlockPage,
            };
            let events = emit_capture_events(&site, &truth, DEFAULT_VISIT_DEADLINE_MS);
            assert_eq!(reconstruct_outcome(&events), truth);
        }
    }

    /// Every simulated visit round-trips, and its recorder's counts
    /// absorb like one recorder's over any split of its events.
    #[test]
    fn simulated_population_round_trips() {
        let sites = generate_population(&PopulationConfig {
            n_sites: 60,
            unreachable_sites: 5,
            ..PopulationConfig::default()
        });
        let rt = DetectorRuntime::new();
        for client in [ClientKind::OpenWpm, ClientKind::OpenWpmSpoofed] {
            let mut ctx = SimContext::new(21);
            for site in &sites {
                let truth = simulate_visit(site, client, &rt, &mut ctx);
                let events = emit_capture_events(site, &truth, DEFAULT_VISIT_DEADLINE_MS);
                assert_eq!(
                    reconstruct_outcome(&events),
                    truth,
                    "{client:?} {} did not round-trip",
                    site.domain
                );
                // Recorders over a split of the events absorb into the
                // whole recorder's tally and render what their merged
                // counters say, under registered names.
                let mut whole = CaptureRecorder::new();
                let mut parts = [CaptureRecorder::new(), CaptureRecorder::new()];
                for (i, (t, e)) in events.iter().enumerate() {
                    whole.on_event(*t, e);
                    parts[i % 2].on_event(*t, e);
                }
                let mut absorbed = *parts[0].tally();
                absorbed.absorb(parts[1].tally());
                assert_eq!(&absorbed, whole.tally());
                let mut merged = parts[0].counters();
                merged.merge(&parts[1].counters());
                assert_eq!(merged.sorted(), whole.counters().sorted());
                for (name, _) in whole.counters().entries() {
                    assert!(hlisa_sim::metric_info(name).is_some(), "{name}");
                }
            }
        }
    }

    #[test]
    fn unreached_visits_emit_nothing_and_reconstruct_to_unreached() {
        let site = some_site();
        let truth = VisitOutcome::unreached();
        let events = emit_capture_events(&site, &truth, DEFAULT_VISIT_DEADLINE_MS);
        assert!(events.is_empty());
        assert_eq!(reconstruct_outcome(&events), truth);
    }

    #[test]
    fn event_times_stay_inside_the_deadline() {
        let site = some_site();
        let truth = VisitOutcome {
            reached: true,
            successful: true,
            visual: VisualOutcome::Normal,
            first_party: vec![200; 10].into(),
            third_party: vec![200; 20].into(),
            detected: false,
        };
        let events = emit_capture_events(&site, &truth, DEFAULT_VISIT_DEADLINE_MS);
        for (t, _) in &events {
            assert!((0.0..=DEFAULT_VISIT_DEADLINE_MS).contains(t));
        }
    }

    #[test]
    fn total_loss_is_indistinguishable_from_an_unreachable_site() {
        let site = some_site();
        let truth = VisitOutcome {
            reached: true,
            successful: true,
            visual: VisualOutcome::Normal,
            first_party: vec![200].into(),
            third_party: vec![].into(),
            detected: false,
        };
        let events = emit_capture_events(&site, &truth, DEFAULT_VISIT_DEADLINE_MS);
        // A channel that never attaches delivers nothing.
        let schedule = LossSchedule {
            attach_at: 1.1,
            ..LossSchedule::pristine()
        };
        let mut lossy =
            LossyObserver::new(CaptureRecorder::new(), schedule, DEFAULT_VISIT_DEADLINE_MS);
        for (t, e) in &events {
            lossy.on_event(*t, e);
        }
        assert_eq!(lossy.inner().outcome(), VisitOutcome::unreached());
    }

    #[test]
    fn losing_the_completed_marker_makes_a_clean_visit_look_failed() {
        let site = some_site();
        let truth = VisitOutcome {
            reached: true,
            successful: true,
            visual: VisualOutcome::Normal,
            first_party: vec![200, 200].into(),
            third_party: vec![200].into(),
            detected: false,
        };
        let events = emit_capture_events(&site, &truth, DEFAULT_VISIT_DEADLINE_MS);
        let mut recorder = CaptureRecorder::new();
        for (t, e) in &events {
            if !matches!(e, CaptureEvent::Completed) {
                recorder.on_event(*t, e);
            }
        }
        let observed = recorder.outcome();
        assert!(observed.reached && !observed.successful);
    }

    #[test]
    fn write_ahead_capture_recovers_the_pristine_record() {
        let sites = generate_population(&PopulationConfig {
            n_sites: 20,
            ..PopulationConfig::default()
        });
        let rt = DetectorRuntime::new();
        let mut ctx = SimContext::new(33);
        for site in &sites {
            let truth = simulate_visit(site, ClientKind::OpenWpm, &rt, &mut ctx);
            let events = emit_capture_events(site, &truth, DEFAULT_VISIT_DEADLINE_MS);
            // The instrument attaches only after the whole visit — the
            // worst late-attach case — yet write-ahead capture replays
            // the buffered stream and the record matches ground truth.
            let mut wal = WriteAheadObserver::detached(CaptureRecorder::new());
            for (t, e) in &events {
                wal.on_event(*t, e);
            }
            assert_eq!(wal.into_inner().outcome(), truth, "{}", site.domain);
        }
    }
}
