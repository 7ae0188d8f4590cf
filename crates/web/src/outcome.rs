//! Visit-level failure semantics: the typed error taxonomy a fault-aware
//! visit returns instead of an always-success [`VisitOutcome`].
//!
//! Krumnow et al. (PAPERS.md) show that hangs, crashes, and partial page
//! loads silently bias crawl results when the harness flattens them into
//! "visit failed". This module keeps the failure *shape*: what kind of
//! fault hit, how far the visit got before it ([`VisitProgress`]), and
//! whether retrying can possibly help ([`VisitError::is_permanent`]).
//! Every error still degrades gracefully into a recordable
//! [`VisitOutcome`] via [`VisitError::to_outcome`], so a faulted campaign
//! produces partial site results instead of aborting the machine.

use crate::codes::StatusCodes;
use crate::visit::{VisitOutcome, VisualOutcome};
use hlisa_sim::FaultKind;

/// The phase a visit was in when a fault hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisitPhase {
    /// DNS / TCP / TLS establishment.
    Connect,
    /// Main-document load.
    PageLoad,
    /// Building (or stamping) the client's JS world.
    WorldBuild,
    /// The site's detector running against the world.
    DetectorScan,
    /// Driving the interaction chain over the page.
    Interaction,
    /// Collecting HTTP responses / screenshot.
    Capture,
}

impl VisitPhase {
    /// Stable snake_case name for reports and counters.
    pub fn name(self) -> &'static str {
        match self {
            VisitPhase::Connect => "connect",
            VisitPhase::PageLoad => "page_load",
            VisitPhase::WorldBuild => "world_build",
            VisitPhase::DetectorScan => "detector_scan",
            VisitPhase::Interaction => "interaction",
            VisitPhase::Capture => "capture",
        }
    }
}

/// Partial-progress capture: how far a visit got before its fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisitProgress {
    /// Phase the visit was in when it failed.
    pub phase: VisitPhase,
    /// Interaction-chain steps completed before the fault.
    pub steps_done: u32,
    /// Interaction-chain steps the visit had planned.
    pub steps_planned: u32,
    /// Virtual milliseconds elapsed since the attempt began.
    pub elapsed_ms: f64,
}

impl VisitProgress {
    /// Progress pinned at the start of `phase` (no chain steps yet).
    pub fn at_phase(phase: VisitPhase, elapsed_ms: f64) -> Self {
        Self {
            phase,
            steps_done: 0,
            steps_planned: 0,
            elapsed_ms,
        }
    }

    /// Fraction of the planned interaction chain completed, in [0, 1].
    pub fn chain_fraction(&self) -> f64 {
        if self.steps_planned == 0 {
            0.0
        } else {
            f64::from(self.steps_done) / f64::from(self.steps_planned)
        }
    }
}

/// Typed failure taxonomy for one visit attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum VisitError {
    /// The host never answered: the site is down (population property or
    /// whole-campaign outage) or this attempt's connect was refused.
    Unreachable {
        /// True when no retry within this campaign can succeed (dead
        /// host) as opposed to a one-off connect refusal.
        site_down: bool,
    },
    /// The main document did not finish loading inside the deadline.
    PageLoadTimeout {
        /// The deadline that fired (virtual ms).
        deadline_ms: f64,
    },
    /// The visit froze mid-chain and sat there until the deadline.
    Stalled {
        /// Where the freeze hit.
        progress: VisitProgress,
        /// The deadline that eventually fired (virtual ms).
        deadline_ms: f64,
    },
    /// The page's JS realm died mid-visit.
    RealmCrashed {
        /// Where the crash hit.
        progress: VisitProgress,
    },
    /// Transient network failure. `status` is the HTTP status observed
    /// (`None` when the connection reset before any response).
    TransientNetwork {
        /// Observed status code, if any response arrived.
        status: Option<u16>,
    },
}

impl VisitError {
    /// Whether retrying this visit within the campaign is pointless.
    /// Unreachability is permanent either way — a dead host stays dead
    /// and a refused connect refuses again; the distinction `site_down`
    /// draws only matters to reports. Permanent faults feed the
    /// crawler's circuit breaker, not its retry loop.
    pub fn is_permanent(&self) -> bool {
        matches!(self, VisitError::Unreachable { .. })
    }

    /// The fault-taxonomy bucket, for `fault.*` counters and reports.
    pub fn fault_kind(&self) -> FaultKind {
        match self {
            VisitError::Unreachable { .. } => FaultKind::PermanentUnreachable,
            VisitError::PageLoadTimeout { .. } => FaultKind::PageLoadTimeout,
            VisitError::Stalled { .. } => FaultKind::MidVisitStall,
            VisitError::RealmCrashed { .. } => FaultKind::RealmCrash,
            VisitError::TransientNetwork { .. } => FaultKind::TransientNetwork,
        }
    }

    /// Partial-progress capture, when the fault hit mid-visit.
    pub fn progress(&self) -> Option<&VisitProgress> {
        match self {
            VisitError::Stalled { progress, .. } | VisitError::RealmCrashed { progress } => {
                Some(progress)
            }
            _ => None,
        }
    }

    /// Degrades the error into a recordable [`VisitOutcome`] — the
    /// graceful-degradation path: a faulted visit still yields a row the
    /// Table 2 / Figure 4 aggregations can count, instead of aborting
    /// the machine.
    ///
    /// The mapping is pinned by the legacy outcome model: a down site
    /// records exactly the outcome the pre-fault-plane `simulate_visit`
    /// produced (`reached: false`, [`VisualOutcome::Unreachable`]), and a
    /// transient HTTP flake records its status as the sole first-party
    /// response — bit-compatibility the rate-0 chaos invariant relies on.
    pub fn to_outcome(&self) -> VisitOutcome {
        let (reached, visual, status) = match self {
            VisitError::Unreachable { .. } => return VisitOutcome::unreached(),
            VisitError::PageLoadTimeout { .. } => (true, VisualOutcome::Timeout, None),
            VisitError::Stalled { .. } => (true, VisualOutcome::Stalled, None),
            VisitError::RealmCrashed { .. } => (true, VisualOutcome::Crashed, None),
            VisitError::TransientNetwork { status } => {
                (true, VisualOutcome::TransientError, *status)
            }
        };
        VisitOutcome {
            reached,
            successful: false,
            visual,
            first_party: status.into_iter().collect(),
            third_party: StatusCodes::new(),
            detected: false,
        }
    }
}

impl VisitOutcome {
    /// The canonical not-reached outcome: the site never answered, so
    /// nothing downstream of the connect exists. This is both what
    /// [`VisitError::Unreachable`] degrades to and what capture
    /// reconstruction (`crate::capture`) infers when *no* event of a
    /// visit survived the observer channel — an instrument that saw
    /// nothing cannot tell a dead host from total measurement loss,
    /// which is exactly the silent-corruption mode Krumnow et al. warn
    /// about.
    pub fn unreached() -> VisitOutcome {
        VisitOutcome {
            reached: false,
            successful: false,
            visual: VisualOutcome::Unreachable,
            first_party: StatusCodes::new(),
            third_party: StatusCodes::new(),
            detected: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permanence_partitions_the_taxonomy() {
        assert!(VisitError::Unreachable { site_down: true }.is_permanent());
        assert!(VisitError::Unreachable { site_down: false }.is_permanent());
        assert!(!VisitError::PageLoadTimeout { deadline_ms: 1.0 }.is_permanent());
        assert!(!VisitError::Stalled {
            progress: VisitProgress::at_phase(VisitPhase::Interaction, 5.0),
            deadline_ms: 1.0
        }
        .is_permanent());
        assert!(!VisitError::TransientNetwork { status: None }.is_permanent());
    }

    #[test]
    fn unreachable_outcome_matches_the_legacy_shape() {
        let o = VisitError::Unreachable { site_down: true }.to_outcome();
        assert!(!o.reached && !o.successful);
        assert_eq!(o.visual, VisualOutcome::Unreachable);
        assert!(o.first_party.is_empty() && o.third_party.is_empty());
        assert!(!o.detected);
    }

    #[test]
    fn transient_outcome_carries_its_status() {
        let o = VisitError::TransientNetwork { status: Some(504) }.to_outcome();
        assert!(o.reached && !o.successful);
        assert_eq!(o.visual, VisualOutcome::TransientError);
        assert_eq!(o.first_party, vec![504]);
        let reset = VisitError::TransientNetwork { status: None }.to_outcome();
        assert!(reset.first_party.is_empty());
    }

    #[test]
    fn progress_is_captured_for_mid_visit_faults() {
        let p = VisitProgress {
            phase: VisitPhase::Interaction,
            steps_done: 3,
            steps_planned: 6,
            elapsed_ms: 1_200.0,
        };
        let e = VisitError::Stalled {
            progress: p,
            deadline_ms: 30_000.0,
        };
        assert_eq!(e.progress().map(|p| p.steps_done), Some(3));
        assert!((e.progress().map(|p| p.chain_fraction()).unwrap_or(0.0) - 0.5).abs() < 1e-12);
        assert_eq!(e.fault_kind(), FaultKind::MidVisitStall);
        assert!(e.to_outcome().reached);
        assert_eq!(e.to_outcome().visual, VisualOutcome::Stalled);
    }

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(VisitPhase::Connect.name(), "connect");
        assert_eq!(VisitPhase::Interaction.name(), "interaction");
        assert_eq!(
            VisitProgress::at_phase(VisitPhase::DetectorScan, 10.0).chain_fraction(),
            0.0
        );
    }
}
