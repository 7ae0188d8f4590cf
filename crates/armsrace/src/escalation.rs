//! The arms race *as a process*: Fig. 3's escalation arrows, executed.
//!
//! The matrix ([`crate::run_tournament`]) shows who beats whom at fixed
//! capability levels; this module plays out the *sequence* §4.2 narrates:
//! a site deploys a detector, the measurement platform's sessions start
//! getting flagged, the platform upgrades its simulator, detection drops,
//! the site escalates its detector, and so on — until the simulator
//! impersonates the enrolled user and "ultimately defeat\[s\] detection
//! based exclusively on interaction".

use crate::simulators::Simulator;
use crate::tournament::{setup_ladder, TournamentConfig};
use hlisa_detect::DetectorLevel;
use hlisa_stats::rngutil::derive_seed;

/// One round of the escalation.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Round number (1-based).
    pub round: usize,
    /// Detector level deployed this round.
    pub detector: DetectorLevel,
    /// Simulator rung fielded this round.
    pub simulator: String,
    /// Fraction of the platform's sessions flagged.
    pub detection_rate: f64,
    /// Who escalates next (None when the race has converged).
    pub escalation: Option<&'static str>,
}

/// Runs the escalation loop: each side upgrades whenever it is losing.
pub fn run_escalation(config: &TournamentConfig) -> Vec<Round> {
    let (detectors, mut simulators) = setup_ladder(config, "esc-reference", "esc-enroll");
    // The measurement platform can field only the scripted rungs.
    simulators.retain(Simulator::is_scripted);

    let mut rounds = Vec::new();
    let mut det_idx = 0usize;
    let mut sim_idx = 0usize;
    let mut round_no = 1usize;
    loop {
        let detector = &detectors[det_idx];
        let sim = &simulators[sim_idx];
        let flagged = (0..config.sessions_per_agent)
            .filter(|i| {
                let f = sim.run_session(derive_seed(
                    config.seed,
                    &format!("esc-{round_no}-{}", sim.label()),
                    *i as u64,
                ));
                detector.judge_features(&f).is_bot
            })
            .count();
        let rate = flagged as f64 / config.sessions_per_agent as f64;

        // Whoever is losing escalates; the race converges when the
        // simulator wins with nothing left for the detector to deploy.
        let escalation = if rate > 0.5 {
            if sim_idx + 1 < simulators.len() {
                Some("simulator upgrades")
            } else {
                Some("simulator out of upgrades — detection holds")
            }
        } else if det_idx + 1 < detectors.len() {
            Some("detector escalates")
        } else {
            None
        };

        rounds.push(Round {
            round: round_no,
            detector: detector.level(),
            simulator: sim.label().to_string(),
            detection_rate: rate,
            escalation,
        });

        match escalation {
            Some("simulator upgrades") => sim_idx += 1,
            Some("detector escalates") => det_idx += 1,
            _ => break,
        }
        round_no += 1;
        if round_no > 24 {
            break; // defensive bound; the ladder is finite
        }
    }
    rounds
}

/// Formats the escalation as the paper's narrative.
pub fn report(rounds: &[Round]) -> String {
    let mut out = String::from("The interaction arms race, played out:\n\n");
    for r in rounds {
        out.push_str(&format!(
            "round {:>2}: detector \"{}\" vs simulator \"{}\"\n          -> {:.0}% of sessions flagged{}\n",
            r.round,
            r.detector.label(),
            r.simulator,
            r.detection_rate * 100.0,
            match r.escalation {
                Some(e) => format!("; {e}"),
                None => "; race converged — interaction-only detection is defeated".to_string(),
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> TournamentConfig {
        TournamentConfig {
            seed: 11,
            sessions_per_agent: 2,
            reference_sessions: 2,
            enrollment_sessions: 2,
        }
    }

    #[test]
    fn escalation_walks_the_full_ladder() {
        let rounds = run_escalation(&quick());
        // The race must reach the profile-fitted simulator and converge.
        let last = rounds.last().unwrap();
        assert!(last.simulator.contains("specific user profile"), "{last:?}");
        assert_eq!(last.detection_rate, 0.0);
        assert!(last.escalation.is_none());
        // Every detector level was deployed on the way.
        for level in DetectorLevel::ALL {
            assert!(
                rounds.iter().any(|r| r.detector == level),
                "{level:?} never deployed"
            );
        }
    }

    #[test]
    fn each_upgrade_is_a_response_to_losing() {
        let rounds = run_escalation(&quick());
        for w in rounds.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.detection_rate > 0.5 {
                assert_ne!(a.simulator, b.simulator, "losing simulator must upgrade");
            } else {
                assert_ne!(a.detector, b.detector, "losing detector must escalate");
            }
        }
    }

    #[test]
    fn report_tells_the_story() {
        let s = report(&run_escalation(&quick()));
        assert!(s.contains("race converged"));
        assert!(s.contains("Selenium"));
        assert!(s.contains("HLISA"));
    }
}
