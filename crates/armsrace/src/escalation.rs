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
use crate::tournament::{pick_identifiable_individual, TournamentConfig};
use hlisa_detect::interaction::UserProfile;
use hlisa_detect::reference::run_human_session_with;
use hlisa_detect::{DetectorLevel, HumanReference, InteractionDetector};
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
    // Shared infrastructure, as in the tournament.
    let reference = HumanReference::generate(
        derive_seed(config.seed, "esc-reference", 0),
        config.reference_sessions,
    );
    let enrolled = pick_identifiable_individual(config.seed);
    let mut corpus = HumanReference::default();
    for i in 0..config.enrollment_sessions {
        let f = run_human_session_with(
            enrolled.clone(),
            derive_seed(config.seed, "esc-enroll", i as u64),
        );
        corpus.key_dwell_ms.extend(f.key_dwells_ms.clone());
        corpus.click_dwell_ms.extend(f.click_dwells_ms.clone());
        corpus
            .click_offset_frac
            .extend(f.click_offsets_frac.clone());
        corpus.scroll_gap_ms.extend(f.scroll_gaps_ms.clone());
    }
    let profile = UserProfile::enroll(&corpus);

    let detector_for = |level: DetectorLevel| -> InteractionDetector {
        match level {
            DetectorLevel::L1Artificial => InteractionDetector::level1(),
            DetectorLevel::L2Deviation => InteractionDetector::level2(reference.clone()),
            DetectorLevel::L3Consistency => InteractionDetector::level3(reference.clone()),
            DetectorLevel::L4Profile => {
                InteractionDetector::level4(reference.clone(), profile.clone())
            }
        }
    };

    let simulators: Vec<Simulator> = vec![
        Simulator::Selenium,
        Simulator::Naive,
        Simulator::Hlisa,
        Simulator::ConsistentHlisa,
        Simulator::ProfileFitted(enrolled),
    ];

    let mut rounds = Vec::new();
    let mut det_idx = 0usize;
    let mut sim_idx = 0usize;
    let mut round_no = 1usize;
    loop {
        let detector = detector_for(DetectorLevel::ALL[det_idx]);
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
        } else if det_idx + 1 < DetectorLevel::ALL.len() {
            Some("detector escalates")
        } else {
            None
        };

        rounds.push(Round {
            round: round_no,
            detector: DetectorLevel::ALL[det_idx],
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
