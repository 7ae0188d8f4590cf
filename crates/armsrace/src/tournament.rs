//! The simulator × detector tournament that regenerates Fig. 3's
//! narrative as a detection-rate matrix, and its one renderer
//! ([`report`]) for the `figure3` binary and the `arms_race` example.

use crate::simulators::Simulator;
use hlisa_detect::interaction::UserProfile;
use hlisa_detect::reference::run_human_session_with;
use hlisa_detect::{DetectorLevel, HumanReference, InteractionDetector};
use hlisa_human::HumanParams;
use hlisa_stats::ascii::format_table;
use hlisa_stats::rngutil::derive_seed;

/// Tournament configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TournamentConfig {
    /// Master seed.
    pub seed: u64,
    /// Sessions per simulator.
    pub sessions_per_agent: usize,
    /// Human sessions in the level-2 reference corpus.
    pub reference_sessions: usize,
    /// Enrolment sessions for the level-4 profile.
    pub enrollment_sessions: usize,
}

impl Default for TournamentConfig {
    fn default() -> Self {
        Self {
            seed: 0x41_52_4d_53, // "ARMS"
            sessions_per_agent: 8,
            reference_sessions: 6,
            enrollment_sessions: 4,
        }
    }
}

/// One cell of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Simulator row label.
    pub simulator: String,
    /// Detector level.
    pub level: DetectorLevel,
    /// Fraction of sessions flagged.
    pub detection_rate: f64,
    /// Most frequent signal name among flagged sessions.
    pub dominant_signal: Option<String>,
}

/// Full tournament output.
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentResult {
    /// Row labels in ladder order.
    pub simulators: Vec<String>,
    /// All cells (row-major over simulators × levels).
    pub cells: Vec<MatrixCell>,
}

impl TournamentResult {
    /// Detection rate for (simulator label, level).
    pub fn rate(&self, simulator: &str, level: DetectorLevel) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.simulator == simulator && c.level == level)
            .map(|c| c.detection_rate)
    }
}

/// The ladder both experiments play on: one detector per level in
/// [`DetectorLevel::ALL`] order, and [`Simulator::ladder`] around the
/// identifiable individual. The level-2 reference is generated from the
/// `reference` seed label and the level-4 profile is enrolled on that
/// individual's `enroll`-labelled sessions.
pub(crate) fn setup_ladder(
    config: &TournamentConfig,
    reference: &str,
    enroll: &str,
) -> ([InteractionDetector; 4], Vec<Simulator>) {
    // The level-2/3 reference models the human population; the level-4
    // profile models one identifiable individual only.
    let enrolled = pick_identifiable_individual(config.seed);
    let population = HumanReference::generate(
        derive_seed(config.seed, reference, 0),
        config.reference_sessions,
    );
    let mut corpus = HumanReference::default();
    for i in 0..config.enrollment_sessions {
        corpus.absorb(&run_human_session_with(
            enrolled.clone(),
            derive_seed(config.seed, enroll, i as u64),
        ));
    }
    let detectors = [
        InteractionDetector::level1(),
        InteractionDetector::level2(population.clone()),
        InteractionDetector::level3(population.clone()),
        InteractionDetector::level4(population, UserProfile::enroll(&corpus)),
    ];
    (detectors, Simulator::ladder(enrolled))
}

/// Runs the tournament.
pub fn run_tournament(config: &TournamentConfig) -> TournamentResult {
    let (detectors, simulators) = setup_ladder(config, "reference", "enroll");

    let mut cells = Vec::new();
    for sim in &simulators {
        // Pre-run the sessions once; every detector judges the same traces.
        let features: Vec<_> = (0..config.sessions_per_agent)
            .map(|i| sim.run_session(derive_seed(config.seed, sim.label(), i as u64)))
            .collect();
        for det in &detectors {
            let mut flagged = 0usize;
            let mut signal_counts: Vec<(String, usize)> = Vec::new();
            for f in &features {
                let v = det.judge_features(f);
                if v.is_bot {
                    flagged += 1;
                    for s in v.signals {
                        match signal_counts.iter_mut().find(|(n, _)| *n == s.name) {
                            Some((_, c)) => *c += 1,
                            None => signal_counts.push((s.name.to_string(), 1)),
                        }
                    }
                }
            }
            signal_counts.sort_by_key(|c| std::cmp::Reverse(c.1));
            cells.push(MatrixCell {
                simulator: sim.label().to_string(),
                level: det.level(),
                detection_rate: flagged as f64 / features.len() as f64,
                dominant_signal: signal_counts.first().map(|(n, _)| n.clone()),
            });
        }
    }

    TournamentResult {
        simulators: simulators.iter().map(|s| s.label().to_string()).collect(),
        cells,
    }
}

/// Renders the matrix with detection rates and GDPR annotations.
pub fn report(result: &TournamentResult) -> String {
    let mut out = String::from(
        "Figure 3: the arms race for page interaction, as a measured detection matrix.\n\
         Cells: fraction of sessions flagged by a detector at that level.\n\n",
    );
    let mut header: Vec<String> = vec!["Simulator \\ Detector".to_string()];
    for l in DetectorLevel::ALL {
        header.push(format!(
            "L{}{}",
            l as usize + 1,
            if l.gdpr_sensitive() { "*" } else { "" }
        ));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let rows: Vec<Vec<String>> = result
        .simulators
        .iter()
        .map(|sim| {
            let mut row = vec![sim.clone()];
            for l in DetectorLevel::ALL {
                let rate = result.rate(sim, l).unwrap_or(f64::NAN);
                row.push(format!("{rate:.2}"));
            }
            row
        })
        .collect();
    out.push_str(&format_table(&header_refs, &rows));
    out.push_str(
        "\n* levels the paper flags as potentially conflicting with privacy regulation (GDPR):\n",
    );
    for l in DetectorLevel::ALL {
        out.push_str(&format!(
            "  L{} = {}{}\n",
            l as usize + 1,
            l.label(),
            if l.gdpr_sensitive() {
                "  [GDPR-sensitive]"
            } else {
                ""
            }
        ));
    }
    out.push_str(
        "\nReading: HLISA is first caught at L3 — \"to detect HLISA, an interaction-based\n\
         detector needs to compare the observed interaction to a model of human behaviour\" (§5).\n",
    );
    out
}

/// Picks an individual whose tempo offset is clearly identifiable (so the
/// enrolment story of Fig. 3's top rung is meaningful) yet still well
/// inside the population envelope (so the level-2 detector, which must
/// tolerate individual variation, does not flag them). Shared with the
/// escalation loop so both experiments enrol the same user.
pub fn pick_identifiable_individual(seed: u64) -> HumanParams {
    let baseline = HumanParams::paper_baseline().key_dwell.mean();
    const TARGET_GAP_MS: f64 = 13.0;
    // Seeding with candidate 0 (at infinite miss, so it still competes on
    // equal terms) keeps the pool structurally non-empty.
    let mut best = (
        f64::INFINITY,
        HumanParams::individual(derive_seed(seed, "enrolled-individual", 0)),
    );
    for i in 0..32 {
        let p = HumanParams::individual(derive_seed(seed, "enrolled-individual", i));
        let miss = ((p.key_dwell.mean() - baseline).abs() - TARGET_GAP_MS).abs();
        if miss < best.0 {
            best = (miss, p);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::run_tournament as run;

    fn quick_config() -> TournamentConfig {
        TournamentConfig {
            seed: 4,
            sessions_per_agent: 3,
            reference_sessions: 3,
            enrollment_sessions: 2,
        }
    }

    #[test]
    fn matrix_has_all_cells() {
        let r = run_tournament(&quick_config());
        assert_eq!(r.simulators.len(), 7);
        assert_eq!(r.cells.len(), 7 * 4);
    }

    #[test]
    fn ladder_shape_holds() {
        let r = run_tournament(&quick_config());
        let sel = Simulator::Selenium.label();
        let naive = Simulator::Naive.label();
        let hlisa = Simulator::Hlisa.label();
        let human = Simulator::Human.label();

        // Selenium is caught at every level.
        for l in DetectorLevel::ALL {
            assert_eq!(r.rate(sel, l), Some(1.0), "selenium at {l:?}");
        }
        // Naive evades L1, is caught by L2.
        assert_eq!(r.rate(naive, DetectorLevel::L1Artificial), Some(0.0));
        assert_eq!(r.rate(naive, DetectorLevel::L2Deviation), Some(1.0));
        // HLISA evades L1 and L2, is caught by L3.
        assert_eq!(r.rate(hlisa, DetectorLevel::L1Artificial), Some(0.0));
        assert_eq!(r.rate(hlisa, DetectorLevel::L2Deviation), Some(0.0));
        assert!(r.rate(hlisa, DetectorLevel::L3Consistency).unwrap() >= 0.9);
        // Humans pass L1–L3.
        for l in [
            DetectorLevel::L1Artificial,
            DetectorLevel::L2Deviation,
            DetectorLevel::L3Consistency,
        ] {
            assert_eq!(r.rate(human, l), Some(0.0), "human at {l:?}");
        }
    }

    #[test]
    fn profile_rungs_behave() {
        let r = run_tournament(&quick_config());
        let consistent = Simulator::ConsistentHlisa.label();
        let fitted = "Use specific user profile (HLISA fitted)";
        let enrolled = "Human visitor (the enrolled user)";

        // Consistent HLISA evades L3 but not L4.
        assert_eq!(r.rate(consistent, DetectorLevel::L3Consistency), Some(0.0));
        assert!(r.rate(consistent, DetectorLevel::L4Profile).unwrap() >= 0.9);
        // Fitted simulator and the enrolled user both pass L4 — "the only
        // way to defeat such detection mechanisms is to move ... to
        // simulating the specific interaction profile of a specific
        // individual" (§4.2).
        assert_eq!(r.rate(fitted, DetectorLevel::L4Profile), Some(0.0));
        assert_eq!(r.rate(enrolled, DetectorLevel::L4Profile), Some(0.0));
        // *Different* humans are (sometimes) flagged by the profile
        // detector — the over-focus that the paper argues may conflict
        // with the GDPR. How often depends on how far each random
        // individual's tempo sits from the enrolled one.
        let other_human = Simulator::Human.label();
        assert!(r.rate(other_human, DetectorLevel::L4Profile).unwrap() >= 0.3);
    }

    #[test]
    fn report_contains_matrix_and_annotations() {
        let cfg = TournamentConfig {
            seed: 3,
            sessions_per_agent: 2,
            reference_sessions: 2,
            enrollment_sessions: 2,
        };
        let r = report(&run(&cfg));
        assert!(r.contains("L1"));
        assert!(r.contains("GDPR"));
        assert!(r.contains("HLISA"));
        // 7 simulator rows.
        assert!(r.matches("0.").count() >= 7);
    }
}
