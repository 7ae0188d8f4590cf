//! Fixed-seed golden test over the Fig. 3 ladder.
//!
//! Pins everything the ladder's two judges read: each rung's session
//! features (the trace detectors' input), each scripted rung's chain-lint
//! report (the static judge's output), and a small tournament and
//! escalation. The hashes were captured while the trace and lint judges
//! still drove hand-copied task sets; any drift in a task's page, chain,
//! seed label, round count, pause or scroll amount changes a hash.

use hlisa_armsrace::tournament::pick_identifiable_individual;
use hlisa_armsrace::{lint_simulator, run_escalation, run_tournament, Simulator, TournamentConfig};

/// FNV-1a over the canonical debug rendering. Debug formatting of `f64`
/// is the shortest round-trip representation, so two values hash equal
/// iff they are bit-identical.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const SEEDS: [u64; 4] = [1, 2, 3, 7];

/// The seven rungs in Fig. 3 row order, fitted and enrolled to the
/// individual the tournament at `seed` would enrol.
fn ladder(seed: u64) -> [Simulator; 7] {
    let enrolled = pick_identifiable_individual(seed);
    [
        Simulator::Selenium,
        Simulator::Naive,
        Simulator::Hlisa,
        Simulator::ConsistentHlisa,
        Simulator::ProfileFitted(enrolled.clone()),
        Simulator::Human,
        Simulator::EnrolledHuman(enrolled),
    ]
}

/// Per rung: one hash over its features on every seed in [`SEEDS`].
fn feature_hashes() -> [u64; 7] {
    std::array::from_fn(|rung| {
        let mut canon = String::new();
        for seed in SEEDS {
            let sim = &ladder(seed)[rung];
            canon.push_str(&format!("{seed} {:?}\n", sim.run_session(seed)));
        }
        fnv1a(&canon)
    })
}

/// Per scripted rung: one hash over its rule ids and rendered report on
/// every seed in [`SEEDS`].
fn lint_hashes() -> [u64; 5] {
    std::array::from_fn(|rung| {
        let mut canon = String::new();
        for seed in SEEDS {
            let sim = &ladder(seed)[rung];
            let report = lint_simulator(sim, seed).expect("scripted rungs lint");
            canon.push_str(&format!(
                "{seed} {:?}\n{}\n",
                report.rule_ids(),
                report.render_human()
            ));
        }
        fnv1a(&canon)
    })
}

fn small_config() -> TournamentConfig {
    TournamentConfig {
        seed: 9,
        sessions_per_agent: 2,
        reference_sessions: 2,
        enrollment_sessions: 2,
    }
}

#[test]
fn session_features_of_every_rung_are_pinned() {
    assert_eq!(
        feature_hashes(),
        [
            8_524_542_809_892_445_045,
            14_132_463_442_355_955_816,
            8_251_758_784_725_434_787,
            14_500_895_168_241_281_429,
            12_947_290_312_413_766_427,
            15_641_174_011_424_458_736,
            10_169_706_413_495_090_707,
        ]
    );
}

#[test]
fn lint_reports_of_every_scripted_rung_are_pinned() {
    // The three HLISA rungs lint clean on every seed, so their canonical
    // text (and hash) is the same.
    assert_eq!(
        lint_hashes(),
        [
            5_562_158_968_577_114_932,
            191_299_810_034_203_960,
            3_338_518_156_152_687_150,
            3_338_518_156_152_687_150,
            3_338_518_156_152_687_150,
        ]
    );
}

#[test]
fn human_rungs_have_no_lint_report() {
    for seed in SEEDS {
        assert!(ladder(seed)[5..]
            .iter()
            .all(|sim| lint_simulator(sim, seed).is_none()));
    }
}

#[test]
fn a_small_tournament_is_pinned() {
    let result = run_tournament(&small_config());
    assert_eq!(result.cells.len(), 7 * 4);
    assert_eq!(fnv1a(&format!("{result:?}")), 12_413_927_085_653_396_279);
}

#[test]
fn a_small_escalation_is_pinned() {
    let rounds = run_escalation(&small_config());
    assert_eq!(fnv1a(&format!("{rounds:?}")), 7_109_375_649_839_124_802);
}
